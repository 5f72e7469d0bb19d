"""Ingestion and price-distribution construction."""

import csv
import warnings

import numpy as np
import pytest

from diftrans import pmf
from diftrans.errors import (
    EmptyDistributionError,
    ParseError,
    SchemaError,
    ValidationError,
)
from diftrans.pmf import PeriodFilter, PricePMF, SalesTable, build_pmf, ingest_csv

from _oracles import csv_rows, table_rows


def write(tmp_path, text, name="sales.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def forbid_row_loop(monkeypatch):
    """Make the `csv` row loop fail, so only the byte-level path can ingest."""

    def row_loop(*args):
        raise AssertionError("the row loop read the file")

    monkeypatch.setattr(pmf, "_read_table", row_loop)


INT64_PAST = 2**63

#: A row whose cell `int()` rejects or int64 cannot hold -> the row loop's message.
FLOAT_PARSED_ROWS = [
    ("metro,2010,1,100000,2.5", "non-integer quantity '2.5', row 2"),
    ("metro,2010,1,5.5,4", "non-integer price '5.5', row 2"),
    ("metro,2010,1,-0.5,4", "non-integer price '-0.5', row 2"),
    ("metro,2010,12.9,5,4", "non-integer month '12.9', row 2"),
    (f"metro,2010,1,{INT64_PAST},4", "integer outside the int64 range, row 2"),
]


class TestIngest:
    def test_three_valid_rows(self, tmp_path):
        path = write(
            tmp_path,
            "city,year,month,price,quantity\n"
            "metro,2010,1,100000,5\n"
            "metro,2010,2,90000,3\n"
            "coastal,2011,12,120000,0\n",
        )
        table = ingest_csv(path)
        assert len(table) == 3
        assert table.cities == ("metro", "coastal")
        assert table_rows(table) == [
            ("metro", 2010, 1, 100000, 5),
            ("metro", 2010, 2, 90000, 3),
            ("coastal", 2011, 12, 120000, 0),  # zero-quantity rows are retained
        ]

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "city,year,month,price,quantity\n")
        table = ingest_csv(path)
        assert len(table) == 0
        assert table.cities == ()

    def test_month_out_of_range_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "city,year,month,price,quantity\nmetro,2010,13,100000,5\n",
        )
        with pytest.raises(ValidationError, match="month out of range, row 2"):
            ingest_csv(path)

    def test_missing_column_named(self, tmp_path):
        path = write(tmp_path, "city,year,month,price\nmetro,2010,1,100000\n")
        with pytest.raises(SchemaError, match="quantity"):
            ingest_csv(path)

    def test_non_numeric_price_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "city,year,month,price,quantity\n"
            "metro,2010,1,100000,5\n"
            "metro,2010,2,cheap,5\n",
        )
        with pytest.raises(ParseError, match="row 3"):
            ingest_csv(path)

    def test_negative_quantity(self, tmp_path):
        path = write(
            tmp_path, "city,year,month,price,quantity\nmetro,2010,1,100000,-2\n"
        )
        with pytest.raises(ValidationError, match="negative quantity, row 2"):
            ingest_csv(path)

    def test_fractional_quantity_rejected(self, tmp_path):
        path = write(
            tmp_path, "city,year,month,price,quantity\nmetro,2010,1,100000,2.5\n"
        )
        with pytest.raises(ParseError, match="non-integer quantity"):
            ingest_csv(path)

    def test_integral_float_accepted(self, tmp_path):
        path = write(
            tmp_path, "city,year,month,price,quantity\nmetro,2010,1,100000.0,5\n"
        )
        assert ingest_csv(path).price.tolist() == [100000]

    def test_schema_mapping(self, tmp_path):
        path = write(
            tmp_path,
            "town,yr,mo,msrp,units\nmetro,2010,1,100000,5\n",
        )
        table = ingest_csv(
            path,
            schema={
                "city": "town",
                "year": "yr",
                "month": "mo",
                "price": "msrp",
                "quantity": "units",
            },
        )
        assert table_rows(table) == [("metro", 2010, 1, 100000, 5)]

    def test_canonical_file_skips_row_loop(self, synth_csv, monkeypatch):
        with open(synth_csv, encoding="utf-8", newline="") as fh:
            loop = pmf._read_table(csv.reader(fh), dict(pmf.DEFAULT_SCHEMA), synth_csv)
        forbid_row_loop(monkeypatch)
        table = ingest_csv(synth_csv)
        assert table_rows(table) == csv_rows(synth_csv)
        assert table.cities == loop.cities
        for name in ("city", "year", "month", "price", "quantity"):
            column = getattr(table, name)
            assert column.dtype == np.int64 and column.flags.c_contiguous
            assert np.array_equal(column, getattr(loop, name))

    def test_header_only_gives_empty_table_without_warning(self, tmp_path):
        for text in ("city,year,month,price,quantity", "city,year,month,price,quantity\r\n\r\n"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = ingest_csv(write(tmp_path, text))
            assert len(table) == 0
            assert table.cities == ()

    @pytest.mark.parametrize("action", ["default", "ignore"])
    @pytest.mark.parametrize("row, message", FLOAT_PARSED_ROWS, ids=[r for r, _ in FLOAT_PARSED_ROWS])
    def test_float_parsed_cell_reads_like_row_loop(self, tmp_path, action, row, message):
        path = write(tmp_path, f"city,year,month,price,quantity\n{row}\n")
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(ParseError) as info:
                ingest_csv(path)
        assert str(info.value) == message

    def test_city_and_year_share_a_column(self, tmp_path):
        path = write(tmp_path, "city,year,month,price,quantity\nmetro, 2010 ,1,5,4\n")
        table = ingest_csv(path, schema={"city": "year"})
        assert table_rows(table) == [("2010", 2010, 1, 5, 4)]

    def test_unknown_schema_key(self, tmp_path):
        path = write(tmp_path, "city,year,month,price,quantity\n")
        with pytest.raises(SchemaError, match="unknown schema keys"):
            ingest_csv(path, schema={"color": "paint"})


class TestBuildPmf:
    def records(self):
        return SalesTable.from_rows([("metro", 2010, 1, 1, 6), ("metro", 2010, 2, 2, 2)])

    def test_two_point_example(self):
        pmf = build_pmf(self.records(), "metro")
        assert pmf.support.tolist() == [1, 2]
        assert pmf.mass.tolist() == [0.75, 0.25]
        assert pmf.n == 8

    def test_point_mass(self):
        pmf = build_pmf(SalesTable.from_rows([("metro", 2010, 1, 50000, 10)]), "metro")
        assert pmf.support.tolist() == [50000]
        assert pmf.mass.tolist() == [1.0]
        assert pmf.n == 10

    def test_merge_duplicate_prices(self):
        records = SalesTable.from_rows([("metro", 2010, 1, 5, 3), ("metro", 2010, 6, 5, 7)])
        pmf = build_pmf(records, "metro")
        assert pmf.support.tolist() == [5]
        assert pmf.mass.tolist() == [1.0]
        assert pmf.n == 10

    def test_zero_quantity_errors(self):
        with pytest.raises(EmptyDistributionError):
            build_pmf(SalesTable.from_rows([("metro", 2010, 1, 5, 0)]), "metro")
        with pytest.raises(EmptyDistributionError):
            build_pmf(self.records(), "unknown-city")

    def test_row_order_invariance(self):
        rng = np.random.default_rng(3)
        rows = [
            ("metro", 2010, int(rng.integers(1, 13)), int(p), int(q))
            for p, q in zip(rng.integers(0, 50, 40), rng.integers(0, 9, 40))
        ]
        if not any(row[4] for row in rows):
            rows.append(("metro", 2010, 1, 3, 2))
        base = build_pmf(SalesTable.from_rows(rows), "metro")
        for _ in range(5):
            shuffled = list(rows)
            rng.shuffle(shuffled)
            assert build_pmf(SalesTable.from_rows(shuffled), "metro") == base

    def test_filter_excluding_nothing_is_identity(self):
        records = self.records()
        inert = PeriodFilter(
            include=(((2009, 1), (2012, 12)),), exclude=frozenset({(2015, 5)})
        )
        assert build_pmf(records, "metro", inert) == build_pmf(records, "metro")

    def test_filter_selects_periods(self):
        records = self.records()
        january = PeriodFilter(include=(((2010, 1), (2010, 1)),))
        pmf = build_pmf(records, "metro", january)
        assert pmf.support.tolist() == [1]
        assert pmf.n == 6

    def test_exclusion_drops_month(self):
        records = self.records()
        filt = PeriodFilter(
            include=(((2010, 1), (2010, 12)),), exclude=frozenset({(2010, 2)})
        )
        pmf = build_pmf(records, "metro", filt)
        assert pmf.support.tolist() == [1]

    def test_invariants_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k = int(rng.integers(1, 30))
            records = SalesTable.from_rows(
                ("metro", 2011, 1, int(p), int(q))
                for p, q in zip(rng.integers(0, 10**6, k), rng.integers(1, 10**4, k))
            )
            pmf = build_pmf(records, "metro")
            assert abs(pmf.mass.sum() - 1.0) <= 1e-12
            assert np.all(np.diff(pmf.support) > 0)
            assert np.all(pmf.mass >= 0)
            assert pmf.n == int(records.quantity.sum())


class TestSalesTable:
    def test_first_broken_row_named_by_index(self):
        rows = [("metro", 2010, 1, 5, 1), ("metro", 2010, 2, 5, -1), ("metro", 2010, 13, 5, 1)]
        with pytest.raises(ValidationError, match="^negative quantity, index 1$"):
            SalesTable.from_rows(rows)

    def test_shape_and_codes_checked(self):
        with pytest.raises(ValidationError, match="equal-length"):
            SalesTable(("metro",), [0, 0], [2010], [1], [5], [1])
        with pytest.raises(ValidationError, match="city code"):
            SalesTable(("metro",), [1], [2010], [1], [5], [1])

    def test_int64_limits(self, tmp_path):
        path = write(
            tmp_path, f"city,year,month,price,quantity\nmetro,2010,1,{2**63},5\n"
        )
        with pytest.raises(ParseError, match="int64 range, row 2"):
            ingest_csv(path)
        path = write(
            tmp_path, f"city,year,month,price,quantity\nmetro,{2**62},1,5,5\n"
        )
        with pytest.raises(ValidationError, match="year out of range, row 2"):
            ingest_csv(path)
        with pytest.raises(ValidationError, match="total quantity"):
            SalesTable.from_rows([("metro", 2010, 1, 5, 2**62)] * 2)

    def test_columns_read_only(self):
        table = SalesTable.from_rows([("metro", 2010, 1, 5, 1)])
        with pytest.raises(ValueError):
            table.price[0] = 6


class TestPricePMF:
    def test_rejects_unsorted_support(self):
        with pytest.raises(ValidationError):
            PricePMF(np.array([2, 1]), np.array([0.5, 0.5]), 2)

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValidationError):
            PricePMF(np.array([1, 1]), np.array([0.5, 0.5]), 2)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValidationError):
            PricePMF(np.array([1, 2]), np.array([0.6, 0.6]), 2)
        with pytest.raises(ValidationError):
            PricePMF(np.array([1, 2]), np.array([1.2, -0.2]), 2)

    @pytest.mark.parametrize(
        "mass",
        [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [np.inf, np.nan], [1.0, -np.inf]],
    )
    def test_rejects_non_finite_mass(self, mass):
        with pytest.raises(ValidationError) as err:
            PricePMF(np.array([1, 2]), np.array(mass), 1)
        assert len(str(err.value).splitlines()) == 1

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            PricePMF(np.array([1]), np.array([1.0]), 0)
        with pytest.raises(ValidationError):
            PricePMF(np.array([1]), np.array([1.0]), 2.5)

    def test_counts_roundtrip(self):
        pmf = PricePMF.from_counts([10, 20, 30], [3, 0, 7])
        assert pmf.counts().tolist() == [3, 0, 7]
        assert pmf.n == 10

    def test_immutable(self):
        pmf = PricePMF.from_counts([10, 20], [1, 1])
        with pytest.raises(ValueError):
            pmf.mass[0] = 0.9

    def test_period_filter_validation(self):
        with pytest.raises(ValidationError):
            PeriodFilter(include=(((2011, 1), (2010, 1)),))
        with pytest.raises(ValidationError):
            PeriodFilter(exclude=frozenset({(2010, 13)}))
        with pytest.raises(ValidationError, match="month out of range"):
            PeriodFilter(include=(((2010, 0), (2010, 12)),))
