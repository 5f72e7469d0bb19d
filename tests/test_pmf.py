"""Ingestion and price-distribution construction."""

import numpy as np
import pytest

from diftrans.errors import (
    EmptyDistributionError,
    ParseError,
    SchemaError,
    ValidationError,
)
from diftrans.pmf import PeriodFilter, PricePMF, SalesTable, build_pmf, ingest_csv

from _oracles import table_rows


def write(tmp_path, text, name="sales.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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
