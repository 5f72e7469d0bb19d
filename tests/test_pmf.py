"""Ingestion and price-distribution construction."""

import csv
import io
import tracemalloc
import warnings

import numpy as np
import pytest

from diftrans import pmf
from diftrans.equilibrium import WtpCurve
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

    def test_canonical_file_skips_row_loop(self, synth_csv, monkeypatch):
        with open(synth_csv, encoding="utf-8", newline="") as fh:
            loop = pmf._read_table(csv.reader(fh), synth_csv)
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

    def test_long_label_reads_like_its_quoted_twin(self, tmp_path):
        # A label past `csv`'s default field limit: the row loop, which reads
        # the quoted file, reads it as the byte pass reads the plain one.
        label = "x" * 200_000
        head = "city,year,month,price,quantity\n" + "metro,2010,1,5,4\n" * 3
        plain = write(tmp_path, f"{head}{label},2011,2,7,1\n", "plain.csv")
        quoted = write(tmp_path, f'{head}"{label}",2011,2,7,1\n', "quoted.csv")
        limit = csv.field_size_limit()
        table = ingest_csv(plain)
        assert table.cities == ("metro", label)
        assert table_rows(ingest_csv(quoted)) == table_rows(table)
        assert csv.field_size_limit() == limit

    def test_long_label_bounds_peak_memory(self, tmp_path):
        # One long label would widen the byte pass's fixed-width label words
        # in every row, so such a file goes to the row loop instead.
        text = "city,year,month,price,quantity\n" + "metro,2010,1,5,4\n" * 5000
        path = write(tmp_path, f"{text}{'x' * 20_000},2011,2,7,1\n")
        tracemalloc.start()
        try:
            table = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 5001
        assert peak < 25 * path.stat().st_size

    @pytest.mark.parametrize("header", ["city", '"city"'], ids=["byte pass", "row loop"])
    def test_byte_order_mark_reads_like_its_twin(self, tmp_path, monkeypatch, header):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark; a
        # quote sends the file to the row loop.  Row numbers do not move.
        text = f"{header},year,month,price,quantity\nmetro,2010,1,100000,5\n\ncoastal,2011,12,120000,0\n"
        plain = write(tmp_path, text, "plain.csv")
        marked = write(tmp_path, "\ufeff" + text, "marked.csv")
        broken = write(tmp_path, "\ufeff" + text.replace(",12,", ",13,"), "broken.csv")
        with pytest.raises(ValidationError, match="^month out of range, row 4$"):
            ingest_csv(broken)
        want = table_rows(ingest_csv(plain))
        if header == "city":
            forbid_row_loop(monkeypatch)
        table = ingest_csv(marked)
        assert table_rows(table) == want
        assert table.cities == ("metro", "coastal")

    @pytest.mark.parametrize("header", ["city", '"city"'], ids=["byte pass", "row loop"])
    def test_file_object_reads_like_its_path(self, tmp_path, header):
        # A binary file object is read from where it stands, and messages
        # name its `name`.
        text = f"{header},year,month,price,quantity\nmetro,2010,1,100000,5\ncoastal,2011,12,120000,0\n"
        path = write(tmp_path, text)
        source = io.BytesIO(b"skipped" + path.read_bytes())
        source.seek(len(b"skipped"))
        assert table_rows(ingest_csv(source)) == table_rows(ingest_csv(path))
        with open(path, "rb") as fh:
            assert table_rows(ingest_csv(fh)) == table_rows(ingest_csv(path))
        # A byte that is not UTF-8 in a label, in the header or in a column
        # the table does not read ends in the row loop's message.
        head = b"city,year,month,price,quantity"
        for data in (
            b"city\n\xff\n",
            head + b"\nmetro,2010,1,5,4\n\xffx,2010,1,5,4\n",
            head + b",\xff\n",
            head + b",note\nmetro,2010,1,5,4,\xff\n",
        ):
            broken = io.BytesIO(data)
            broken.name = "named.csv"
            with pytest.raises(ParseError, match="^named.csv: not UTF-8 text$"):
                ingest_csv(broken)

    @pytest.mark.parametrize("block", [1, 20, 64, pmf._BLOCK])
    def test_label_ending_its_row_reads_like_row_loop(self, tmp_path, monkeypatch, block):
        # A label in the last column ends just before its block's line end,
        # so its 8-byte words read past the block; the last row has no line end.
        labels = ["a", "coastal", "new town", "metropolis"]
        lines = [f"2010,{m},{20000 + m},{m % 3},{labels[m % 4]}" for m in range(1, 13)]
        text = "year,month,price,quantity,city\r\n" + "\r\n".join(lines)
        path = write(tmp_path, text)
        loop = pmf._read_table(csv.reader(io.StringIO(text, newline="")), path)
        forbid_row_loop(monkeypatch)
        monkeypatch.setattr(pmf, "_BLOCK", block)
        table = ingest_csv(path)
        assert table.cities == loop.cities == ("coastal", "new town", "metropolis", "a")
        assert table_rows(table) == table_rows(loop)

    @staticmethod
    def several_blocks(tmp_path, first_price="20000"):
        """A plain file of four or more byte-pass blocks, with the price cell
        of its first row `first_price`, and its row count."""
        cities = ("metro", "coastal", "inland")
        rows = [
            f"{cities[i % 3]},{2010 + i % 2},{1 + i % 12},{1000 * (i % 97)},{i % 7}" for i in range(48_000)
        ]
        rows[0] = f"metro,2010,1,{first_price},5"
        path = write(tmp_path, "city,year,month,price,quantity\n" + "\n".join(rows) + "\n")
        assert path.stat().st_size > 4 * pmf._BLOCK
        return path, len(rows)

    def test_plain_file_of_several_blocks_bounds_peak_memory(self, tmp_path, monkeypatch):
        # The byte pass holds the file, the table's columns and one block's
        # temporaries, not masks and field bounds of the whole file.
        path, n_rows = self.several_blocks(tmp_path)
        forbid_row_loop(monkeypatch)
        tracemalloc.start()
        try:
            table = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == n_rows
        assert peak <= 6 * path.stat().st_size

    def test_rejected_cell_in_first_block_stops_byte_pass(self, tmp_path, monkeypatch):
        # The price column of the first block rejects `5.5`, so no later
        # block is parsed before the row loop reports the cell.
        path, n_rows = self.several_blocks(tmp_path, first_price="5.5")
        integers = pmf._integers
        sizes = []

        def spy(buf, first, *args, **kwargs):
            sizes.append(first.size)
            return integers(buf, first, *args, **kwargs)

        monkeypatch.setattr(pmf, "_integers", spy)
        with pytest.raises(ParseError, match=r"^non-integer price '5\.5', row 2$"):
            ingest_csv(path)
        # Year, month, then price, each over the first block's rows only.
        assert len(sizes) == 3 and len(set(sizes)) == 1
        assert 4 * sizes[0] < n_rows


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

    def test_period_key(self):
        rows = [("metro", 2010, 12, 5, 1), ("metro", 2011, 1, 5, 1), ("metro", -3, 7, 5, 1)]
        table = SalesTable.from_rows(rows)
        assert table.period.tolist() == [2010 * 12 + 12, 2011 * 12 + 1, -3 * 12 + 7]
        assert table.period is table.period
        with pytest.raises(ValueError):
            table.period[0] = 0


class TestPricePMF:
    def test_rejects_unsorted_support(self):
        with pytest.raises(ValidationError):
            PricePMF(np.array([2, 1]), np.array([1, 1]))

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValidationError):
            PricePMF(np.array([1, 1]), np.array([1, 1]))

    def test_rejects_bad_mass(self):
        # Masses in place of counts, and negative counts, fail in one line.
        for counts in ([0.5, 0.5], [0.6, 0.6], [1.2, -0.2], [3, -1]):
            with pytest.raises(ValidationError) as err:
                PricePMF(np.array([1, 2]), np.array(counts))
            assert len(str(err.value).splitlines()) == 1

    @pytest.mark.parametrize(
        "mass",
        [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0], [np.inf, np.nan], [1.0, -np.inf]],
    )
    def test_rejects_non_finite_mass(self, mass):
        with pytest.raises(ValidationError) as err:
            PricePMF(np.array([1, 2]), np.array(mass))
        assert len(str(err.value).splitlines()) == 1

    def test_rejects_bad_n(self):
        # The total is the counts' sum: none, a fraction, or past int64.
        with pytest.raises(EmptyDistributionError, match="^zero total quantity$"):
            PricePMF(np.array([1, 2]), np.array([0, 0]))
        with pytest.raises(ValidationError):
            PricePMF(np.array([1]), np.array([2.5]))
        with pytest.raises(ValidationError, match="int64 range"):
            PricePMF(np.array([1, 2]), np.array([2**62, 2**62]))

    def test_counts_roundtrip(self):
        pmf = PricePMF([10, 20, 30], [3, 0, 7])
        assert pmf.counts.tolist() == [3, 0, 7]
        assert pmf.n == 10
        assert pmf.mass.tolist() == [0.3, 0.0, 0.7]

    def test_immutable(self):
        pmf = PricePMF([10, 20], [1, 1])
        with pytest.raises(ValueError):
            pmf.mass[0] = 0.9
        with pytest.raises(ValueError):
            pmf.counts[0] = 2

    def test_first_common_spans_any_number_of_years(self):
        # Read from range ends and exclusions, so 10^17 years take no longer
        # than one; the excluded first month of the overlap is skipped.
        wide = PeriodFilter(include=(((0, 1), (10**17, 12)),), exclude=frozenset({(10**17, 1)}))
        assert wide.first_common(PeriodFilter(include=(((10**17, 1), (10**17, 2)),))) == (10**17, 2)
        assert wide.first_common(PeriodFilter(include=(((10**17, 1), (10**17, 1)),))) is None
        assert wide.first_common(PeriodFilter()) == (0, 1)

    def test_period_filter_validation(self):
        with pytest.raises(ValidationError):
            PeriodFilter(include=(((2011, 1), (2010, 1)),))
        with pytest.raises(ValidationError):
            PeriodFilter(exclude=frozenset({(2010, 13)}))
        with pytest.raises(ValidationError, match="month out of range"):
            PeriodFilter(include=(((2010, 0), (2010, 12)),))


#: Each value type that holds arrays, built from the caller's own arrays,
#: named by the attributes that hold them.
VALUE_TYPES = {
    "SalesTable": (
        lambda *columns: SalesTable(("metro",), *columns),
        {"city": [0, 0], "year": [2010, 2011], "month": [1, 2], "price": [5, 7], "quantity": [3, 4]},
    ),
    "PricePMF": (PricePMF, {"support": [1, 2], "counts": [1, 1]}),
    "WtpCurve": (WtpCurve, {"volumes": [0.0, 10.0], "values": [5.0, 0.0]}),
}


@pytest.mark.parametrize("kind", VALUE_TYPES)
def test_caller_arrays_stay_writeable(kind):
    # The value holds read-only arrays; the caller's own, of the held dtype
    # (int64 or float64), stay writeable.
    make, given = VALUE_TYPES[kind]
    arrays = {name: np.array(values) for name, values in given.items()}
    value = make(*arrays.values())
    for name, array in arrays.items():
        assert array.flags.writeable, name
        assert not getattr(value, name).flags.writeable, name
        assert getattr(value, name).tolist() == given[name]
