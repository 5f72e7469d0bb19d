"""Properties of the columnar sales table on random rows.

Rows come from a few cities, a small price lattice (so prices repeat within
and across cities) and quantities that are often zero.  Period filters mix
include ranges, exclusions inside and outside them, and no filter at all.
`build_pmf` must equal the dict-loop oracle bit for bit, for one city or a
pooled set of them, whose counts are the sums of its cities' counts.  The
earliest month two filters both admit must be the one a walk over every
month finds.  A CSV
written from the rows with blank lines, padded and quoted cells and integral
floats must ingest to the same columns as a plain `csv` loop reads.  Plain files
with rows (unquoted integer cells, empty lines, any line ending) must take
the byte-level path and read the same; odd cells and lines at that path's
boundary, and any one-character edit of a plain file, must give the row
loop's table or its exact error.  A plain file either holds no space or tab
at all or may pad its cells and hold a label with an inner space, and either
holds no `-` at all or may hold negative years and `-0` cells, so the byte
pass runs with and without its blank walks and its sign pass.  These files
are read in blocks of a few bytes as well as in one, so block edges fall
after every kind of line end and blank line, before a last line without a
line end, and between a label's rows; a file's last line may lack its line
end.
"""

import contextlib
import csv
import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans import pmf
from diftrans.errors import EmptyDistributionError, ParseError, ValidationError
from diftrans.pmf import PeriodFilter, SalesTable, build_pmf, ingest_csv

from _oracles import admits, csv_rows, dict_loop_pmf, table_rows

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)
#: Each CSV example draws every cell's formatting, so fewer examples fit the same time.
CSV_PROPERTIES = settings(PROPERTIES, max_examples=60)

CITIES = ("metro", "coastal", "inland")
HEADER = "city,year,month,price,quantity"

YEARS = st.integers(2009, 2012)
periods = st.tuples(YEARS, st.integers(1, 12))


def sales_rows(cities=CITIES, years=YEARS):
    return st.lists(
        st.tuples(
            st.sampled_from(cities),
            years,
            st.integers(1, 12),
            st.integers(0, 30).map(lambda k: 1000 * k),
            st.integers(0, 4),
        ),
        max_size=40,
    )


rows_strategy = sales_rows()
#: Plain-file rows that put a space byte in the file, or a `-` byte.
SPACED_CITIES = CITIES + ("new town",)
SIGNED_YEARS = st.integers(-2012, 2012)


@st.composite
def period_filters(draw):
    if draw(st.booleans()):
        return None
    ranges = draw(st.lists(st.tuples(periods, periods).map(sorted).map(tuple), max_size=2))
    exclude = draw(st.frozensets(periods, max_size=4))
    return PeriodFilter(include=tuple(ranges), exclude=exclude)


#: The months of 2010 and 2011, as (year, month).
MONTHS = [(year, month) for year in (2010, 2011) for month in range(1, 13)]


@st.composite
def overlapping_filters(draw):
    """A filter of up to two ranges in `MONTHS`, which excludes a run of
    consecutive months and a few more, so exclusions often cover the start
    of an overlap."""
    month = st.sampled_from(range(len(MONTHS)))
    ranges = draw(st.lists(st.tuples(month, month).map(sorted), max_size=2))
    start, length = draw(month), draw(st.integers(0, 5))
    excluded = {*range(start, start + length), *draw(st.sets(month, max_size=3))}
    return PeriodFilter(
        include=tuple((MONTHS[lo], MONTHS[hi]) for lo, hi in ranges),
        exclude=frozenset(MONTHS[i] for i in excluded if i < len(MONTHS)),
    )


@settings(PROPERTIES, max_examples=60)
@given(first=overlapping_filters(), second=overlapping_filters())
def test_first_common_month_matches_enumeration(first, second):
    got = first.first_common(second)
    if not (first.include or second.include):
        # Both admit every period, and every exclusion lies in 2010-2011.
        assert got == (-pmf.MAX_YEAR, 1)
        return
    assert got == next((ym for ym in MONTHS if admits(first, *ym) and admits(second, *ym)), None)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """One file that each example overwrites."""
    return tmp_path_factory.mktemp("sales") / "sales.csv"


def pmf_or_empty(build, *args):
    try:
        return build(*args)
    except EmptyDistributionError:
        return "empty"


@PROPERTIES
@given(rows=rows_strategy, city=st.sampled_from(CITIES + ("nowhere",)), filt=period_filters())
def test_build_pmf_matches_dict_loop(rows, city, filt):
    table = SalesTable.from_rows(rows)
    got = pmf_or_empty(build_pmf, table, city, filt)
    want = pmf_or_empty(dict_loop_pmf, rows, city, filt)
    if want == "empty":
        assert got == "empty"
        return
    assert got.support.tolist() == want.support.tolist()
    assert got.mass.tobytes() == want.mass.tobytes()
    assert got.n == want.n


@PROPERTIES
@given(
    rows=rows_strategy,
    labels=st.lists(st.sampled_from(CITIES + ("nowhere",)), max_size=4).map(tuple),
    filt=period_filters(),
)
def test_pooled_pmf_matches_dict_loop_and_sums_its_cities(rows, labels, filt):
    # Labels repeat, miss the table or are absent; an empty set has no units.
    table = SalesTable.from_rows(rows)
    got = pmf_or_empty(build_pmf, table, labels, filt)
    want = pmf_or_empty(dict_loop_pmf, rows, labels, filt)
    if want == "empty":
        assert got == "empty"
        return
    assert got.support.tolist() == want.support.tolist()
    assert got.mass.tobytes() == want.mass.tobytes()
    assert got.n == want.n
    summed = dict.fromkeys(got.support.tolist(), 0)
    for label in set(labels):
        city = pmf_or_empty(build_pmf, table, label, filt)
        if city != "empty":
            for price, count in zip(city.support.tolist(), city.counts.tolist()):
                summed[price] += count
    assert got.counts.tolist() == list(summed.values())


@st.composite
def formatted_cell(draw, value, plain=False, padded=True, signs=False):
    text = str(value)
    if isinstance(value, int) and not plain:
        text = draw(st.sampled_from([text, f"{value}.0"]))
    if signs and value == 0:
        text = draw(st.sampled_from([text, "-0"]))
    if not padded:
        return text
    text = draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " "]))
    if plain:
        return draw(st.sampled_from(["", "\t"])) + text
    return f'"{text}"' if draw(st.booleans()) else text


BLANK_LINES = ("", "   ", ",,,,", " , ,")


@st.composite
def csv_files(draw, plain=False):
    """(rows, file text, file line of each row) with blank lines interleaved.

    A plain file has unquoted integer cells, only empty blank lines and a
    drawn line ending; otherwise every line ends in LF.  Whether a plain
    file may hold blanks, and whether it may hold signs, is drawn per file.
    """
    padded, signs = True, False
    if plain:
        padded, signs = draw(st.booleans()), draw(st.booleans())
        rows = draw(sales_rows(SPACED_CITIES if padded else CITIES, SIGNED_YEARS if signs else YEARS))
    else:
        rows = draw(rows_strategy)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"])) if plain else "\n"
    blanks = ("",) if plain else BLANK_LINES
    lines, rownums = [HEADER + newline], []
    for row in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(blanks)) + newline)
        rownums.append(len(lines) + 1)
        lines.append(",".join(draw(formatted_cell(v, plain, padded, signs)) for v in row) + newline)
    text = "".join(lines)
    # The last line may lack its line end.
    return rows, text.removesuffix(newline) if draw(st.booleans()) else text, rownums


#: The byte pass's block size: a few bytes put block edges after every kind
#: of line end and blank line, before a last line without a line end, and
#: before a label's first row; the real size reads these files in one block.
BLOCKS = st.one_of(st.integers(1, 40), st.just(pmf._BLOCK))


@CSV_PROPERTIES
@given(case=csv_files(), block=BLOCKS)
def test_ingest_matches_csv_loop(csv_path, case, block):
    rows, text, _ = case
    csv_path.write_text(text, encoding="utf-8")
    with mock.patch.object(pmf, "_BLOCK", block):
        table = ingest_csv(csv_path)
    assert table_rows(table) == csv_rows(csv_path) == rows
    assert table.cities == tuple(dict.fromkeys(row[0] for row in rows))


@CSV_PROPERTIES
@given(case=csv_files(plain=True), block=BLOCKS)
def test_plain_file_skips_row_loop(csv_path, case, block):
    rows, text, _ = case
    csv_path.write_text(text, encoding="utf-8", newline="")
    # A body without rows may take either path.
    row_loop = mock.patch.object(pmf, "_read_table", side_effect=AssertionError("row loop ran"))
    with mock.patch.object(pmf, "_BLOCK", block), row_loop if rows else contextlib.nullcontext():
        table = ingest_csv(csv_path)
    assert table_rows(table) == csv_rows(csv_path) == rows
    assert table.cities == tuple(dict.fromkeys(row[0] for row in rows))


INT64_PAST = 2**63

#: Line 4 of a file after one good row and an empty line -> None when the file
#: must read as `csv_rows` does, else the row loop's error type and message.
BOUNDARY_LINES = {
    "whitespace": ("  \t ", None),
    "commas": (",,,,", None),
    "extra column": ("metro,2010,1,5,4,9", None),
    "short row": ("metro,2010,1,5", (ParseError, "short row, row 4")),
    "hash city": ("#north,2010,1,5,4", None),
    "quoted city": ('"north",2010,1,5,4', None),
    "quoted comma": ('"north, east",2010,1,5,4', None),
    "underscore": ("metro,2010,1,1_000,4", None),
    "arabic digit": ("metro,2010,1,\u0663,4", None),
    "integral float": ("metro,2010,1,5.0,4", None),
    "empty cell": ("metro,2010,1,,4", (ParseError, "non-numeric price '', row 4")),
    "int64 max": (f"metro,2010,1,{INT64_PAST - 1},4", None),
    "past int64": (
        f"metro,2010,1,{INT64_PAST},4",
        (ParseError, "integer outside the int64 range, row 4"),
    ),
    "below int64": (
        f"metro,{-INT64_PAST - 1},1,5,4",
        (ParseError, "integer outside the int64 range, row 4"),
    ),
    "bad month": ("metro,2010,0,5,4", (ValidationError, "month out of range, row 4")),
    "plus sign": ("metro,2010,1,+5,4", None),
    "lone minus": ("metro,2010,1,-,4", (ParseError, "non-numeric price '-', row 4")),
    "spaced minus": ("metro,2010,1,- 5,4", (ParseError, "non-numeric price '- 5', row 4")),
    "18 digits": (f"metro,2010,1,{10**18 - 1},4", None),
    "19 digits": (f"metro,2010,1,{10**18},4", None),
    "non-ASCII city": ("\u5317\u4eac,2010,1,5,4", None),
    "NUL in city": ("metro\x00,2010,1,5,4", None),
    "padded city": (" metro\t,2010,1,6,4", None),
    # Their commas add up to two full rows, but not row by row.
    "short then long": ("metro,2010,1,5\n7,2010,1,5,4,9", (ParseError, "short row, row 4")),
}
# Each line above ends in a line end; the file's last row may lack one.
BOUNDARY_LINES = {name: (line + "\n", error) for name, (line, error) in BOUNDARY_LINES.items()}
BOUNDARY_LINES["no line end"] = ("coastal,2011,2,6,3", None)


@pytest.mark.parametrize("line, error", BOUNDARY_LINES.values(), ids=BOUNDARY_LINES.keys())
def test_boundary_line_reads_like_row_loop(tmp_path, line, error):
    path = tmp_path / "sales.csv"
    path.write_text(f"{HEADER}\nmetro,2010,1,5,4\n\n{line}", encoding="utf-8")
    if error is None:
        table, rows = ingest_csv(path), csv_rows(path)
        assert table_rows(table) == rows
        # Labels equal once stripped share one code.
        assert table.cities == tuple(dict.fromkeys(row[0] for row in rows))
    else:
        kind, message = error
        with pytest.raises(kind) as info:
            ingest_csv(path)
        assert str(info.value) == message


#: Field -> (out-of-rule values, the rule's message).
BAD_VALUES = {
    "month": ((0, 13), "month out of range"),
    "price": ((-1000,), "negative price"),
    "quantity": ((-1,), "negative quantity"),
}


@CSV_PROPERTIES
@given(case=csv_files(), data=st.data())
def test_bad_value_names_file_row(csv_path, case, data):
    rows, text, rownums = case
    if not rows:
        return
    target = data.draw(st.integers(0, len(rows) - 1))
    field = data.draw(st.sampled_from(sorted(BAD_VALUES)))
    values, rule = BAD_VALUES[field]
    bad = data.draw(st.sampled_from(values))
    lines = text.split("\n")
    cells = lines[rownums[target] - 1].split(",")
    cells[("city", "year", "month", "price", "quantity").index(field)] = str(bad)
    lines[rownums[target] - 1] = ",".join(cells)
    csv_path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{rule}, row {rownums[target]}$"):
        ingest_csv(csv_path)


#: Characters at the byte-level path's boundary: signs, separators, the
#: padding it trims and a blank (`\v`) that only `int()` strips, line ends,
#: NUL and non-ASCII letters and digits.
EDIT_CHARACTERS = "0123456789-+._ \t\v,\r\n\x00\u00e9\u5317\u0663"


def outcome(read):
    """(labels, rows) of the table `read` returns, or its error's type and message."""
    try:
        table = read()
    except Exception as exc:
        return type(exc), str(exc)
    return table.cities, table_rows(table)


@CSV_PROPERTIES
@given(case=csv_files(plain=True), block=BLOCKS, data=st.data())
def test_one_character_edit_reads_like_row_loop(csv_path, case, block, data):
    _, text, _ = case
    at = data.draw(st.integers(0, len(text)))
    replace = at < len(text) and data.draw(st.booleans())
    text = text[:at] + data.draw(st.sampled_from(EDIT_CHARACTERS)) + text[at + replace :]
    csv_path.write_text(text, encoding="utf-8", newline="")
    reader = csv.reader(io.StringIO(text, newline=""))
    want = outcome(lambda: pmf._read_table(reader, csv_path))
    with mock.patch.object(pmf, "_BLOCK", block):
        assert outcome(lambda: ingest_csv(csv_path)) == want
