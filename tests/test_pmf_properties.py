"""Properties of the columnar sales table on random rows.

Rows come from a few cities, a small price lattice (so prices repeat within
and across cities) and quantities that are often zero.  Period filters mix
include ranges, exclusions inside and outside them, and no filter at all.
`build_pmf` must equal the dict-loop oracle bit for bit, and a CSV written
from the rows with blank lines, padded and quoted cells and integral floats
must ingest to the same columns as a plain `csv` loop reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diftrans.errors import EmptyDistributionError, ValidationError
from diftrans.pmf import PeriodFilter, SalesTable, build_pmf, ingest_csv

from _oracles import csv_rows, dict_loop_pmf, table_rows

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)
#: Each CSV example draws every cell's formatting, so fewer examples fit the same time.
CSV_PROPERTIES = settings(PROPERTIES, max_examples=60)

CITIES = ("metro", "coastal", "inland")
HEADER = "city,year,month,price,quantity\n"

periods = st.tuples(st.integers(2009, 2012), st.integers(1, 12))
rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(CITIES),
        st.integers(2009, 2012),
        st.integers(1, 12),
        st.integers(0, 30).map(lambda k: 1000 * k),
        st.integers(0, 4),
    ),
    max_size=40,
)


@st.composite
def period_filters(draw):
    if draw(st.booleans()):
        return None
    ranges = draw(st.lists(st.tuples(periods, periods).map(sorted).map(tuple), max_size=2))
    exclude = draw(st.frozensets(periods, max_size=4))
    return PeriodFilter(include=tuple(ranges), exclude=exclude)


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


@st.composite
def formatted_cell(draw, value):
    text = draw(st.sampled_from([str(value), f"{value}.0"])) if isinstance(value, int) else value
    text = draw(st.sampled_from(["", " ", "  "])) + text + draw(st.sampled_from(["", " "]))
    return f'"{text}"' if draw(st.booleans()) else text


BLANK_LINES = ("", "   ", ",,,,", " , ,")


@st.composite
def csv_files(draw):
    """(rows, file text, file line of each row) with blank lines interleaved."""
    rows = draw(rows_strategy)
    lines, rownums = [HEADER], []
    for row in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(BLANK_LINES)) + "\n")
        rownums.append(len(lines) + 1)
        lines.append(",".join(draw(formatted_cell(v)) for v in row) + "\n")
    return rows, "".join(lines), rownums


@CSV_PROPERTIES
@given(case=csv_files())
def test_ingest_matches_csv_loop(csv_path, case):
    rows, text, _ = case
    csv_path.write_text(text, encoding="utf-8")
    table = ingest_csv(csv_path)
    assert table_rows(table) == csv_rows(csv_path) == rows
    assert table.cities == tuple(dict.fromkeys(row[0] for row in rows))


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
