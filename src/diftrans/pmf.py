"""Discrete price distributions and ingestion of sales-record files."""

from __future__ import annotations

import array
import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDistributionError,
    ParseError,
    SchemaError,
    ValidationError,
)

#: Canonical column names; a schema maps these to the file's actual headers.
DEFAULT_SCHEMA = {
    "city": "city",
    "year": "year",
    "month": "month",
    "price": "price",
    "quantity": "quantity",
}

MASS_TOL = 1e-12

INT64_MAX = int(np.iinfo(np.int64).max)
#: Largest year magnitude whose period key `year * 12 + month` fits in int64.
MAX_YEAR = INT64_MAX // 12 - 1

_COLUMNS = ("city", "year", "month", "price", "quantity")


class _RowError(ValidationError):
    """Row `index` of a table breaks the field rule `rule`."""

    def __init__(self, rule: str, index: int):
        super().__init__(f"{rule}, index {index}")
        self.rule = rule
        self.index = index


@dataclass(frozen=True, eq=False)
class SalesTable:
    """City-month sales aggregates held as equal-length int64 columns.

    Row `i` records `quantity[i]` units sold at integer RMB `price[i]` in
    city `cities[city[i]]` during (`year[i]`, `month[i]`).  Zero quantities
    are kept.  The constructor holds the only rule per field: month in 1-12,
    price and quantity non-negative, and the year small enough that the
    period key `year * 12 + month` cannot wrap.
    """

    cities: tuple[str, ...]
    city: np.ndarray
    year: np.ndarray
    month: np.ndarray
    price: np.ndarray
    quantity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cities", tuple(self.cities))
        for name in _COLUMNS:
            # A view, so freezing it leaves the caller's own array writeable.
            column = np.asarray(getattr(self, name), dtype=np.int64).view()
            if column.ndim != 1 or column.shape != np.shape(self.city):
                raise ValidationError("table columns must be equal-length 1-D vectors")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if np.any((self.city < 0) | (self.city >= len(self.cities))):
            raise ValidationError("city code outside the label tuple")
        broken = {
            "month out of range": (self.month < 1) | (self.month > 12),
            "negative price": self.price < 0,
            "negative quantity": self.quantity < 0,
            "year out of range": (self.year < -MAX_YEAR) | (self.year > MAX_YEAR),
        }
        any_broken = np.logical_or.reduce(list(broken.values()))
        if any_broken.any():
            index = int(np.argmax(any_broken))
            raise _RowError(next(r for r, bad in broken.items() if bad[index]), index)
        # PMF counts are int64 sums of quantities, so the grand total must fit.
        n = len(self)
        if n and int(self.quantity.max()) > INT64_MAX // n:
            if sum(self.quantity.tolist()) > INT64_MAX:
                raise ValidationError("total quantity exceeds the int64 range")

    def __len__(self) -> int:
        return int(self.city.size)

    @classmethod
    def from_rows(cls, rows) -> "SalesTable":
        """Table of (city, year, month, price, quantity) tuples, in row order.

        City codes follow the order in which labels first appear.
        """
        rows = list(rows)
        cities = tuple(dict.fromkeys(row[0] for row in rows))
        code = {label: i for i, label in enumerate(cities)}
        numbers = np.array([row[1:] for row in rows], dtype=np.int64).reshape(len(rows), 4)
        return cls(cities, [code[row[0]] for row in rows], *numbers.T)

    def in_cities(self, *labels: str) -> np.ndarray:
        """Boolean mask of the rows whose city is one of `labels`."""
        hit = np.zeros(len(self.cities), dtype=bool)
        hit[[i for i, label in enumerate(self.cities) if label in labels]] = True
        return hit[self.city]


@dataclass(frozen=True)
class PeriodFilter:
    """Inclusive (year, month) ranges to keep, minus explicit exclusions.

    An empty `include` admits every period.  Exclusions may fall outside the
    include ranges; they are then inert.
    """

    include: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()
    exclude: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        for lo, hi in self.include:
            if not (1 <= lo[1] <= 12 and 1 <= hi[1] <= 12):
                raise ValidationError(f"month out of range in period range {lo}:{hi}")
            if lo > hi:
                raise ValidationError(f"empty period range {lo}:{hi}")
        for _, m in self.exclude:
            if not 1 <= m <= 12:
                raise ValidationError(f"month out of range in exclusion: {m}")

    def mask(self, year, month) -> np.ndarray:
        """Boolean mask of the (year, month) pairs the filter admits.

        Periods are compared by the key `year * 12 + month`, which orders them
        as (year, month) tuples do because every month lies in 1-12.
        """
        key = np.asarray(year, dtype=np.int64) * 12 + np.asarray(month, dtype=np.int64)
        if self.include:
            keep = np.zeros(key.shape, dtype=bool)
            for (ly, lm), (hy, hm) in self.include:
                keep |= (key >= ly * 12 + lm) & (key <= hy * 12 + hm)
        else:
            keep = np.ones(key.shape, dtype=bool)
        if self.exclude:
            keep &= ~np.isin(key, [y * 12 + m for y, m in self.exclude])
        return keep


@dataclass(frozen=True, eq=False)
class PricePMF:
    """Probability mass function over a sorted integer price support.

    `mass[i]` is the exact ratio units-at-price / total-units evaluated in
    double precision, and `n` is the total unit count behind the distribution.
    """

    support: np.ndarray
    mass: np.ndarray
    n: int

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)
        if support.ndim != 1 or mass.shape != support.shape or support.size == 0:
            raise ValidationError("support and mass must be equal-length 1-D vectors")
        if np.any(support < 0):
            raise ValidationError("negative price in support")
        if np.any(np.diff(support) <= 0):
            raise ValidationError("support must be strictly increasing")
        if np.any(mass < 0):
            raise ValidationError("negative mass entry")
        total = float(np.sum(mass))
        # Written so that a NaN or infinite mass, whose sum is not finite, fails too.
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValidationError(f"mass sums to {total!r}, not 1")
        if not isinstance(self.n, (int, np.integer)) or self.n <= 0:
            raise ValidationError(f"sample size must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        support.flags.writeable = False
        mass.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, PricePMF):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.support, other.support)
            and np.array_equal(self.mass, other.mass)
        )

    def __len__(self) -> int:
        return int(self.support.size)

    @classmethod
    def from_counts(cls, support, counts) -> "PricePMF":
        """Build a PMF from integer unit counts on a sorted support."""
        counts = np.asarray(counts, dtype=np.int64)
        if np.any(counts < 0):
            raise ValidationError("negative count")
        total = int(counts.sum())
        if total <= 0:
            raise EmptyDistributionError("zero total quantity")
        return cls(np.asarray(support, dtype=np.int64), counts / total, total)

    def counts(self) -> np.ndarray:
        """Recover integer unit counts (mass * n, validated to be integral)."""
        raw = self.mass * self.n
        counts = np.rint(raw).astype(np.int64)
        if np.max(np.abs(raw - counts)) > 1e-6 or int(counts.sum()) != self.n:
            raise ValidationError("mass vector is not n-fold integral; cannot recover counts")
        return counts

    def span(self) -> int:
        return int(self.support[-1] - self.support[0])


def _parse_int(value: str, name: str, row: int) -> int:
    text = value.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        as_float = float(text)
    except ValueError:
        raise ParseError(f"non-numeric {name} {value!r}, row {row}") from None
    if not as_float.is_integer():
        raise ParseError(f"non-integer {name} {value!r}, row {row}")
    return int(as_float)


def ingest_csv(path, schema: dict | None = None) -> SalesTable:
    """Read a sales CSV into a table, one row per data row (zero quantities kept).

    `schema` maps the canonical names city/year/month/price/quantity to the
    file's column headers; omitted keys fall back to the canonical name.
    Blank rows are skipped.  Row numbers in error messages are 1-based file
    lines (header is row 1).

    The file is read once as bytes and decoded once.  A file without a double
    quote is first parsed by `_parse_plain`, a numpy pass over its bytes that
    reads only what it can read exactly as the `csv` row loop does: rows of
    exactly the header's width between empty or non-empty line ends (LF,
    CRLF or a lone CR), integer cells matching `[ \t]*-?[0-9]{1,18}[ \t]*`,
    and no NUL byte.  Anything else, or columns the table's field rules
    reject, sends the decoded text to the row loop.  Only the loop reports
    errors, so the path taken changes the speed, never the table or the
    message.  A file rejected late in the body (say, one `.0` cell in its
    last row) pays for both passes.
    """
    columns = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
        columns.update(schema)

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    table = None if b'"' in data else _parse_plain(data, text, columns)
    if table is None:
        table = _read_table(csv.reader(io.StringIO(text, newline="")), columns, path)
    return table


def _locate(header: list[str], columns: dict) -> dict[str, int]:
    """Index of each canonical column in the header row (cells stripped)."""
    header = [h.strip() for h in header]
    for col in columns.values():
        if col not in header:
            raise SchemaError(f"missing column {col!r}")
    return {key: header.index(col) for key, col in columns.items()}


#: Byte values the quote-free parser looks for.
_LF, _CR, _COMMA, _MINUS, _ZERO, _SPACE, _TAB = b"\n\r,-0 \t"
#: Masks keeping the first k bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _parse_plain(data: bytes, text: str, columns: dict) -> SalesTable | None:
    """Table of quote-free CSV bytes, or None when the row loop must read `text`."""
    breaks = [i for i in (text.find("\n"), text.find("\r")) if i >= 0]
    header = next(csv.reader([text[: min(breaks, default=len(text))]]), [])
    try:
        index = _locate(header, columns)
    except SchemaError:
        return None
    numeric = [index[key] for key in _COLUMNS[1:]]
    # A column parsed as integers cannot also give the city labels, and a NUL
    # in a label would read as the padding of the fixed-width label bytes.
    if index["city"] in numeric or b"\0" in data:
        return None
    width = len(header)

    # One final line end, so every row ends in one; then drop each line end
    # that follows another (an empty line, or the LF of a CRLF) as `csv` does.
    buf = np.frombuffer(data.rstrip(b"\r\n") + b"\n", np.uint8)
    eol = (buf == _LF) | (buf == _CR)
    repeat = eol[1:] & eol[:-1]
    if repeat.any():
        keep = np.concatenate(([True], ~repeat))
        buf, eol = buf[keep], eol[keep]

    # The header holds width - 1 commas, and so must every row after it; then
    # row r of `bounds` holds the delimiters ending the fields of file line r.
    bounds = np.flatnonzero(eol | (buf == _COMMA))
    rows = int(np.count_nonzero(eol)) - 1
    if bounds.size != (rows + 1) * width:
        return None
    bounds = bounds.reshape(rows + 1, width)
    if not eol[bounds[:, -1]].all():
        return None
    if not rows:
        return SalesTable.from_rows([])

    def field(i):
        """(first, last) byte of field `i` of every row, as new arrays."""
        before = bounds[1:, i - 1] if i else bounds[:-1, -1]
        return before + 1, bounds[1:, i] - 1

    numbers = []
    for i in numeric:
        column = _integers(buf, *field(i))
        if column is None:
            return None
        numbers.append(column)
    cities, city = _code_labels(buf, *field(index["city"]))
    try:
        return SalesTable(cities, city, *numbers)
    except ValidationError:
        return None


def _integers(buf: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray | None:
    """Values of the fields from byte `first` to byte `last`, or None unless
    every field matches `[ \t]*-?[0-9]{1,18}[ \t]*` (and so has the value
    `int()` gives it).  The bound arrays are trimmed in place.

    A field's own delimiters stop both trimming walks, so an all-blank field
    is left with a length below one.
    """
    lead, tail = buf[first], buf[last]
    while (pad := (lead == _SPACE) | (lead == _TAB)).any():
        first += pad
        lead = buf[first]
    while (pad := (tail == _SPACE) | (tail == _TAB)).any():
        last -= pad
        tail = buf[last]
    negative = lead == _MINUS
    first += negative
    length = last - first + 1
    shortest, longest = int(length.min()), int(length.max())
    if shortest < 1 or longest > 18:
        return None
    # Horner's rule over the fields aligned at their right ends: a shorter
    # field reads zeros where it has no digit yet.
    value = np.zeros(length.size, dtype=np.int64)
    at = last - (longest - 1)
    for left in range(longest - 1, -1, -1):
        digit = buf[at] - np.uint8(_ZERO)
        if left >= shortest:
            digit[length <= left] = 0
        if digit.max() > 9:
            return None
        value *= 10
        value += digit
        at += 1
    return np.negative(value, out=value, where=negative)


def _code_labels(buf: np.ndarray, first: np.ndarray, last: np.ndarray):
    """(labels, codes) of the fields from byte `first` to byte `last`,
    stripped as the row loop strips them and coded in order of first appearance.

    Each field is read as NUL-padded little-endian 8-byte words, so rows of
    one raw label compare equal; runs of equal rows are made unique and each
    distinct raw label is decoded once.
    """
    length = last - first + 1
    n_words = max(-(-int(length.max()) // 8), 1)
    padded = np.concatenate((buf, np.zeros(8 * n_words, dtype=np.uint8)))
    # The word starting at each byte offset (a view; offsets need no alignment).
    word_at = np.ndarray((padded.size - 7,), dtype="<u8", buffer=padded, strides=(1,))
    words = np.empty((length.size, n_words), dtype="<u8")
    new_run = np.zeros(length.size, dtype=bool)
    new_run[0] = True
    for j, word in enumerate(words.T):
        low_bytes = _LOW_BYTES[np.clip(length - 8 * j, 0, 8)]
        np.bitwise_and(word_at[first + 8 * j], low_bytes, out=word)
        new_run[1:] |= word[1:] != word[:-1]
    runs = np.flatnonzero(new_run)
    raw, seen, inverse = np.unique(
        words[runs].view(f"S{8 * n_words}").ravel(), return_index=True, return_inverse=True
    )
    codes: dict[str, int] = {}
    code_of = np.empty(raw.size, dtype=np.int64)
    for u in np.argsort(seen):
        code_of[u] = codes.setdefault(raw[u].decode("utf-8").strip(), len(codes))
    return tuple(codes), np.repeat(code_of[inverse], np.diff(runs, append=length.size))


def _read_table(reader, columns: dict, path) -> SalesTable:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row") from None
    index = _locate(header, columns)
    width = len(header)
    ic, iy, im, ip, iq = (index[key] for key in _COLUMNS)

    # Each row goes straight into int64 buffers, so no per-row object outlives
    # its iteration; `skipped` maps a table index back to its file row.
    codes: dict[str, int] = {}
    city, year, month, price, quantity = (array.array("q") for _ in _COLUMNS)
    skipped = []
    for rownum, row in enumerate(reader, start=2):
        if not "".join(row).strip():
            skipped.append(rownum)
            continue
        if len(row) < width:
            raise ParseError(f"short row, row {rownum}")
        try:
            y, m, p, q = int(row[iy]), int(row[im]), int(row[ip]), int(row[iq])
        except ValueError:
            y, m, p, q = (_parse_int(row[index[key]], key, rownum) for key in _COLUMNS[1:])
        try:
            year.append(y)
            month.append(m)
            price.append(p)
            quantity.append(q)
        except OverflowError:
            raise ParseError(f"integer outside the int64 range, row {rownum}") from None
        city.append(codes.setdefault(row[ic].strip(), len(codes)))

    try:
        return SalesTable(tuple(codes), city, year, month, price, quantity)
    except _RowError as exc:
        raise ValidationError(f"{exc.rule}, row {_file_row(exc.index, skipped)}") from None


def _file_row(index: int, skipped: list[int]) -> int:
    """File row of table row `index`, given the ascending skipped file rows."""
    row = index + 2
    for blank in skipped:
        if blank > row:
            break
        row += 1
    return row


def build_pmf(
    table: SalesTable,
    city: str,
    period_filter: PeriodFilter | None = None,
) -> PricePMF:
    """Aggregate the table rows of `city` in the admitted periods into a price PMF.

    The support is the set of distinct matching prices in ascending order
    (prices whose units sum to zero included) and each mass is
    quantity-at-price divided by total quantity, so normalization is exact.
    No binning or rounding is applied.
    """
    keep = table.in_cities(city)
    if period_filter is not None:
        keep &= period_filter.mask(table.year, table.month)
    support, group = np.unique(table.price[keep], return_inverse=True)
    counts = np.zeros(support.size, dtype=np.int64)
    np.add.at(counts, group, table.quantity[keep])
    grand_total = int(counts.sum())
    if grand_total == 0:
        raise EmptyDistributionError(
            f"no units for city {city!r} in the requested periods"
        )
    return PricePMF(support, counts / grand_total, grand_total)
