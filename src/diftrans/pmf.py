"""Discrete price distributions and ingestion of sales-record files."""

from __future__ import annotations

import array
import codecs
import csv
import functools
import io
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDistributionError,
    ParseError,
    SchemaError,
    ValidationError,
)

INT64_MAX = int(np.iinfo(np.int64).max)
#: Largest year magnitude whose period key `year * 12 + month` fits in int64.
MAX_YEAR = INT64_MAX // 12 - 1

#: The header names of a sales file, fixed, in the order of `SalesTable`'s columns.
_COLUMNS = ("city", "year", "month", "price", "quantity")


def _read_only(values, dtype) -> np.ndarray:
    """A read-only view of `values` as a `dtype` array.  Every array that a
    value type holds is one; a view leaves the caller's own array writeable."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


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
    period key `year * 12 + month` cannot wrap.  That key is computed once,
    when first read, as the `period` column every `PeriodFilter.mask` of the
    table takes.
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
            column = _read_only(getattr(self, name), np.int64)
            if column.ndim != 1 or column.shape != np.shape(self.city):
                raise ValidationError("table columns must be equal-length 1-D vectors")
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

    @functools.cached_property
    def period(self) -> np.ndarray:
        """Read-only period key `year * 12 + month` of every row."""
        return _read_only(self.year * 12 + self.month, np.int64)

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
        """Boolean mask of the rows whose city is one of `labels`; a label the
        table lacks matches none.  Codes are compared once per label held."""
        codes = [code for code, label in enumerate(self.cities) if label in labels]
        keep = self.city == (codes[0] if codes else -1)
        for code in codes[1:]:
            keep |= self.city == code
        return keep


@dataclass(frozen=True)
class PeriodFilter:
    """Inclusive (year, month) ranges to keep, minus explicit exclusions.

    An empty `include` admits every period.  Exclusions may fall outside the
    include ranges; they are then inert.  `mask` reads periods as keys
    `year * 12 + month`, so a table's rows are masked from its `period`
    column, computed once however many filters read it.
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

    def mask(self, period) -> np.ndarray:
        """Boolean mask of the periods the filter admits.

        `period` holds each period as its key `year * 12 + month`, such as a
        table's `SalesTable.period` column.  The key orders periods as
        (year, month) tuples do because every month lies in 1-12, so each
        include range is two comparisons with the keys of its ends.
        """
        key = np.asarray(period, dtype=np.int64)
        if self.include:
            keep = np.zeros(key.shape, dtype=bool)
            for (ly, lm), (hy, hm) in self.include:
                keep |= (key >= ly * 12 + lm) & (key <= hy * 12 + hm)
        else:
            keep = np.ones(key.shape, dtype=bool)
        if self.exclude:
            keep &= ~np.isin(key, [y * 12 + m for y, m in self.exclude])
        return keep

    def first_common(self, other: PeriodFilter) -> tuple[int, int] | None:
        """The earliest (year, month) that both filters admit, or None.

        Read from range ends and exclusions, never month by month: in the
        overlap of two include ranges, every month before the first common
        one is excluded, so each overlap takes one step per exclusion at
        most.  An empty `include` stands for every year a table can hold."""
        every = (((-MAX_YEAR, 1), (MAX_YEAR, 12)),)
        excluded = {y * 12 + m for y, m in self.exclude | other.exclude}
        keys = []
        for lo, hi in self.include or every:
            for other_lo, other_hi in other.include or every:
                (ly, lm), (hy, hm) = max(lo, other_lo), min(hi, other_hi)
                key = ly * 12 + lm
                while key in excluded:
                    key += 1
                keys += [key] if key <= hy * 12 + hm else []
        if not keys:
            return None
        year, month = divmod(min(keys) - 1, 12)
        return year, month + 1


@dataclass(frozen=True, eq=False)
class PricePMF:
    """Unit counts over a sorted integer price support.

    `counts[i]` units sold at price `support[i]`; `n` is their total, and
    `mass` the probabilities `counts / n`, read by the placebo's resamples
    and by callers that want them.  Transport costs are computed from the
    counts themselves (see `transport`).
    """

    support: np.ndarray
    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        support = _read_only(self.support, np.int64)
        counts = np.asarray(self.counts)
        if counts.dtype.kind not in "iu":
            raise ValidationError(f"counts must be integers, got {counts.dtype} values")
        # A copy, so that no later write to the caller's array moves `n` or `mass`.
        counts = _read_only(counts.astype(np.int64), np.int64)
        if support.ndim != 1 or counts.shape != support.shape or support.size == 0:
            raise ValidationError("support and counts must be equal-length 1-D vectors")
        if np.any(support < 0):
            raise ValidationError("negative price in support")
        if np.any(np.diff(support) <= 0):
            raise ValidationError("support must be strictly increasing")
        if np.any(counts < 0):
            raise ValidationError("negative count")
        if int(counts.max()) > INT64_MAX // counts.size and sum(counts.tolist()) > INT64_MAX:
            raise ValidationError("total count exceeds the int64 range")
        n = int(counts.sum())
        if n == 0:
            raise EmptyDistributionError("zero total quantity")
        for name, value in (("support", support), ("counts", counts), ("n", n)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, PricePMF):
            return NotImplemented
        return np.array_equal(self.support, other.support) and np.array_equal(
            self.counts, other.counts
        )

    def __len__(self) -> int:
        return int(self.support.size)

    @functools.cached_property
    def mass(self) -> np.ndarray:
        """Read-only probabilities `counts / n`."""
        return _read_only(self.counts / self.n, np.float64)


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


def ingest_csv(path) -> SalesTable:
    """Read a sales CSV into a table, one row per data row (zero quantities kept).

    The header names the columns city, year, month, price and quantity, in
    any order and among any others; these five names are fixed.  Blank rows
    are skipped.  Row numbers in error messages are 1-based file lines
    (header is row 1).  A leading UTF-8 byte-order mark, as spreadsheet
    programs write, is no part of the first header name.  `path` names the
    file, or is a binary file object, read from where it stands to its end;
    messages then name the object's `name`.  A caller that must know which
    bytes were parsed (say, to record their digest, as the CLI does) reads
    them first and passes them as an `io.BytesIO`.

    The file is read once as bytes.  A file without a double quote is first
    parsed by `_parse_plain`, a numpy pass over its bytes that reads only
    what it can read exactly as the `csv` row loop does: rows of exactly the
    header's width between empty or non-empty line ends (LF, CRLF or a lone
    CR), integer cells matching `[ \t]*-?[0-9]{1,18}[ \t]*`, city labels
    short enough that their fixed-width words take no more bytes than their
    block, and no NUL byte.  It walks the bytes in blocks of about `_BLOCK`
    bytes, each ending after a whole run of line ends, and writes each
    block's rows into the table's columns, so its temporaries are a few
    times one block, not the file.  It checks once that a file holding a
    non-ASCII byte is UTF-8 text, then decodes only the header and each
    distinct label.  Anything else, in any block, or columns the table's
    field rules reject, send the file to the row loop, which decodes the
    whole text and reads fields of any length.  Only
    the loop reports errors, so the path taken changes the speed, never the
    table or the message.  A file the byte pass rejects pays, before the row
    loop, for its blocks up to the one that rejects it, and in that block
    for every numeric column up to the one that rejects it (say, one `.0`
    price).  The byte pass trims blanks around integer cells only in a file
    that holds a space or tab byte, and reads signs only in one that holds a
    `-`, since neither step can change a cell of any other file.
    """
    data, path = _read_bytes(path)
    data = data.removeprefix(codecs.BOM_UTF8)
    table = None if b'"' in data else _parse_plain(data)
    if table is not None:
        return table
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None
    # No field is longer than the text, so `csv` reads every field the byte pass does.
    limit = csv.field_size_limit(max(len(text), csv.field_size_limit()))
    try:
        return _read_table(csv.reader(io.StringIO(text, newline="")), path)
    finally:
        csv.field_size_limit(limit)


def _read_bytes(path) -> tuple[bytes, object]:
    """The bytes of the file `path`, or of the binary file object `path`
    from where it stands to its end, and the name that messages give them:
    `path`, or the object's `name`."""
    if hasattr(path, "read"):
        return path.read(), getattr(path, "name", path)
    with open(path, "rb") as fh:
        return fh.read(), path


def _csv_rows(reader, path):
    """The rows of a `csv` reader; a `csv.Error` becomes a one-line `ParseError`."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}, row {reader.line_num}") from None


def _locate(header: list[str]) -> dict[str, int]:
    """Index of each of `_COLUMNS` in the header row (cells stripped)."""
    header = [h.strip() for h in header]
    for col in _COLUMNS:
        if col not in header:
            raise SchemaError(f"missing column {col!r}")
    return {col: header.index(col) for col in _COLUMNS}


#: Byte values the quote-free parser looks for.
_LF, _CR, _COMMA, _MINUS, _ZERO, _SPACE, _TAB = b"\n\r,-0 \t"
#: Masks keeping the first k bytes of a little-endian 8-byte word.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: Bytes per block of the byte pass, before the block runs on to the end of
#: its last line.  Ingest of the fine bench market (1.9 MB, 80,688 rows;
#: numpy 2.4, one Xeon core, min of 30 warm calls) took 8.0 ms with 256 KiB
#: blocks and peaked at 3.6x the file under `tracemalloc` (11.5x in one
#: whole-file pass); 64 KiB blocks took 11.2 ms in numpy call overhead, and
#: 1 MiB blocks 12.3 ms with 2,815 page faults per warm call against none.
_BLOCK = 1 << 18
#: A run of line ends, which `csv` reads as one line end and empty lines.
_LINE_ENDS = re.compile(rb"[\r\n]+")
#: Bytes past its end that every block can read: a label's last 8-byte word
#: may reach up to 7 bytes past the line end that follows it.
_LOOKAHEAD = 8


def _parse_plain(data: bytes) -> SalesTable | None:
    """Table of quote-free CSV bytes, or None when the row loop must read them."""
    # Commas and line ends are ASCII, so every cell of UTF-8 text decodes.
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    head = _LINE_ENDS.search(data)
    stop, body = head.span() if head else (len(data), len(data))
    try:
        # A line without quotes is its cells between commas, as `csv` reads it.
        header = data[:stop].decode("utf-8").split(",")
        index = _locate(header)
    except SchemaError:
        return None
    # A NUL in a label would read as the padding of the fixed-width label bytes.
    if b"\0" in data:
        return None
    width = len(header)
    spans = _spans(data, body)
    # Two byte masks, reused by every block (the last one may gain a line end).
    scratch = np.empty((2, max((end - start for start, end in spans), default=0) + 1), dtype=bool)
    # A row ends at an LF, at a CR that no LF follows, or at the end of the
    # file; the header's line ends make this at least the row count.
    most_rows = data.count(b"\n") + 1
    if b"\r" in data:
        most_rows += data.count(b"\r") - data.count(b"\r\n")
    columns = np.empty((len(_COLUMNS), most_rows), dtype=np.int64)
    # Each is one scan of the bytes; a file without them skips whole passes.
    flags = {"blanks": b" " in data or b"\t" in data, "signs": b"-" in data}
    codes: dict[str, int] = {}
    rows = 0
    for start, end in spans:
        block = _block(data, start, end)
        read = _parse_block(block, index, width, columns[:, rows:], codes, scratch, **flags)
        if read is None:
            return None
        rows += read
    try:
        return SalesTable(tuple(codes), *columns[:, :rows])
    except ValidationError:
        return None


def _spans(data: bytes, start: int) -> list[tuple[int, int]]:
    """(start, end) of each block of `data` from byte `start`, which starts a
    line.  A block ends after the first run of line ends that reaches
    `_BLOCK` bytes past its start, so no CRLF or blank line straddles two
    blocks, and every block starts a line.  A block that would leave fewer
    than `_LOOKAHEAD` bytes after it runs on to the end of `data`."""
    spans = []
    while start < len(data):
        run = _LINE_ENDS.search(data, start + _BLOCK)
        end = run.end() if run and run.end() + _LOOKAHEAD <= len(data) else len(data)
        spans.append((start, end))
        start = end
    return spans


def _block(data: bytes, start: int, end: int) -> np.ndarray:
    """The bytes of one block, which ends in a line end, then `_LOOKAHEAD`
    more: a view of `data`, or for the last block a copy that ends in one
    line end and zero bytes."""
    if end < len(data):
        return np.frombuffer(data, np.uint8, end - start + _LOOKAHEAD, start)
    tail = data[start:].rstrip(b"\r\n")
    return np.frombuffer(b"".join((tail, b"\n", bytes(_LOOKAHEAD))), np.uint8)


def _parse_block(
    ext: np.ndarray,
    index: dict[str, int],
    width: int,
    out: np.ndarray,
    codes: dict[str, int],
    scratch: np.ndarray,
    *,
    blanks: bool,
    signs: bool,
) -> int | None:
    """Read the rows of one block (`ext` less its last `_LOOKAHEAD` bytes)
    into the first rows of the columns `out`, in `_COLUMNS` order, coding
    labels in `codes` and using the two byte masks `scratch`; return the
    row count, or None unless the byte pass reads the whole block (see
    `ingest_csv`)."""
    buf = ext[: ext.size - _LOOKAHEAD]
    # Drop each line end that follows another (an empty line, or the LF of a
    # CRLF) as `csv` does.  The block starts a line and ends in a line end.
    n = buf.size
    eol = np.equal(buf, _LF, out=scratch[0, :n])
    np.logical_or(eol, np.equal(buf, _CR, out=scratch[1, :n]), out=eol)
    repeat = np.logical_and(eol[1:], eol[:-1], out=scratch[1, : n - 1])
    if repeat.any():
        keep = np.concatenate(([True], ~repeat, np.ones(_LOOKAHEAD, dtype=bool)))
        ext, eol = ext[keep], eol[keep[: eol.size]]
        buf = ext[: eol.size]

    # Every row holds width - 1 commas; then row r of `bounds` holds the
    # delimiters ending the fields of the block's line r.
    delim = np.equal(buf, _COMMA, out=scratch[1, : eol.size])
    bounds = np.flatnonzero(np.logical_or(delim, eol, out=delim))
    rows = int(np.count_nonzero(eol))
    if bounds.size != rows * width:
        return None
    bounds = bounds.reshape(rows, width)
    if not eol[bounds[:, -1]].all():
        return None

    def field(i):
        """(first, last) byte of field `i` of every row, as new arrays."""
        before = bounds[:, i - 1] if i else np.concatenate(([-1], bounds[:-1, -1]))
        return before + 1, bounds[:, i] - 1

    for column, key in zip(out[1:], _COLUMNS[1:]):
        if not _integers(buf, *field(index[key]), column[:rows], blanks=blanks, signs=signs):
            return None
    if not _code_labels(ext, *field(index["city"]), out[0, :rows], codes):
        return None
    return rows


def _integers(
    buf: np.ndarray, first: np.ndarray, last: np.ndarray, out: np.ndarray, *, blanks: bool, signs: bool
) -> bool:
    """Write into `out` the values of the fields from byte `first` to byte
    `last`; False unless every field matches `[ \t]*-?[0-9]{1,18}[ \t]*`
    (and so has the value `int()` gives it).  The bound arrays are trimmed
    in place.

    The blank walks run only when `blanks` says that `buf` may hold a space
    or tab, and the sign pass only when `signs` says it may hold a `-`.  A
    field's own delimiters stop both trimming walks, so an all-blank field
    is left with a length below one.
    """
    if blanks:
        while (pad := _is_blank(buf[first])).any():
            first += pad
        while (pad := _is_blank(buf[last])).any():
            last -= pad
    if signs:
        negative = buf[first] == _MINUS
        first += negative
    length = last - first + 1
    shortest, longest = int(length.min()), int(length.max())
    if shortest < 1 or longest > 18:
        return False
    # Horner's rule over the fields aligned at their right ends: a shorter
    # field reads zeros where it has no digit yet.
    out.fill(0)
    at = last - (longest - 1)
    for left in range(longest - 1, -1, -1):
        digit = buf[at] - np.uint8(_ZERO)
        if left >= shortest:
            digit[length <= left] = 0
        if digit.max() > 9:
            return False
        out *= 10
        out += digit
        at += 1
    if signs:
        np.negative(out, out=out, where=negative)
    return True


def _is_blank(byte: np.ndarray) -> np.ndarray:
    return (byte == _SPACE) | (byte == _TAB)


def _code_labels(
    ext: np.ndarray, first: np.ndarray, last: np.ndarray, out: np.ndarray, codes: dict[str, int]
) -> bool:
    """Write into `out` the codes of the labels from byte `first` to byte
    `last` of a block, stripped as the row loop strips them and coded in
    `codes` in order of first appearance; False when the byte pass cannot.

    Each field is read as NUL-padded little-endian 8-byte words, so rows of
    one raw label compare equal; runs of equal rows are made unique and each
    distinct raw label is decoded once.  A word holding none of its label's bytes is read
    at an offset clipped into `ext`, which holds `_LOOKAHEAD` bytes past the
    block for the last word of a label.  Every row takes as many words as
    the longest label, so when that matrix would hold more bytes than the
    block (one long label among short ones) the result is False instead.
    Labels of one length always fit: each row also holds four numbers, four
    commas and a line end.
    """
    length = last - first + 1
    n_words = max(-(-int(length.max()) // 8), 1)
    if 8 * n_words * length.size > ext.size - _LOOKAHEAD:
        return False
    # The word starting at each byte offset (a view; offsets need no alignment).
    word_at = np.ndarray((ext.size - 7,), dtype="<u8", buffer=ext, strides=(1,))
    words = np.empty((length.size, n_words), dtype="<u8")
    new_run = np.zeros(length.size, dtype=bool)
    new_run[0] = True
    for j, word in enumerate(words.T):
        low_bytes = _LOW_BYTES[np.clip(length - 8 * j, 0, 8)]
        np.bitwise_and(word_at[np.minimum(first + 8 * j, ext.size - 8)], low_bytes, out=word)
        new_run[1:] |= word[1:] != word[:-1]
    runs = np.flatnonzero(new_run)
    raw, seen, inverse = np.unique(
        words[runs].view(f"S{8 * n_words}").ravel(), return_index=True, return_inverse=True
    )
    code_of = np.empty(raw.size, dtype=np.int64)
    for u in np.argsort(seen):
        code_of[u] = codes.setdefault(raw[u].decode("utf-8").strip(), len(codes))
    out[:] = np.repeat(code_of[inverse], np.diff(runs, append=length.size))
    return True


def _read_table(reader, path) -> SalesTable:
    rows = _csv_rows(reader, path)
    try:
        header = next(rows)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row") from None
    index = _locate(header)
    width = len(header)
    ic, iy, im, ip, iq = (index[key] for key in _COLUMNS)

    # Each row goes straight into int64 buffers, so no per-row object outlives
    # its iteration; `skipped` maps a table index back to its file row.
    codes: dict[str, int] = {}
    city, year, month, price, quantity = (array.array("q") for _ in _COLUMNS)
    skipped = []
    for rownum, row in enumerate(rows, start=2):
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
    city: str | tuple[str, ...],
    period_filter: PeriodFilter | None = None,
) -> PricePMF:
    """Aggregate the table rows of `city` in the admitted periods into a price PMF.

    `city` is one label or a tuple of labels whose rows are pooled.  The
    support is the set of distinct matching prices in ascending order
    (prices whose units sum to zero included), each with its summed
    quantity.  No binning or rounding is applied.

    Rows are kept by `SalesTable.in_cities` and by masking the table's
    period key.  One sort of the kept prices then puts each price's rows in
    one run, and one `np.add.reduceat` sums the quantities of every run.
    """
    labels = (city,) if isinstance(city, str) else tuple(city)
    keep = table.in_cities(*labels)
    if period_filter is not None:
        keep &= period_filter.mask(table.period)
    price, quantity = table.price[keep], table.quantity[keep]
    order = np.argsort(price)
    price, quantity = price[order], quantity[order]
    # Prices are non-negative, so a run starts at index 0 of any non-empty price.
    starts = np.flatnonzero(np.diff(price, prepend=-1))
    support, counts = price[starts], np.add.reduceat(quantity, starts)
    if not counts.any():
        named = labels[0] if len(labels) == 1 else labels
        raise EmptyDistributionError(f"no units for city {named!r} in the requested periods")
    return PricePMF(support, counts)
