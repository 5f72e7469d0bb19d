"""Discrete price distributions and ingestion of sales-record files."""

from __future__ import annotations

import csv
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


@dataclass(frozen=True)
class SalesRecord:
    """One city-month aggregate: `quantity` units sold at integer RMB `price`."""

    city: str
    year: int
    month: int
    price: int
    quantity: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValidationError("month out of range")
        if self.price < 0:
            raise ValidationError("negative price")
        if self.quantity < 0:
            raise ValidationError("negative quantity")


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
            if lo > hi:
                raise ValidationError(f"empty period range {lo}:{hi}")
        for _, m in self.exclude:
            if not 1 <= m <= 12:
                raise ValidationError(f"month out of range in exclusion: {m}")

    def admits(self, year: int, month: int) -> bool:
        ym = (year, month)
        if ym in self.exclude:
            return False
        if not self.include:
            return True
        return any(lo <= ym <= hi for lo, hi in self.include)


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
        if abs(total - 1.0) > MASS_TOL:
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


def ingest_csv(path, schema: dict | None = None) -> list[SalesRecord]:
    """Read a sales CSV into records, one per data row (zero quantities kept).

    `schema` maps the canonical names city/year/month/price/quantity to the
    file's column headers; omitted keys fall back to the canonical name.
    Row numbers in error messages are 1-based file lines (header is row 1).
    """
    columns = dict(DEFAULT_SCHEMA)
    if schema:
        unknown = set(schema) - set(DEFAULT_SCHEMA)
        if unknown:
            raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
        columns.update(schema)

    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return _read_records(csv.reader(fh), columns, path)
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _read_records(reader, columns: dict, path) -> list[SalesRecord]:
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: empty file, no header row") from None
    header = [h.strip() for h in header]
    index = {}
    for key, col in columns.items():
        if col not in header:
            raise SchemaError(f"missing column {col!r}")
        index[key] = header.index(col)

    records = []
    for rownum, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise ParseError(f"short row, row {rownum}")
        city = row[index["city"]].strip()
        year = _parse_int(row[index["year"]], "year", rownum)
        month = _parse_int(row[index["month"]], "month", rownum)
        price = _parse_int(row[index["price"]], "price", rownum)
        quantity = _parse_int(row[index["quantity"]], "quantity", rownum)
        try:
            records.append(SalesRecord(city, year, month, price, quantity))
        except ValidationError as exc:
            raise ValidationError(f"{exc}, row {rownum}") from None
    return records


def build_pmf(
    records: list[SalesRecord],
    city: str,
    period_filter: PeriodFilter | None = None,
) -> PricePMF:
    """Aggregate matching records into a price PMF.

    The support is the set of distinct matching prices in ascending order and
    each mass is quantity-at-price divided by total quantity, so normalization
    is exact.  No binning or rounding is applied.
    """
    totals: dict[int, int] = {}
    for rec in records:
        if rec.city != city:
            continue
        if period_filter is not None and not period_filter.admits(rec.year, rec.month):
            continue
        totals[rec.price] = totals.get(rec.price, 0) + rec.quantity
    grand_total = sum(totals.values())
    if grand_total == 0:
        raise EmptyDistributionError(
            f"no units for city {city!r} in the requested periods"
        )
    support = np.array(sorted(totals), dtype=np.int64)
    counts = np.array([totals[p] for p in support], dtype=np.int64)
    return PricePMF(support, counts / grand_total, grand_total)
