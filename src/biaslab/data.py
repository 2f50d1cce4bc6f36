"""Tabular data model and descriptive statistics.

Columns are named float vectors, and a NaN cell is a missing cell: NaN is
the only missing marker, while ±inf is a value.  Every statistic excludes
missing cells and reports how many were excluded.
Quantiles use type-7 (order-statistic interpolation at ``h = (n-1)p + 1``),
matching the cutpoint semantics the measurement recodes depend on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ParameterError, ValidationError


@dataclass
class Column:
    """A named float column; its NaN cells are its missing cells."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValidationError(f"column {self.name!r} must be 1-dimensional")
        self.values = vals

    def __len__(self) -> int:
        return len(self.values)

    @property
    def n_missing(self) -> int:
        return int(np.count_nonzero(np.isnan(self.values)))

    def present(self) -> np.ndarray:
        """Values with missing cells removed."""
        return self.values[~np.isnan(self.values)]


class Dataset:
    """An ordered collection of equal-length, uniquely named columns."""

    def __init__(self, columns: Iterable[Column]):
        cols = list(columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate column names: {names}")
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise ValidationError(f"columns differ in length: { {c.name: len(c) for c in cols} }")
        self._cols: dict[str, Column] = {c.name: c for c in cols}
        self.n_rows = lengths.pop() if lengths else 0

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "Dataset":
        """Build from name->vector; NaN cells are missing."""
        return cls(Column(name, np.asarray(v, dtype=float)) for name, v in arrays.items())

    @property
    def names(self) -> list[str]:
        return list(self._cols)

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __getitem__(self, name: str) -> Column:
        try:
            return self._cols[name]
        except KeyError:
            raise ValidationError(f"unknown column {name!r}; have {self.names}") from None

    def column_values(self, name: str) -> np.ndarray:
        return self[name].values

    def with_column(self, col: Column) -> "Dataset":
        """New dataset with ``col`` appended or replaced."""
        cols = [c for c in self._cols.values() if c.name != col.name]
        cols.append(col)
        return Dataset(cols)

    @classmethod
    def _trusted(cls, n_rows: int, columns: Iterable[tuple[str, np.ndarray]]) -> "Dataset":
        """A dataset over arrays that are valid by construction, built without checks or copies.

        Each ``(name, values)`` holds a unique name and 1-D float64 ``values``
        of length ``n_rows``, whose NaN cells are missing.  Only for arrays the
        caller has just built, or gathered from a valid dataset.
        """
        ds = object.__new__(cls)
        ds._cols = {}
        for name, values in columns:
            col = object.__new__(Column)
            col.name, col.values = name, values
            ds._cols[name] = col
        ds.n_rows = n_rows
        return ds

    def select_rows(self, index: np.ndarray) -> "Dataset":
        cols = [(c.name, c.values[index]) for c in self._cols.values()]
        return Dataset._trusted(len(cols[0][1]) if cols else 0, cols)

    def columns(self) -> list[Column]:
        return list(self._cols.values())


@dataclass(frozen=True)
class SummaryStats:
    n: int
    n_missing: int
    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float
    sd: float
    variance: float
    skew: float
    excess_kurtosis: float


def quantile_type7(values: np.ndarray | Column | Sequence[float], p: float) -> float:
    """Type-7 quantile: linear interpolation at ``h = (n-1)p + 1``."""
    if isinstance(values, Column):
        x = values.present()
    else:
        x = np.asarray(values, dtype=float)
        x = x[~np.isnan(x)]
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"quantile probability out of range: {p}")
    if x.size == 0:
        raise DataError("quantile of empty data")
    xs = np.sort(x)
    h = (xs.size - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, xs.size - 1)
    return float(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))


def _moments(x: np.ndarray) -> tuple[float, float, float, float]:
    """Return (mean, sd[n-1], skew, excess kurtosis) with 1/n central moments."""
    n = x.size
    mean = float(x.mean())
    d = x - mean
    m2 = float((d**2).mean())
    sd = math.sqrt(m2 * n / (n - 1)) if n > 1 else 0.0
    if m2 == 0.0:
        return mean, sd, float("nan"), float("nan")
    m3 = float((d**3).mean())
    m4 = float((d**4).mean())
    return mean, sd, m3 / m2**1.5, m4 / m2**2 - 3.0


def summarize(col: Column) -> SummaryStats:
    """Six-number summary plus spread and shape moments.

    Quantiles are type-7; ``sd`` uses the n-1 denominator; skew and excess
    kurtosis use 1/n central moments and are NaN for zero-variance data.
    """
    x = col.present()
    if x.size == 0:
        raise DataError(f"column {col.name!r} has no non-missing values")
    mean, sd, skew, kurt = _moments(x)
    return SummaryStats(
        n=int(x.size),
        n_missing=col.n_missing,
        min=float(x.min()),
        q1=quantile_type7(x, 0.25),
        median=quantile_type7(x, 0.5),
        mean=mean,
        q3=quantile_type7(x, 0.75),
        max=float(x.max()),
        sd=sd,
        variance=sd * sd,
        skew=skew,
        excess_kurtosis=kurt,
    )


def ranks_average_ties(col: Column | np.ndarray) -> np.ndarray:
    """1-based ranks over non-missing values; ties get their mean rank.

    A NaN in a raw array is unequal to everything, so each one keeps its own
    rank; NaNs sort last and take the top ranks in index order.
    """
    x = col.present() if isinstance(col, Column) else np.asarray(col, dtype=float)
    if x.size == 0:
        raise DataError("cannot rank empty data")
    # Tied values share one rank, so an unstable sort gives the same ranks;
    # only the NaN tail depends on the order within it.
    order = np.argsort(x)
    if np.isnan(x[order[-1]]):
        n_nan = int(np.count_nonzero(np.isnan(x)))
        order[x.size - n_nan :].sort()
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    lasts = np.append(starts[1:], x.size) - 1
    # mean of the 1-based positions first+1 .. last+1 of each run of equal values
    run_rank = 0.5 * (starts + 1 + lasts + 1)
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat(run_rank, lasts - starts + 1)
    return ranks


def _paired(x: Column, y: Column) -> tuple[np.ndarray, np.ndarray]:
    if len(x) != len(y):
        raise ValidationError("correlation requires equal-length columns")
    keep = ~(np.isnan(x.values) | np.isnan(y.values))
    return x.values[keep], y.values[keep]


def pearson(x: Column, y: Column) -> float:
    """Pearson correlation over pairwise-complete rows."""
    xv, yv = _paired(x, y)
    if xv.size < 3:
        raise DataError(f"need >= 3 complete pairs, have {xv.size}")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DataError("zero variance in correlation input")
    return float((xc @ yc) / math.sqrt(sx * sy))


def spearman(x: Column, y: Column) -> float:
    """Spearman rank correlation (average ties, pairwise deletion)."""
    xv, yv = _paired(x, y)
    if xv.size < 3:
        raise DataError(f"need >= 3 complete pairs, have {xv.size}")
    rx = ranks_average_ties(xv)
    ry = ranks_average_ties(yv)
    return pearson(Column("rx", rx), Column("ry", ry))


_BALANCE_DELTAS = ("delta_mean", "delta_sd", "delta_skew", "delta_kurtosis")


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    delta_mean: float
    delta_sd: float
    delta_skew: float
    delta_kurtosis: float


@dataclass(frozen=True)
class BalanceReport:
    """Treatment-minus-control moment differences per covariate."""

    rows: tuple[BalanceRow, ...]

    def row(self, covariate: str) -> BalanceRow:
        for r in self.rows:
            if r.covariate == covariate:
                return r
        raise ValidationError(f"no balance row for {covariate!r}")

    def to_json_dict(self) -> dict:
        return {r.covariate: {h: getattr(r, h) for h in _BALANCE_DELTAS} for r in self.rows}

    def csv_rows(self) -> tuple[list[str], list[list]]:
        return ["covariate", *_BALANCE_DELTAS], [
            [r.covariate, *(getattr(r, h) for h in _BALANCE_DELTAS)] for r in self.rows
        ]


def balance_diff(data: Dataset, group: str | Column, covariates: Sequence[str]) -> BalanceReport:
    """Moment differences (mean, sd, skew, kurtosis) between group 1 and group 0."""
    gcol = data[group] if isinstance(group, str) else group
    g = gcol.values
    treated = g == 1  # a NaN cell equals nothing
    control = g == 0
    bad = ~np.isnan(g) & (g != 0) & (g != 1)
    if bad.any():
        raise ValidationError(f"group column {gcol.name!r} must be 0/1-valued")
    if not treated.any() or not control.any():
        raise DataError("both treatment and control groups must be non-empty")
    rows = []
    for name in covariates:
        v = data.column_values(name)
        present = ~np.isnan(v)
        t = v[treated & present]
        c = v[control & present]
        if t.size == 0 or c.size == 0:
            raise DataError(f"covariate {name!r} has an empty group after missing removal")
        mt, st, kt, ut = _moments(t)
        mc, sc, kc, uc = _moments(c)
        rows.append(BalanceRow(name, mt - mc, st - sc, kt - kc, ut - uc))
    return BalanceReport(tuple(rows))


class ListwiseResult(NamedTuple):
    data: Dataset
    n_dropped: int


def listwise_complete(data: Dataset, variables: Sequence[str]) -> ListwiseResult:
    """Drop rows with a NaN among ``variables``.

    A ±inf cell is a value that no fit can use, so one left in a kept row
    raises ``DataError`` naming its column.  Clean data pays one reduction
    per variable: ``v @ v`` is finite only when ``v`` holds neither NaN nor
    ±inf, and unlike a sum it does not warn where +inf meets -inf.  The
    exact masks are built only for the variables that fail it.
    """
    values = {name: data.column_values(name) for name in variables}
    unclean = [name for name, v in values.items() if not math.isfinite(v @ v)]
    if not unclean:
        return ListwiseResult(data, 0)
    keep = np.ones(data.n_rows, dtype=bool)
    for name in unclean:
        keep &= ~np.isnan(values[name])
    for name in unclean:
        if np.isinf(values[name][keep]).any():
            raise DataError(f"column {name!r} holds an infinite value; fits need finite data")
    dropped = int(data.n_rows - np.count_nonzero(keep))
    return ListwiseResult(data.select_rows(keep) if dropped else data, dropped)


# -- CSV interchange ---------------------------------------------------------
#
# Header row of column names; an empty field is a missing cell.  Floats are
# written with shortest round-trip precision so read(write(ds)) is identity.


def _format_cell(v: float) -> str:
    if math.isnan(v):  # a missing cell
        return ""
    try:
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
    except OverflowError:  # ±inf
        pass
    return repr(float(v))


def write_csv(data: Dataset, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        cols = data.columns()
        w.writerow([c.name for c in cols])
        for i in range(data.n_rows):
            w.writerow([_format_cell(c.values[i]) for c in cols])


def read_csv(path: str) -> Dataset:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise DataError(f"{path}: empty CSV") from None
        rows = list(r)
    arrays = {name: np.full(len(rows), np.nan) for name in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}")
        for name, cell in zip(header, row):
            if cell != "":
                try:
                    arrays[name][i] = float(cell)
                except ValueError:
                    raise ValidationError(
                        f"{path}: row {i + 2}, column {name!r}: not a number: {cell!r}"
                    ) from None
    return Dataset.from_arrays(arrays)
