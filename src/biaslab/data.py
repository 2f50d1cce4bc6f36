"""Tabular data model and descriptive statistics.

A :class:`Dataset` maps each column name to a 1-D float64 array, so
``data["x"]`` is the column itself.  A NaN cell is a missing cell: NaN is
the only missing marker, while ±inf is a value.  The statistics here take
arrays, exclude missing cells and report how many were excluded.
Quantiles use type-7 (order-statistic interpolation at ``h = (n-1)p + 1``),
matching the cutpoint semantics the measurement recodes depend on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ParameterError, ValidationError


class Dataset:
    """An ordered map from unique column names to equal-length 1-D float64 arrays."""

    def __init__(self, columns: Mapping[str, np.ndarray | Sequence[float]]):
        cols = {name: np.asarray(v, dtype=float) for name, v in columns.items()}
        for name, v in cols.items():
            if v.ndim != 1:
                raise ValidationError(f"column {name!r} must be 1-dimensional")
        lengths = {len(v) for v in cols.values()}
        if len(lengths) > 1:
            raise ValidationError(f"columns differ in length: { {n: len(v) for n, v in cols.items()} }")
        self._cols = cols
        self.n_rows = lengths.pop() if lengths else 0

    @property
    def names(self) -> list[str]:
        return list(self._cols)

    def __contains__(self, name: str) -> bool:
        return name in self._cols

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._cols[name]
        except KeyError:
            raise ValidationError(f"unknown column {name!r}; have {self.names}") from None

    def items(self):
        return self._cols.items()

    def with_column(self, name: str, values: np.ndarray | Sequence[float]) -> "Dataset":
        """New dataset with column ``name`` appended, or moved to the end and replaced."""
        cols = {n: v for n, v in self._cols.items() if n != name}
        cols[name] = values
        return Dataset(cols)

    @classmethod
    def _trusted(cls, n_rows: int, columns: dict[str, np.ndarray]) -> "Dataset":
        """A dataset over ``columns``, taken as they are, without checks or copies.

        Each value is a 1-D float64 array of length ``n_rows``.  Only for
        arrays the caller has just built, or gathered from a valid dataset.
        """
        ds = object.__new__(cls)
        ds._cols, ds.n_rows = columns, n_rows
        return ds

    def select_rows(self, index: np.ndarray) -> "Dataset":
        cols = {name: v[index] for name, v in self._cols.items()}
        return Dataset._trusted(len(next(iter(cols.values()))) if cols else 0, cols)


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


def quantile_type7(values: np.ndarray | Sequence[float], p: float) -> float:
    """Type-7 quantile of the non-missing values: linear interpolation at ``h = (n-1)p + 1``."""
    return quantiles_type7(values, (p,))[0]


def quantiles_type7(values: np.ndarray | Sequence[float], probs: Sequence[float]) -> list[float]:
    """``quantile_type7`` at each of ``probs``, from one sort of the values."""
    x = np.asarray(values, dtype=float)
    x = x[~np.isnan(x)]
    for p in probs:
        if not (0.0 <= p <= 1.0):
            raise ParameterError(f"quantile probability out of range: {p}")
    if x.size == 0:
        raise DataError("quantile of empty data")
    xs, top = np.sort(x), x.size - 1
    # h = (n-1)p, 0-based, interpolating between xs[floor(h)] and the value after it
    return [float(xs[lo] + (h - lo) * (xs[min(lo + 1, top)] - xs[lo]))
            for h, lo in ((top * p, math.floor(top * p)) for p in probs)]


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


def summarize(values: np.ndarray, name: str = "values") -> SummaryStats:
    """Six-number summary plus spread and shape moments of the non-missing values.

    Quantiles are type-7; ``sd`` uses the n-1 denominator; skew and excess
    kurtosis use 1/n central moments and are NaN for zero-variance data.
    ``name`` names the column in the error for all-missing values.
    """
    v = np.asarray(values, dtype=float)
    x = v[~np.isnan(v)]
    if x.size == 0:
        raise DataError(f"column {name!r} has no non-missing values")
    mean, sd, skew, kurt = _moments(x)
    q1, median, q3 = quantiles_type7(x, (0.25, 0.5, 0.75))
    return SummaryStats(
        n=int(x.size),
        n_missing=int(v.size - x.size),
        min=float(x.min()),
        q1=q1,
        median=median,
        mean=mean,
        q3=q3,
        max=float(x.max()),
        sd=sd,
        variance=sd * sd,
        skew=skew,
        excess_kurtosis=kurt,
    )


def ranks_average_ties(values: np.ndarray) -> np.ndarray:
    """1-based ranks; ties get their mean rank.

    A NaN is unequal to everything, so each one keeps its own rank; NaNs sort
    last and take the top ranks in index order.
    """
    x = np.asarray(values, dtype=float)
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


def _paired(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) != len(y):
        raise ValidationError("correlation requires equal-length columns")
    keep = ~(np.isnan(x) | np.isnan(y))
    return x[keep], y[keep]


def pearson(x: np.ndarray, y: np.ndarray) -> float:
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


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation (average ties, pairwise deletion)."""
    xv, yv = _paired(x, y)
    if xv.size < 3:
        raise DataError(f"need >= 3 complete pairs, have {xv.size}")
    return pearson(ranks_average_ties(xv), ranks_average_ties(yv))


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


def balance_diff(data: Dataset, group: str, covariates: Sequence[str]) -> BalanceReport:
    """Moment differences (mean, sd, skew, kurtosis) between group 1 and group 0."""
    g = data[group]
    treated = g == 1  # a NaN cell equals nothing
    control = g == 0
    bad = ~np.isnan(g) & (g != 0) & (g != 1)
    if bad.any():
        raise ValidationError(f"group column {group!r} must be 0/1-valued")
    if not treated.any() or not control.any():
        raise DataError("both treatment and control groups must be non-empty")
    rows = []
    for name in covariates:
        v = data[name]
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
    per variable: ``v @ v`` is finite when ``v`` holds neither NaN nor ±inf
    (nor values whose squares overflow), and unlike a sum it does not warn
    where +inf meets -inf.  The exact masks are built only for the
    variables that fail it.
    """
    values = {name: data[name] for name in variables}
    with np.errstate(over="ignore"):
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


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV writer: ``header``, then each row.  Each caller formats its
    own cells; a float cell is written as its ``repr``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_csv(data: Dataset, path: str) -> None:
    columns = [v for _, v in data.items()]
    write_rows(path, data.names, ([_format_cell(v[i]) for v in columns] for i in range(data.n_rows)))


def read_csv(path: str) -> Dataset:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        try:
            header = next(r)
        except StopIteration:
            raise DataError(f"{path}: empty CSV") from None
        rows = list(r)
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValidationError(f"{path}: the header names column {name!r} twice")
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
    return Dataset._trusted(len(rows), arrays)
