"""Measures on grids, Radon-Nikodym densities, and Renyi-type entropies.

For N < 0 the entropy of mu = rho * m is S_N(mu) = integral rho^(1-1/N) dm,
computed cellwise as w^(1-1/N) * m^(1/N) with w the mu-cell mass and m the
reference cell mass.  The exponent 1/N < 0 makes cells with infinite
reference mass contribute 0 and cells with zero reference mass (but positive
mu-mass) contribute +inf, which reproduces the convention S = +inf off the
absolutely continuous cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    InvalidParams,
    InvalidTestFunction,
    NotAbsolutelyContinuous,
)
from .mmspace import Grid1D, PointedSpace1D, _read_only, _singular_adjacent_cells


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative cell masses (a read-only copy) over a grid; support and total computed once."""

    grid: Grid1D
    masses: np.ndarray

    def __post_init__(self):
        w = _read_only(np.array(self.masses, dtype=float))
        if w.shape != (self.grid.n,):
            raise InvalidParams("masses must have one value per cell")
        if not ((w >= 0).all() and np.isfinite(w).all()):  # NaN fails both
            raise InvalidParams("masses must be finite and nonnegative")
        object.__setattr__(self, "masses", w)
        object.__setattr__(self, "_support", _read_only((w > 0).nonzero()[0]))
        object.__setattr__(self, "_total", float(w.sum()))

    @property
    def total_mass(self) -> float:
        return self._total

    @property
    def support(self) -> np.ndarray:
        return self._support

    def normalized(self) -> "DiscreteMeasure":
        tm = self.total_mass
        if tm <= 0:
            raise InvalidParams("cannot normalize a null measure")
        return DiscreteMeasure(self.grid, self.masses / tm)


@dataclass(frozen=True)
class DensityWrtM:
    """Per-cell density values relative to a reference space's measure."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise InvalidParams("values must have one entry per cell")
        object.__setattr__(self, "values", v)


def radon_nikodym(mu: DiscreteMeasure, space: PointedSpace1D) -> DensityWrtM:
    """Cellwise dmu/dm; exact on unions of cells.

    Raises NotAbsolutelyContinuous when mu charges a cell whose reference
    mass is zero or infinite (the discrete representation cannot reproduce
    mu there).
    """
    if mu.grid is not space.grid and (
            mu.grid.n != space.grid.n or not np.allclose(mu.grid.edges, space.grid.edges)):
        raise InvalidParams("measure and space live on different grids")
    m = space.cell_masses
    bad = (mu.masses > 0) & ~(np.isfinite(m) & (m > 0))
    if np.any(bad):
        raise NotAbsolutelyContinuous(
            f"mu charges cells without finite positive reference mass: "
            f"{np.nonzero(bad)[0].tolist()[:8]}")
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(m > 0, mu.masses / m, 0.0)  # 0 where m = inf
    return DensityWrtM(grid=mu.grid, values=rho)


def renyi_entropy(mu, space: PointedSpace1D, N):
    """S_N(mu | m) for N < 0; +inf when mu is not absolutely continuous.
    N may be a 1-D array of N' (see entropy_from_masses).  mu is one
    DiscreteMeasure, or (rows, n) cell masses, which give one entropy (or
    one row of them) per row, each equal to the call on that row's measure."""
    if (N >= 0).any() if isinstance(N, np.ndarray) else N >= 0:
        raise DomainError("renyi_entropy requires N < 0")
    return entropy_from_masses(mu.masses if isinstance(mu, DiscreteMeasure) else mu,
                               space.cell_masses, N)


# Cells x N' up to which entropy_from_masses forms every row's terms in one
# pass; past it a row's own work outweighs the per-row calls, and a row at a
# time keeps the working set of one row.
ENTROPY_BATCH_ELEMS = 1 << 15


def entropy_from_masses(w: np.ndarray, m: np.ndarray, N):
    """Entropy from raw mass vectors (same convention as renyi_entropy).

    N is one N' (a float is returned) or a 1-D array of them (an array with
    one entropy per N', each equal to the call with that N' alone).  (T, n)
    masses w, one row per slice against the one reference m, give (T,) or
    (T, N') entropies, each row equal to the 1-D call on that row.

    Each charged cell contributes w^(1-1/N) m^(1/N) = exp(lw + (lm - lw)/N),
    exact when w == m (rho = 1 cells).  log m is taken at the charged cells
    for 1-D w, and once for (T, n) w.  Up to ENTROPY_BATCH_ELEMS cells x N',
    the terms of every row's charged cells are formed in one pass, and each
    row is summed by its own np.sum over its own cells, as the 1-D call sums
    it; past it, each row's terms are built in place and summed in turn.
    """
    w, m = np.asarray(w, float), np.asarray(m, float)
    many = isinstance(N, np.ndarray) and N.ndim == 1
    nc = N[:, None] if many else N
    rows = w.reshape(-1, w.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if rows.size * (N.size if many else 1) <= ENTROPY_BATCH_ELEMS:
            on = rows > 0  # the charged cells
            lw = np.log(rows[on])
            terms = np.subtract(np.log(m[on[0]]) if w.ndim == 1 else
                                np.broadcast_to(np.log(m), rows.shape)[on], lw) / nc
            terms += lw
            np.exp(terms, out=terms)
            ends = np.cumsum(np.count_nonzero(on, axis=-1)).tolist()
            out = [np.sum(terms[..., a:b], axis=-1) for a, b in zip([0] + ends, ends)]
        else:
            lm, out = (np.log(m) if w.ndim > 1 else None), []
            for row in rows:
                on = row > 0
                lw = np.log(row[on])
                terms = np.subtract(np.log(m[on]) if lm is None else lm[on], lw) / nc
                terms += lw
                out.append(np.sum(np.exp(terms, out=terms), axis=-1))
    if w.ndim == 1:
        return out[0] if many else float(out[0])
    return np.array(out).reshape(w.shape[:-1] + N.shape if many else w.shape[:-1])


# ---------------------------------------------------------------------------
# Legendre-type dual representation


def conjugate_coefficient(N: float) -> float:
    """Constant C_N with f*(y) = C_N |y|^(1-N) for f(x) = |x|^(1-1/N).

    Direct evaluation of sup_x (x y - x^(1-1/N)) at the stationary point
    x* = (y/p)^(1/(p-1)), p = 1 - 1/N, gives C_N = ((N-1)/N)^N / (1-N).
    """
    if N >= 0:
        raise DomainError("requires N < 0")
    return ((N - 1.0) / N) ** N / (1.0 - N)


def f_star(y, N: float):
    """Convex conjugate of x |-> |x|^(1-1/N), elementwise."""
    c = conjugate_coefficient(N)
    return c * np.abs(np.asarray(y, dtype=float)) ** (1.0 - N)


def optimal_test_function(rho, N: float):
    """The maximizer F* = f'(rho) = (1 - 1/N) rho^(-1/N) of the dual form."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(rho > 0, (1.0 - 1.0 / N) * rho ** (-1.0 / N), 0.0)


def legendre_entropy(mu: DiscreteMeasure, space: PointedSpace1D, N: float,
                     test_functions: Sequence[np.ndarray]) -> float:
    """max_F [ integral F dmu - integral f*(F) dm ] over the given family.

    Every F must vanish on cells adjacent to singular points, the discrete
    version of test functions supported away from S.
    """
    if N >= 0:
        raise DomainError("legendre_entropy requires N < 0")
    m = space.cell_masses
    adj = _singular_adjacent_cells(space.grid, space.singular_points)
    guard = np.zeros(space.grid.n, dtype=bool)
    guard[adj] = True
    guard |= ~np.isfinite(m)
    best = -math.inf
    finite = np.isfinite(m)
    for F in test_functions:
        F = np.asarray(F, dtype=float)
        if F.shape != (space.grid.n,):
            raise InvalidTestFunction("test function has wrong shape")
        if not np.all(np.isfinite(F)):
            raise InvalidTestFunction("test function must be bounded")
        if np.any(F[guard] != 0.0):
            raise InvalidTestFunction("test function charges a singular cell")
        val = float(np.sum(F * mu.masses))
        val -= float(np.sum(f_star(F[finite], N) * m[finite]))
        best = max(best, val)
    return best


# ---------------------------------------------------------------------------
# constructors used by the samplers and the CLI


def uniform_block(grid: Grid1D, a: float, b: float) -> DiscreteMeasure:
    """Probability measure with uniform (Lebesgue) density on [a, b]."""
    return measure_from_dict(grid, {"type": "uniform_block", "a": a, "b": b})


def bump(grid: Grid1D, center: float, width: float) -> DiscreteMeasure:
    """Probability measure with a triangular hat density of given half-width."""
    return measure_from_dict(grid, {"type": "bump", "center": center, "width": width})


def _mixed(n: int, weights: Sequence[float], rows, totals) -> np.ndarray:
    """The masses of a mixture of parts with these cell masses and total
    masses, added from zero in part order."""
    total_w = sum(weights)
    if total_w <= 0:
        raise InvalidParams("mixture weights must be positive")
    masses = np.zeros(n)
    for w, row, tot in zip(weights, rows, totals):
        masses += (w / total_w) * row / tot
    return masses


def mixture(parts: Sequence[tuple]) -> DiscreteMeasure:
    """Convex combination [(weight, measure), ...] on a common grid."""
    if not parts:
        raise InvalidParams("empty mixture")
    grid = parts[0][1].grid
    for _, m in parts:
        if m.grid is not grid and not np.array_equal(m.grid.edges, grid.edges):
            raise InvalidParams("mixture parts on different grids")
    weights, mus = zip(*parts)
    return DiscreteMeasure(grid, _mixed(grid.n, weights, [m.masses for m in mus],
                                        [m.total_mass for m in mus]))


def _shape_rows(grid: Grid1D, kind: str, x: np.ndarray, y: np.ndarray):
    """(k, n) unnormalised cell masses of k blocks [x, y] or k bumps of
    centre x and half-width y, and their (k,) totals."""
    if kind == "block":
        lo = np.maximum(grid.edges[:-1], x[:, None])
        hi = np.minimum(grid.edges[1:], y[:, None])
        vals = np.maximum(hi - lo, 0.0)
    else:
        vals = np.maximum(0.0, 1.0 - np.abs(grid.centers - x[:, None]) / y[:, None]) * grid.widths
    return vals, vals.sum(axis=-1)


def _spec_masses(grid: Grid1D, specs: Sequence[dict]):
    """(len(specs), n) cell masses, one row per spec, and per spec the error
    that building its measure alone raises first, or None, but for the
    check of DiscreteMeasure itself (see _refused).  A row with an error is
    NaN.  The blocks are built in one array pass and the bumps in another;
    a mixture is built from its parts, all in one call."""
    out = np.full((len(specs), grid.n), np.nan)
    errs: list = [None] * len(specs)
    shapes: dict = {"block": [], "bump": []}  # (spec, x, y) of each shape
    for i, d in enumerate(specs):
        try:  # each error is kept, to be raised in its spec's place
            kind = d["type"]
            if kind == "uniform_block":
                a, b = float(d["a"]), float(d["b"])
                if not a < b:
                    raise InvalidParams("block needs a < b")
                shapes["block"].append((i, a, b))
            elif kind == "bump":
                c, w = float(d["center"]), float(d["width"])
                if w <= 0:
                    raise InvalidParams("bump needs width > 0")
                shapes["bump"].append((i, c, w))
            elif kind == "mixture":
                parts = list(d["parts"])
                rows, part_errs = _spec_masses(grid, parts)
                weights = []
                for p, err, refused in zip(parts, part_errs, _refused(rows)):
                    weights.append(float(p["weight"]))  # read before its part is built
                    if err is not None:
                        raise err
                    if refused:
                        raise InvalidParams("masses must be finite and nonnegative")
                if not parts:
                    raise InvalidParams("empty mixture")
                # a part's total mass is its row's sum, as DiscreteMeasure takes it
                out[i] = _mixed(grid.n, weights, rows, rows.sum(axis=-1))
            else:
                raise InvalidParams(f"unknown measure type {kind!r}")
        except Exception as e:
            errs[i] = e
    for kind, rows in shapes.items():
        if rows:
            idx, x, y = np.array(rows).T
            idx = idx.astype(int)
            vals, tot = _shape_rows(grid, kind, x, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                out[idx] = vals / tot[:, None]
            for i, t in zip(idx.tolist(), tot.tolist()):
                if t <= 0:
                    errs[i] = InvalidParams(f"{kind} does not meet the grid")
    return out, errs


def _refused(masses: np.ndarray) -> np.ndarray:
    """Per row, whether DiscreteMeasure refuses it (NaN fails both tests)."""
    return ~((masses >= 0) & (masses < np.inf)).all(axis=-1)


def measure_from_dict(grid: Grid1D, d):
    """The measure of one spec: a dict with "type" "uniform_block" (and "a",
    "b"), "bump" ("center", "width") or "mixture" ("parts", specs that each
    add a "weight").

    d may also be a sequence of specs, which gives their (len(d), n) cell
    masses, each row bit for bit that of its spec's measure alone.  A spec
    whose measure alone raises InvalidParams gives a row of NaN; any other
    error raises, the first in the order of the specs.
    """
    one = isinstance(d, dict)
    masses, errs = _spec_masses(grid, [d] if one else d)
    if one:
        if errs[0] is not None:
            raise errs[0]
        return DiscreteMeasure(grid, masses[0])
    for e in errs:
        if e is not None and not isinstance(e, InvalidParams):
            raise e
    masses[_refused(masses)] = np.nan
    return masses
