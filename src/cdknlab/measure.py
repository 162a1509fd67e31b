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
from .mmspace import Grid1D, PointedSpace1D, _singular_adjacent_cells


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative cell masses over a grid."""

    grid: Grid1D
    masses: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.masses, dtype=float)
        if w.shape != (self.grid.n,):
            raise InvalidParams("masses must have one value per cell")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise InvalidParams("masses must be finite and nonnegative")
        object.__setattr__(self, "masses", w)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def support(self) -> np.ndarray:
        return np.nonzero(self.masses > 0)[0]

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


def _entropy_terms(w: np.ndarray, m: np.ndarray, N) -> np.ndarray:
    """Cell contributions w^(1-1/N) m^(1/N), in log space, for w > 0 cells;
    one row per N' when N is a column of them."""
    with np.errstate(divide="ignore"):
        lw = np.log(w)
        lm = np.log(m)
    # lw + (lm - lw)/N is exact when w == m (rho = 1 cells)
    expo = lw + (lm - lw) / N
    with np.errstate(over="ignore"):
        return np.exp(expo)


def renyi_entropy(mu: DiscreteMeasure, space: PointedSpace1D, N):
    """S_N(mu | m) for N < 0; +inf when mu is not absolutely continuous.
    N may be a 1-D array of N' (see entropy_from_masses)."""
    if (N >= 0).any() if isinstance(N, np.ndarray) else N >= 0:
        raise DomainError("renyi_entropy requires N < 0")
    return entropy_from_masses(mu.masses, space.cell_masses, N)


def entropy_from_masses(w: np.ndarray, m: np.ndarray, N):
    """Entropy from raw mass vectors (same convention as renyi_entropy).

    N is one N' (a float is returned) or a 1-D array of them (an array with
    one entropy per N', each equal to the call with that N' alone).
    """
    many = isinstance(N, np.ndarray) and N.ndim == 1
    mask = np.asarray(w) > 0
    with np.errstate(over="ignore"):
        terms = _entropy_terms(np.asarray(w, float)[mask], np.asarray(m, float)[mask],
                               N[:, None] if many else N)
        return np.sum(terms, axis=-1) if many else float(np.sum(terms))


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
    if not a < b:
        raise InvalidParams("block needs a < b")
    lo = np.maximum(grid.edges[:-1], a)
    hi = np.minimum(grid.edges[1:], b)
    overlap = np.maximum(hi - lo, 0.0)
    tot = overlap.sum()
    if tot <= 0:
        raise InvalidParams("block does not meet the grid")
    return DiscreteMeasure(grid, overlap / tot)


def bump(grid: Grid1D, center: float, width: float) -> DiscreteMeasure:
    """Probability measure with a triangular hat density of given half-width."""
    if width <= 0:
        raise InvalidParams("bump needs width > 0")
    c = grid.centers
    vals = np.maximum(0.0, 1.0 - np.abs(c - center) / width) * grid.widths
    tot = vals.sum()
    if tot <= 0:
        raise InvalidParams("bump does not meet the grid")
    return DiscreteMeasure(grid, vals / tot)


def mixture(parts: Sequence[tuple]) -> DiscreteMeasure:
    """Convex combination [(weight, measure), ...] on a common grid."""
    if not parts:
        raise InvalidParams("empty mixture")
    grid = parts[0][1].grid
    total_w = sum(w for w, _ in parts)
    if total_w <= 0:
        raise InvalidParams("mixture weights must be positive")
    masses = np.zeros(grid.n)
    for w, m in parts:
        if m.grid is not grid and not np.array_equal(m.grid.edges, grid.edges):
            raise InvalidParams("mixture parts on different grids")
        masses += (w / total_w) * m.masses / m.total_mass
    return DiscreteMeasure(grid, masses)


def measure_from_dict(grid: Grid1D, d: dict) -> DiscreteMeasure:
    kind = d["type"]
    if kind == "uniform_block":
        return uniform_block(grid, float(d["a"]), float(d["b"]))
    if kind == "bump":
        return bump(grid, float(d["center"]), float(d["width"]))
    if kind == "mixture":
        parts = [(float(p["weight"]), measure_from_dict(grid, p)) for p in d["parts"]]
        return mixture(parts)
    raise InvalidParams(f"unknown measure type {kind!r}")
