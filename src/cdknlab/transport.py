"""Optimal transport on the line: LP, quantile fast path, concave costs.

Measures are treated as atoms at cell centers for cost/oracle comparisons and
as uniform blocks over their cells for geodesic constructions; the monotone
(quantile) coupling is the optimal one for convex costs in one dimension.
The transportation LP is solved by HiGHS at its default tolerances, so its
values are good to about 1e-7, not to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    InvalidParams,
    NotAbsolutelyContinuous,
    SizeCap,
    UnbalancedMasses,
)
from .measure import DiscreteMeasure
from .mmspace import Grid1D

_BALANCE_TOL = 1e-12
# Largest support of either marginal of optimal_coupling_lp (m x n LP variables)
MAX_LP_SUPPORT = 2000


@dataclass(frozen=True)
class CostSpec:
    """Ground cost c(d) of the inter-point distance d."""

    kind: str = "w2"  # "w2" (squared distance) | "tanh" | "cap1" (= min(d, 1))

    def __post_init__(self):
        if self.kind not in ("w2", "tanh", "cap1"):
            raise InvalidParams(f"unknown cost kind {self.kind!r}")

    @property
    def is_metric(self) -> bool:
        return self.kind != "w2"

    def fn(self, d):
        d = np.asarray(d, dtype=float)
        if self.kind == "w2":
            return d * d
        if self.kind == "tanh":
            return np.tanh(d)
        return np.minimum(d, 1.0)

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.fn(np.abs(x[:, None] - y[None, :]))


@dataclass(frozen=True)
class Coupling:
    """Sparse coupling: entries (i, j, w) with source/target positions."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    x: np.ndarray
    y: np.ndarray
    src_grid: Grid1D
    dst_grid: Grid1D


@dataclass(frozen=True)
class MonotoneMap:
    """Piecewise-affine monotone rearrangement between block measures.

    Segment s carries mass w[s] from the source sub-interval [a0, a1] of cell
    i[s] onto the target sub-interval [b0, b1] of cell j[s]; the map is affine
    on each segment, so quantile functions are matched exactly.
    """

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    src_grid: Grid1D
    dst_grid: Grid1D

    @property
    def x_mid(self) -> np.ndarray:
        return 0.5 * (self.a0 + self.a1)

    @property
    def y_mid(self) -> np.ndarray:
        return 0.5 * (self.b0 + self.b1)

    def interpolate_blocks(self, t):
        """Endpoints and masses of the time-t uniform blocks.

        `t` is one time, or a 1-D array of times for (T, S) endpoints with
        one row per time, each equal to the one-time call at that time."""
        t = np.expand_dims(np.asarray(t, dtype=float), -1)
        u0 = (1.0 - t) * self.a0 + t * self.b0
        u1 = (1.0 - t) * self.a1 + t * self.b1
        return u0, u1, self.w

    def as_coupling(self) -> Coupling:
        """Cell-level coupling with atoms at segment mass midpoints."""
        return Coupling(i=self.i, j=self.j, w=self.w, x=self.x_mid,
                        y=self.y_mid, src_grid=self.src_grid,
                        dst_grid=self.dst_grid)


def _check_balanced(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    wu, wv = mu.total_mass, nu.total_mass
    if wu <= 0 or wv <= 0:
        raise InvalidParams("transport endpoints must carry positive mass")
    if abs(wu - wv) > _BALANCE_TOL * max(1.0, wu, wv):
        raise UnbalancedMasses(f"total masses {wu} vs {wv}")
    return wu


def monotone_map(mu: DiscreteMeasure, nu: DiscreteMeasure) -> MonotoneMap:
    """Quantile matching of mu onto nu with blocks spread across cells."""
    W = _check_balanced(mu, nu)
    si = mu.support
    sj = nu.support
    cu = np.concatenate([[0.0], np.cumsum(mu.masses[si])])
    cv = np.concatenate([[0.0], np.cumsum(nu.masses[sj])])
    cv *= cu[-1] / cv[-1]
    cv[-1] = cu[-1]
    levels = np.union1d(cu, cv)
    lo, hi = levels[:-1], levels[1:]
    keep = hi - lo > 1e-18 * W
    lo, hi = lo[keep], hi[keep]
    mid = 0.5 * (lo + hi)
    ks = np.clip(np.searchsorted(cu, mid, side="right") - 1, 0, si.size - 1)
    kt = np.clip(np.searchsorted(cv, mid, side="right") - 1, 0, sj.size - 1)
    i, jdx = si[ks], sj[kt]
    eu_lo, eu_w = mu.grid.edges[i], mu.grid.widths[i]
    ev_lo, ev_w = nu.grid.edges[jdx], nu.grid.widths[jdx]
    du = cu[ks + 1] - cu[ks]
    dv = cv[kt + 1] - cv[kt]
    a0 = eu_lo + eu_w * (lo - cu[ks]) / du
    a1 = eu_lo + eu_w * (hi - cu[ks]) / du
    b0 = ev_lo + ev_w * (lo - cv[kt]) / dv
    b1 = ev_lo + ev_w * (hi - cv[kt]) / dv
    return MonotoneMap(i=i, j=jdx, w=hi - lo, a0=a0, a1=a1, b0=b0, b1=b1,
                       src_grid=mu.grid, dst_grid=nu.grid)


def w2_quantile_1d(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """(squared-W2 cost, monotone map) for atoms at cell centers."""
    tmap = monotone_map(mu, nu)
    xc = mu.grid.centers[tmap.i]
    yc = nu.grid.centers[tmap.j]
    cost = float(np.sum(tmap.w * (xc - yc) ** 2))
    return cost, tmap


def w2_block_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exact W2 (not squared) treating cells as uniform blocks."""
    tmap = monotone_map(mu, nu)
    d0 = tmap.a0 - tmap.b0
    d1 = tmap.a1 - tmap.b1
    cost = float(np.sum(tmap.w * (d0 * d0 + d0 * d1 + d1 * d1) / 3.0))
    return math.sqrt(max(cost, 0.0))


def _transport_lp(a: np.ndarray, b: np.ndarray, C: np.ndarray):
    # imported here, so that runs which solve no LP do not load scipy
    from scipy import sparse
    from scipy.optimize import linprog

    m, n = C.shape
    row_i = np.repeat(np.arange(m), n)
    col_j = np.tile(np.arange(n), m)
    cols = np.arange(m * n)
    A = sparse.csr_matrix(
        (np.ones(2 * m * n),
         (np.concatenate([row_i, m + col_j]), np.concatenate([cols, cols]))),
        shape=(m + n, m * n))
    A = A[:-1]  # drop one redundant constraint
    rhs = np.concatenate([a, b[:-1]])
    res = linprog(C.ravel(), A_eq=A, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return res.x.reshape(m, n)


def optimal_coupling_lp(mu: DiscreteMeasure, nu: DiscreteMeasure,
                        cost: Optional[CostSpec] = None):
    """Transportation LP on the measure supports: (value, Coupling)."""
    cost = cost or CostSpec("w2")
    _check_balanced(mu, nu)
    si, sj = mu.support, nu.support
    if si.size > MAX_LP_SUPPORT or sj.size > MAX_LP_SUPPORT:
        raise SizeCap(f"support sizes {si.size} x {sj.size} exceed {MAX_LP_SUPPORT}")
    x, y = mu.grid.centers[si], nu.grid.centers[sj]
    C = cost.matrix(x, y)
    plan = _transport_lp(mu.masses[si], nu.masses[sj], C)
    plan = np.maximum(plan, 0.0)
    value = float(np.sum(plan * C))
    ii, jj = np.nonzero(plan > 1e-16 * np.max(plan))
    coup = Coupling(i=si[ii], j=sj[jj], w=plan[ii, jj],
                    x=mu.grid.centers[si[ii]], y=nu.grid.centers[sj[jj]],
                    src_grid=mu.grid, dst_grid=nu.grid)
    return value, coup


def wc_distance(mu: DiscreteMeasure, nu: DiscreteMeasure,
                cost: CostSpec = CostSpec("tanh")) -> float:
    """Optimal-transport distance for a bounded concave metric cost.

    For metric costs the common mass of mu and nu stays in place, so when
    both measures share a grid the LP runs on the positive/negative parts of
    mu - nu only (exact by Kantorovich-Rubinstein duality).
    """
    if not cost.is_metric:
        raise InvalidParams("wc_distance needs a concave metric cost")
    _check_balanced(mu, nu)
    if mu.grid.n == nu.grid.n and np.array_equal(mu.grid.edges, nu.grid.edges):
        resid = mu.masses - nu.masses
        pos = np.maximum(resid, 0.0)
        neg = np.maximum(-resid, 0.0)
        sp, sn = pos.sum(), neg.sum()
        if sp <= 1e-15 * mu.total_mass or sn <= 1e-15 * mu.total_mass:
            return 0.0
        neg *= sp / sn
        mu = DiscreteMeasure(mu.grid, pos)
        nu = DiscreteMeasure(nu.grid, neg)
    value, _ = optimal_coupling_lp(mu, nu, cost=cost)
    return value


def weighted_marginalization(p: Coupling, mu: DiscreteMeasure,
                             m_src: DiscreteMeasure) -> DiscreteMeasure:
    """Push mu = rho~ * m_src through the coupling p of (m_src, m_dst).

    Returns the measure with cell masses nu_j = sum_i rho~(i) p_ij, the
    weighted marginalization of mu along p.
    """
    m = m_src.masses
    bad = (mu.masses > 0) & (m <= 0)
    if np.any(bad):
        raise NotAbsolutelyContinuous("mu charges cells with zero reference mass")
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(m > 0, mu.masses / m, 0.0)
    masses = np.bincount(p.j, weights=p.w * rho[p.i], minlength=p.dst_grid.n)
    return DiscreteMeasure(p.dst_grid, masses)
