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
    """Piecewise-affine monotone rearrangements between block measures.

    Segment s carries mass w[s] from the source sub-interval [a0, a1] of cell
    i[s] onto the target sub-interval [b0, b1] of cell j[s]; the map is affine
    on each segment, so quantile functions are matched exactly.  The map
    holds one or more pairs' segments in pair order, pair p's at
    offsets[p]:offsets[p + 1] (see pair).
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
    offsets: np.ndarray

    def pair(self, p: int) -> "MonotoneMap":
        """Pair p's own map, over views of its segments."""
        a, b = self.offsets[p:p + 2].tolist()
        return MonotoneMap(self.i[a:b], self.j[a:b], self.w[a:b], self.a0[a:b],
                           self.a1[a:b], self.b0[a:b], self.b1[a:b], self.src_grid,
                           self.dst_grid, np.array([0, b - a]))

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


def _check_balanced(wu: float, wv: float) -> float:
    """Refuse transport between total masses wu and wv unless both are
    finite and positive (not NaN) and they agree; return wu."""
    if not (0 < wu < math.inf and 0 < wv < math.inf):
        raise InvalidParams("transport endpoints must carry finite positive mass")
    if abs(wu - wv) > _BALANCE_TOL * max(1.0, wu, wv):
        raise UnbalancedMasses(f"total masses {wu} vs {wv}")
    return wu


def monotone_map(mu, nu, grids: Optional[tuple[Grid1D, Grid1D]] = None) -> MonotoneMap:
    """Quantile matching of mu onto nu with blocks spread across cells.

    mu and nu are one pair's measures, or, given grids = (source grid,
    target grid), equal-length sequences of cell masses on those grids, one
    pair per row, such as two (P, n) arrays.  The result is one MonotoneMap
    over every pair's segments in pair order, each pair's the same whatever
    the other rows.  Every pair is validated before any is mapped, and the
    first whose masses DiscreteMeasure or _check_balanced would refuse
    raises that refusal.

    Each pair's cumulative masses cu and cv (cv rescaled to end where cu
    ends) are summed along one zero-padded row each, padded with +inf, and
    merged by one stable sort of the (cu, cv) row, which keeps a cu entry
    before an equal cv entry.  The last place of each run of equal values
    is a level of the union, and the cu (cv) entries up to it are the count
    of cu (cv) values at or below it.  A segment's midpoint lies in
    [lo, hi] with no knot between, so searchsorted(cu, mid, "right") is
    lo's count, or hi's when the midpoint rounds onto hi.
    """
    if grids is None:
        mu, nu, grids = [mu.masses], [nu.masses], (mu.grid, nu.grid)
    src, dst = grids
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    if mu.ndim != 2 or mu.shape[1] != src.n or nu.shape != (len(mu), dst.n):
        raise InvalidParams("need as many mass rows of mu as of nu, one value per cell")
    P = len(mu)
    # what DiscreteMeasure refuses: a NaN, negative or infinite mass
    refused = ~((mu.min(axis=1) >= 0) & (mu.max(axis=1) < np.inf)
                & (nu.min(axis=1) >= 0) & (nu.max(axis=1) < np.inf))
    with np.errstate(over="ignore", invalid="ignore"):  # what _check_balanced refuses
        wu, wv = mu.sum(axis=1), nu.sum(axis=1)  # each row's sum, as DiscreteMeasure takes it
        ok = ~refused & (wu > 0) & (wv > 0) & (wu < np.inf) & (wv < np.inf) & (
            np.abs(wu - wv) <= _BALANCE_TOL * np.maximum(np.maximum(wu, wv), 1.0))
    if not ok.all():
        p = int(np.argmin(ok))  # the first bad pair
        if refused[p]:
            raise InvalidParams("masses must be finite and nonnegative")
        _check_balanced(float(wu[p]), float(wv[p]))
    sides = []
    for m in (mu, nu):  # per side: support cells, their row offsets, cumulative sums
        on = np.flatnonzero(m > 0)
        r, cells = np.divmod(on, m.shape[1])
        ns = np.bincount(r, minlength=P)
        off = np.concatenate(([0], np.cumsum(ns)))
        cum = np.zeros((P, int(ns.max(initial=0)) + 1))
        cum[r, np.arange(on.size) - off[r] + 1] = m.ravel()[on]
        np.cumsum(cum, axis=1, out=cum)
        sides.append((cells, ns, off, cum))
    (si, nsu, ou, cu), (sj, nsv, ov, cv) = sides
    lu = cu.shape[1]
    L = lu + cv.shape[1]
    cv *= (cu[:, -1] / cv[:, -1])[:, None]
    cv[np.arange(P), nsv] = cu[:, -1]
    knots = np.concatenate([cu, cv], axis=1)
    knots[:, :lu][np.arange(lu) > nsu[:, None]] = np.inf
    knots[:, lu:][np.arange(L - lu) > nsv[:, None]] = np.inf
    order = np.argsort(knots, axis=1, kind="stable")
    from_u = np.cumsum(order < lu)  # each row holds lu cu entries
    order += np.arange(0, P * L, L)[:, None]
    knots = knots.ravel()
    merged = knots[order.ravel()]
    last = np.append(merged[1:] != merged[:-1], True)  # a row's end differs from the next row's 0
    at = np.flatnonzero(last & (merged < np.inf))
    rows = at // L
    ku = from_u[at] - rows * lu
    kv = at - rows * L + 1 - ku
    levels = merged[at]
    keep = (rows[1:] == rows[:-1]) & (levels[1:] - levels[:-1] > 1e-18 * wu[rows[:-1]])
    k = np.flatnonzero(keep)
    lo, hi, p = levels[k], levels[k + 1], rows[k]
    k += 0.5 * (lo + hi) == hi
    ks = np.minimum(ku[k] - 1, nsu[p] - 1)  # ku, kv >= 1: each row's first level is 0
    kt = np.minimum(kv[k] - 1, nsv[p] - 1)
    i, jdx = si[ou[p] + ks], sj[ov[p] + kt]
    at = p * L + ks
    cu_k, du = knots[at], knots[at + 1]
    du -= cu_k
    at += lu + kt - ks
    cv_k, dv = knots[at], knots[at + 1]
    dv -= cv_k
    eu_lo, eu_w = src.edges[i], src.widths[i]
    ev_lo, ev_w = dst.edges[jdx], dst.widths[jdx]
    a0 = eu_lo + eu_w * (lo - cu_k) / du
    a1 = eu_lo + eu_w * (hi - cu_k) / du
    b0 = ev_lo + ev_w * (lo - cv_k) / dv
    b1 = ev_lo + ev_w * (hi - cv_k) / dv
    return MonotoneMap(i=i, j=jdx, w=hi - lo, a0=a0, a1=a1, b0=b0, b1=b1,
                       src_grid=src, dst_grid=dst,
                       offsets=np.concatenate(([0], np.cumsum(np.bincount(p, minlength=P)))))


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
    _check_balanced(mu.total_mass, nu.total_mass)
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
    _check_balanced(mu.total_mass, nu.total_mass)
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
