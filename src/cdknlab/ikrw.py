"""Distances between pointed spaces with blow-up reference measures.

All values here are computed at the identity embedding of the spaces into
the line.  That gives an upper bound on the infimum over isometric
embeddings, not the infimum itself: the values are not invariant under
isometries of the line (a space against its translate or its mirror image
gives a positive `ikrw`), which ROADMAP item 12 is to fix.  The
transport term between normalized cuts is an LP solved by HiGHS at its
default tolerances, so it is good to about 1e-7, after rebinning both
measures onto a common grid of DEFAULT_WC_GRID cells (aggregation to a
shared coarse grid, so the term vanishes when the cuts agree).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cdcheck import DEFAULT_TOL, SuiteReport, cd_suite
from .errors import InfiniteMass, InvalidParams, RegularityMismatch
from .geodesics1d import bin_blocks
from .measure import DiscreteMeasure
from .mmspace import (
    MAX_GRID_N,
    Grid1D,
    ModelSpec,
    PointedSpace1D,
    _discretize,
    _dist_to_set,
    build_model_space,
    check_level,
    k_cut,
    space_from_dict,
    total_mass,
)
from .transport import CostSpec, wc_distance

DEFAULT_WC_GRID = 256


# ---------------------------------------------------------------------------
# Hausdorff distance with the empty-set conventions


def hausdorff_distance(A: Sequence[float], B: Sequence[float]) -> float:
    """Two-sided Hausdorff distance; d_H(empty, empty) = 0, else empty -> inf."""
    if len(A) == 0 or len(B) == 0:
        return 0.0 if len(A) == len(B) else math.inf
    return float(max(_dist_to_set(A, B).max(), _dist_to_set(B, A).max()))


# ---------------------------------------------------------------------------
# Finite-mass distance between cuts and the truncated series


def _normalized_cut_measure(space: PointedSpace1D) -> DiscreteMeasure:
    return DiscreteMeasure(space.grid, space.cell_masses).normalized()


def _wc_between(muA: DiscreteMeasure, muB: DiscreteMeasure,
                cost: CostSpec) -> float:
    same = (muA.grid.n == muB.grid.n
            and np.array_equal(muA.grid.edges, muB.grid.edges))
    if not same or muA.grid.n > DEFAULT_WC_GRID:
        lo = min(muA.grid.a, muB.grid.a)
        hi = max(muA.grid.b, muB.grid.b)
        grid = Grid1D.uniform(lo, hi, DEFAULT_WC_GRID)

        def rebin(mu):
            s = mu.support
            return bin_blocks(mu.grid.edges[:-1][s], mu.grid.edges[1:][s],
                              mu.masses[s], grid, tol=1e-9)

        muA, muB = rebin(muA), rebin(muB)
    return wc_distance(muA, muB, cost=cost)


def ikrw_fm(spaceA: PointedSpace1D, spaceB: PointedSpace1D,
            c_kind="tanh", return_terms: bool = False):
    """Finite-mass distance: log-mass gap + base-point gap + Hausdorff gap
    of the singular sets + transport gap of the normalized measures.

    Intended for k-cuts; spaces of infinite total mass are rejected.
    """
    mA, mB = total_mass(spaceA), total_mass(spaceB)
    if not (math.isfinite(mA) and math.isfinite(mB)):
        raise InfiniteMass("ikrw_fm needs finite total masses; cut first")
    if mA <= 0 or mB <= 0:
        raise InvalidParams("ikrw_fm needs positive total masses")
    ratio = mA / mB
    # a ratio past the normal doubles has lost digits, or rounded to 0 or inf
    log_gap = (math.log(ratio) if sys.float_info.min <= ratio < math.inf
               else math.log(mA) - math.log(mB))
    terms = {
        "log_mass": abs(log_gap),
        "base_point": abs(spaceA.base_point - spaceB.base_point),
        "hausdorff": hausdorff_distance(spaceA.singular_points,
                                        spaceB.singular_points),
        "wc": _wc_between(_normalized_cut_measure(spaceA),
                          _normalized_cut_measure(spaceB),
                          CostSpec(c_kind)),
    }
    value = (math.inf if math.isinf(terms["hausdorff"])
             else float(sum(terms.values())))
    return (value, terms) if return_terms else value


def ikrw_series(cuts, c_kind="tanh") -> tuple[list, float]:
    """The truncated iKRW series over (k, k-cut of A, k-cut of B) triples:
    one row (k, fm distance, its terms, 2^-k min(1, fm)) per triple, and the
    sum of the last column, added in the order given."""
    rows = []
    value = 0.0
    for k, cut_a, cut_b in cuts:
        fm, terms = ikrw_fm(cut_a, cut_b, c_kind=c_kind, return_terms=True)
        contrib = 2.0 ** (-k) * min(1.0, fm)
        value += contrib
        rows.append((k, fm, terms, contrib))
    return rows, value


def ikrw(spaceA: PointedSpace1D, spaceB: PointedSpace1D, k_bar: int,
         k_max: int = 12, c_kind="tanh") -> tuple[float, float]:
    """Truncated series sum_{k=k_bar}^{k_max} 2^-k min(1, fm distance of the
    k-cuts), with the geometric tail bound 2^-k_max of the dropped terms."""
    if k_bar > k_max:
        raise InvalidParams("need k_bar <= k_max")
    cuts = ((k, k_cut(spaceA, k), k_cut(spaceB, k))
            for k in range(k_bar, k_max + 1))
    return ikrw_series(cuts, c_kind=c_kind)[1], 2.0 ** (-k_max)


def extrinsic_gap(spaceA: PointedSpace1D, spaceB: PointedSpace1D,
                  k: int) -> float:
    """Like the fm distance of the k-cuts but without the singular-set term."""
    _, terms = ikrw_fm(k_cut(spaceA, k), k_cut(spaceB, k), return_terms=True)
    return terms["log_mass"] + terms["base_point"] + terms["wc"]


# ---------------------------------------------------------------------------
# Convergent families


def truncated_power_space(N: float, n: Optional[int], R: float = 2.0,
                          grid_n: int = 2048) -> PointedSpace1D:
    """Density x^N on [2^-n, R] in the ambient interval [0, R], based at 1.

    n = None gives the limit space (density on all of (0, R], blow-up at 0).
    The finite-n members have no singular points; the truncation location is
    recorded as a cut anchor so their k-cuts avoid it the same way the
    limit's cuts avoid the genuine blow-up.
    """
    grid = Grid1D.uniform(0.0, R, grid_n)
    if n is None:
        spec = ModelSpec(kind="power_n", N=N, domain=(0.0, R), grid_n=grid_n,
                         base_point=1.0)
        return build_model_space(spec)
    thr = 2.0 ** (-n)

    def log_v(x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= thr, N * np.log(x), -np.inf)

    return PointedSpace1D(grid=grid, density=_discretize(grid, log_v, ()),
                          singular_points=(), base_point=1.0, cut_anchors=(thr,),
                          log_density=log_v, kind="truncated_power")


def glued_drift_space(n: Optional[int], K: float = -2.0, N: float = -2.0,
                      delta: float = 0.5, grid_n: int = 1024) -> PointedSpace1D:
    """Two cos-type arches glued at an interior blow-up point that drifts.

    The outer interval is [0, L] with L = 2 pi sqrt(N/K); the gluing point
    sits at s_n = L/2 + delta 2^-n (n = None: the limit, s = L/2, where both
    arches have the canonical length for the CD(K, N+1) claim).  The grid is
    non-uniform so that s_n is always an edge.
    """
    if not (K < 0 and N < 0):
        raise InvalidParams("glued_drift_space needs K < 0 and N < 0")
    if grid_n < 16:
        raise InvalidParams("glued_drift_space needs grid_n >= 16")
    L = 2.0 * math.pi * math.sqrt(N / K)
    s = L / 2.0 + (delta * 2.0 ** (-n) if n is not None else 0.0)
    if not 0.0 < s < L:
        raise InvalidParams("drift pushes the gluing point out of [0, L]")
    m = int(np.clip(round(grid_n * s / L), 8, grid_n - 8))
    edges = np.concatenate([np.linspace(0.0, s, m + 1),
                            np.linspace(s, L, grid_n - m + 1)[1:]])
    grid = Grid1D(edges)

    def log_v(x):
        x = np.asarray(x, dtype=float)
        left = x <= s
        center = np.where(left, s / 2.0, (s + L) / 2.0)
        half = np.where(left, s / 2.0, (L - s) / 2.0)
        return N * np.log(np.clip(np.cos(0.5 * math.pi * (x - center) / half),
                                  0.0, None))

    singular = (0.0, float(s), float(L))
    return PointedSpace1D(grid=grid, density=_discretize(grid, log_v, singular),
                          singular_points=singular, base_point=L / 4.0,
                          log_density=log_v, kind="glued_drift")


# ---------------------------------------------------------------------------
# Convergence experiments


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    k: int
    log_mass_gap: float
    base_point_gap: float
    hausdorff_gap: float
    wc_gap: float
    total: float


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    series: dict  # n -> truncated sum over the k range of 2^-k min(1, total)

    def column(self, name: str, k: int) -> list:
        return [getattr(r, name) for r in self.rows if r.k == k]

    def decreasing(self, name: str, k: int) -> bool:
        """The column's finite values never rise by more than 1e-9."""
        vals = [v for v in self.column(name, k) if math.isfinite(v)]
        return all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def _family_members(sequence_spec: dict):
    """(members, limit, K, N, member indices) of a sequence file; n_range
    is read from the file only for the families that are indexed by n."""
    family = sequence_spec.get("family")
    try:
        N = float(sequence_spec.get("N", -2.0))
        K = float(sequence_spec.get("K", -2.0 if family == "glued_drift" else 0.0))
        grid_n = int(sequence_spec.get("grid_n", 1024))
        R = float(sequence_spec.get("R", 2.0))
        delta = float(sequence_spec.get("delta", 0.5))
        if family == "custom_list":
            space_dicts = list(sequence_spec["spaces"])
            limit_d = sequence_spec["limit"]
        else:
            a, b = sequence_spec["n_range"]
            n_range = range(check_level("n", int(a)),
                            check_level("n", int(b)) + 1)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidParams(f"bad sequence field: {e}") from e
    if grid_n > MAX_GRID_N:
        raise InvalidParams(f"grid_n {grid_n} exceeds {MAX_GRID_N}")
    if family == "custom_list":
        spaces = [space_from_dict(d) for d in space_dicts]
        return (spaces, space_from_dict(limit_d), K, N,
                list(range(len(spaces))))
    if family == "truncated_power":
        make = lambda n: truncated_power_space(N, n, R=R, grid_n=grid_n)
    elif family == "glued_drift":
        make = lambda n: glued_drift_space(n, K=K, N=N, delta=delta,
                                           grid_n=grid_n)
    else:
        raise InvalidParams(f"unknown family {family!r}")
    return [make(n) for n in n_range], make(None), K, N, list(n_range)


def convergence_experiment(sequence_spec: dict, run_cd: bool = True,
                           cd_samples: int = 4, seed: int = 0,
                           tol: float = DEFAULT_TOL,
                           ) -> tuple[ConvergenceTable, Optional[SuiteReport]]:
    """Per-(n, k) gap table for a converging family, plus the limit CD run.

    The gaps are ikrw_fm distances at the tanh cost.  The CD hook verifies
    the limit space against the family's claimed (K, N+1) on sampled
    marginal pairs.
    """
    if not isinstance(sequence_spec, dict):
        raise InvalidParams("sequence spec must be an object")
    try:
        a, b = sequence_spec.get("k_range", (0, 2))
        k_range = range(check_level("k", int(a)), check_level("k", int(b)) + 1)
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise InvalidParams(f"bad sequence field: {e}") from e
    spaces, limit, K, N, ns = _family_members(sequence_spec)
    if not ns or not k_range:
        raise InvalidParams("empty n or k range: the run would check nothing")

    kbars = {s.regularity_k for s in spaces} | {limit.regularity_k}
    if len(kbars) != 1:
        raise RegularityMismatch(f"mixed regularity parameters {sorted(kbars)}")
    if min(k_range) < limit.regularity_k:
        raise RegularityMismatch("k range starts below the shared parameter")

    limit_cuts = {k: k_cut(limit, k) for k in k_range}
    rows = []
    series: dict = {}
    for n, sp in zip(ns, spaces):
        terms_rows, series[int(n)] = ikrw_series(
            (k, k_cut(sp, k), limit_cuts[k]) for k in k_range)
        rows.extend(ConvergenceRow(
            n=int(n), k=int(k), log_mass_gap=terms["log_mass"],
            base_point_gap=terms["base_point"],
            hausdorff_gap=terms["hausdorff"], wc_gap=terms["wc"], total=total)
            for k, total, terms, _ in terms_rows)

    suite = None
    if run_cd:
        suite = cd_suite(limit, K, N + 1.0, cd_samples, seed, tol=tol)
    return ConvergenceTable(rows=tuple(rows), series=series), suite
