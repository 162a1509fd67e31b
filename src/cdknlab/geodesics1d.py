"""Displacement interpolation along monotone maps on the line.

The time-t measure of the quantile coupling transports each mass segment
affinely, so mu_t is an explicit finite union of uniform blocks; binning onto
a grid only evaluates the exact block CDF at cell edges and never loses mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridTooCoarse, InvalidParams
from .measure import DiscreteMeasure
from .mmspace import Grid1D
from .transport import MonotoneMap, monotone_map

def blocks_cdf(u0: np.ndarray, u1: np.ndarray, w: np.ndarray,
               pts: np.ndarray) -> np.ndarray:
    """CDF of the union-of-uniform-blocks measure at the given points.

    The blocks must be ordered and disjoint, u0[s] <= u1[s] <= u0[s+1], as
    the time slices of a monotone map are.  The CDF is then the
    piecewise-linear function through the block ends, and a zero-width block
    is a step.  Ends that cross by rounding are clamped; a real overlap
    raises InvalidParams.  (T, S) ends are T block sets sharing the masses
    w, such as the slices of one map at T times: the result is (T, P), each
    row checked and evaluated as the 1-D call on that row.
    """
    knots = np.stack([u0, u1], axis=-1).reshape(np.shape(u0)[:-1] + (-1,))
    ordered = np.maximum.accumulate(knots, axis=-1)
    span = ordered[..., -1:] - np.min(knots, axis=-1, keepdims=True)
    if np.any(ordered - knots > 1e-12 * span):
        raise InvalidParams("blocks must be ordered and disjoint")
    c = np.concatenate([[0.0], np.cumsum(w)])
    vals = np.column_stack([c[:-1], c[1:]]).ravel()
    rows = ordered.reshape(-1, ordered.shape[-1])
    return np.array([np.interp(pts, row, vals, left=0.0, right=c[-1])
                     for row in rows]).reshape(ordered.shape[:-1] + np.shape(pts))


def bin_blocks(u0: np.ndarray, u1: np.ndarray, w: np.ndarray,
               grid: Grid1D, tol: float = 1e-12) -> DiscreteMeasure:
    """Bin uniform blocks onto a grid; raise if any mass falls outside.

    1-D ends give a DiscreteMeasure.  (T, S) ends, T block sets sharing the
    masses w as in blocks_cdf, are binned from one CDF call into (T, n)
    masses; each row is checked on its own and equals the masses of the
    1-D call on that row.

    The CDF is evaluated only at the edges from the last one before the
    first knot to the first one after the last knot: beyond them it is
    exactly 0 or the blocks' total, so every other cell's mass is 0, and
    the CDF at the window's two ends equals that at the grid's, so the mass
    found outside the grid is the full grid's bit for bit.
    """
    total = float(np.sum(w))
    edges = grid.edges
    lo = min(np.min(u0), np.min(u1))
    hi = max(np.max(u0), np.max(u1))
    i0 = max(int(edges.searchsorted(lo, side="left")) - 1, 0)
    i1 = min(int(edges.searchsorted(hi, side="right")), grid.n)
    cdf = blocks_cdf(u0, u1, w, edges[i0:i1 + 1])
    outside = cdf[..., 0] + (total - cdf[..., -1])
    leaks = outside[outside > tol * max(total, 1.0)]
    if leaks.size:
        raise GridTooCoarse(
            f"{leaks.max():.3e} of {total:.6g} mass falls outside the grid")
    masses = np.zeros(cdf.shape[:-1] + (grid.n,))
    np.maximum(np.diff(cdf, axis=-1), 0.0, out=masses[..., i0:i1])
    return masses if masses.ndim > 1 else DiscreteMeasure(grid, masses)


def union_refined_grid(g0: Grid1D, g1: Grid1D) -> Grid1D:
    """Output grid: the union of both edge sets, each cell split in 4."""
    return Grid1D(np.union1d(g0.edges, g1.edges)).refined(4)


@dataclass(frozen=True)
class GeodesicSlice:
    """Time slice of a displacement interpolation."""

    t: float
    measure: DiscreteMeasure


def displacement_interpolate(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                             t: float, tmap: Optional[MonotoneMap] = None
                             ) -> GeodesicSlice:
    """Time-t measure of the monotone W2 geodesic from mu0 to mu1.

    The pushforward under T_t = (1-t) id + t T is binned onto the union grid
    refined 4x.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParams(f"t={t} outside [0, 1]")
    if tmap is None:
        tmap = monotone_map(mu0, mu1)
    u0, u1, w = tmap.interpolate_blocks(float(t))
    return GeodesicSlice(t=float(t), measure=bin_blocks(
        u0, u1, w, union_refined_grid(mu0.grid, mu1.grid)))
