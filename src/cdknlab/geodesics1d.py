"""Displacement interpolation along monotone maps on the line.

The time-t measure of the quantile coupling transports each mass segment
affinely, so mu_t is an explicit finite union of uniform blocks; binning onto
a grid only evaluates the exact block CDF at cell edges and never loses mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateJacobian, GridTooCoarse, InvalidParams
from .measure import DensityWrtM, DiscreteMeasure, radon_nikodym
from .mmspace import Grid1D, PointedSpace1D
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
    """Bin uniform blocks onto a grid; raise if any mass falls outside."""
    total = float(np.sum(w))
    cdf = blocks_cdf(u0, u1, w, grid.edges)
    outside = cdf[0] + (total - cdf[-1])
    if outside > tol * max(total, 1.0):
        raise GridTooCoarse(
            f"{outside:.3e} of {total:.6g} mass falls outside the grid")
    return DiscreteMeasure(grid, np.maximum(np.diff(cdf), 0.0))


def union_refined_grid(g0: Grid1D, g1: Grid1D, factor: int = 4) -> Grid1D:
    """Default output grid: the union of both edge sets, each cell split."""
    return Grid1D(np.union1d(g0.edges, g1.edges)).refined(factor)


@dataclass(frozen=True)
class GeodesicSlice:
    """Time slice of a displacement interpolation."""

    t: float
    measure: DiscreteMeasure
    density_wrt_m: Optional[DensityWrtM] = None


def displacement_interpolate(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                             t: float, out_grid: Optional[Grid1D] = None,
                             space: Optional[PointedSpace1D] = None,
                             tmap: Optional[MonotoneMap] = None) -> GeodesicSlice:
    """Time-t measure of the monotone W2 geodesic from mu0 to mu1.

    The pushforward under T_t = (1-t) id + t T is binned onto `out_grid`
    (default: the union grid refined 4x).  When `space` is given its grid is
    used and the slice's density w.r.t. the reference measure is attached.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParams(f"t={t} outside [0, 1]")
    if tmap is None:
        tmap = monotone_map(mu0, mu1)
    if space is not None:
        out_grid = space.grid
    elif out_grid is None:
        out_grid = union_refined_grid(mu0.grid, mu1.grid)
    u0, u1, w = tmap.interpolate_blocks(float(t))
    measure = bin_blocks(u0, u1, w, out_grid)
    dens = radon_nikodym(measure, space) if space is not None else None
    return GeodesicSlice(t=float(t), measure=measure, density_wrt_m=dens)


def jacobi_density(mu0: DiscreteMeasure, space: PointedSpace1D,
                   T: MonotoneMap, t: float) -> DensityWrtM:
    """Density of mu_t w.r.t. the reference measure via change of variables.

    Evaluates   rho_t(T_t(x)) = rho_0(x) V(x) / (V(T_t(x)) (1 + t(T'(x)-1)))
    with V the reference density, at segment midpoints, then aggregates
    mass-weighted means per cell of the space grid.  Segments landing in
    cells without finite positive reference density are dropped (one-cell
    discrepancy zone around blow-up points; its mass is not reported here).
    """
    x = T.x_mid
    slopes = T.slopes
    jac = 1.0 + t * (slopes - 1.0)
    if np.any(jac <= 0):
        raise DegenerateJacobian("monotone map has a nonpositive slope")
    xt = (1.0 - t) * x + t * T.y_mid

    rho0 = radon_nikodym(mu0, space).values[T.i]
    if space.density_fn is not None:
        v0 = np.asarray(space.density_fn(x), dtype=float)
        vt = np.asarray(space.density_fn(xt), dtype=float)
    else:
        v0 = space.density[T.i]
        vt = space.density[np.clip(space.grid.locate(xt), 0, space.grid.n - 1)]
    keep = np.isfinite(v0) & np.isfinite(vt) & (vt > 0)
    rho_seg = np.zeros(x.size)
    rho_seg[keep] = rho0[keep] * v0[keep] / (vt[keep] * jac[keep])

    cells = np.clip(space.grid.locate(xt[keep]), 0, space.grid.n - 1)
    wsum = np.bincount(cells, weights=T.w[keep], minlength=space.grid.n)
    vsum = np.bincount(cells, weights=T.w[keep] * rho_seg[keep],
                       minlength=space.grid.n)
    with np.errstate(invalid="ignore"):
        values = np.where(wsum > 0, vsum / np.maximum(wsum, 1e-300), 0.0)
    return DensityWrtM(space.grid, values)
