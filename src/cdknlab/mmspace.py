"""Discretized 1-D pointed metric measure spaces with blow-up reference measures.

A space is a uniform-in-spirit (strictly increasing) cell grid over a bounded
interval, a nonnegative cell density sampled at cell midpoints, a finite set
of singular points where every neighborhood carries infinite mass, a marked
cut-anchor set used by the k-cut construction (equal to the singular set for
canonical spaces), a base point, and a regularity parameter k_bar such that
every k-cut with k >= k_bar has positive finite mass.

Cells whose edge touches a true singular point store density +inf: their raw
mass is infinite, and every k-cut annihilates them exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import EmptyCut, InvalidParams, SingularPointOffGrid

_EDGE_TOL = 1e-9
# Largest grid_n an input file may ask for.  `cdknlab model` on a cos_n
# space of this size takes about 1.5 s and 150 MB; every test and benchmark
# stays at or below 2048.
MAX_GRID_N = 2 ** 20
# Largest |k| (cut level) or |n| (family member) an input may ask for.  Scales
# 2^k overflow a double past k = 1023, and a sequence file builds one space
# per n; every test and benchmark stays at |k| <= 12 and n <= 10.
MAX_LEVEL = 64
# detect_singular_set: neighbourhood radii tried, each half the last.
_SINGULAR_LEVELS = 4


def check_level(name: str, value: int) -> int:
    """`value` when |value| <= MAX_LEVEL, else InvalidParams."""
    if abs(value) > MAX_LEVEL:
        raise InvalidParams(f"{name} {value} outside [-{MAX_LEVEL}, {MAX_LEVEL}]")
    return value


def f_cut(x):
    """Plateau cut-off: 1 on [0,1], linear down to 0 on [1,2], 0 beyond."""
    x = np.asarray(x, dtype=float)
    out = np.minimum(1.0, np.maximum(0.0, 2.0 - x))
    return float(out) if out.ndim == 0 else out


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, flagged so that a write into it raises ValueError."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing cell edges over a bounded interval.

    The cell widths and centres are computed once, at construction, and
    every read returns the same array.  They and the edges, a copy of the
    edges given, are read-only, so that none can change under the others."""

    edges: np.ndarray

    def __post_init__(self):
        edges = _read_only(np.array(self.edges, dtype=float))
        if edges.ndim != 1 or edges.size < 3:
            raise InvalidParams("grid needs at least 2 cells")
        widths = np.diff(edges)
        if not np.all(widths > 0):
            raise InvalidParams("grid edges must be strictly increasing")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_widths", _read_only(widths))
        object.__setattr__(self, "_centers",
                           _read_only(0.5 * (edges[:-1] + edges[1:])))

    @classmethod
    def uniform(cls, a: float, b: float, n: int) -> "Grid1D":
        # 2 max(|a|, |b|) bounds each e_i + e_(i+1) that `centers` forms
        if not (a < b and math.isfinite(2.0 * max(abs(a), abs(b)))):
            raise InvalidParams(f"bad interval [{a}, {b}]")
        if n < 2:
            raise InvalidParams("need at least 2 cells")
        return cls(np.linspace(a, b, n + 1))

    @property
    def n(self) -> int:
        return self.edges.size - 1

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def widths(self) -> np.ndarray:
        return self._widths

    @property
    def a(self) -> float:
        return float(self.edges[0])

    @property
    def b(self) -> float:
        return float(self.edges[-1])

    def refined(self, factor: int) -> "Grid1D":
        """The grid with every cell split into `factor` equal parts."""
        e = self.edges
        sub = np.linspace(e[:-1], e[1:], factor + 1, axis=1)[:, :-1]
        return Grid1D(np.append(sub.ravel(), e[-1]))


@dataclass(frozen=True)
class ModelSpec:
    """Parameters describing an analytic model space before discretization."""

    kind: str
    K: float = 0.0
    N: float = -2.0
    alpha: float = 1.0
    J: int = 2
    domain: Optional[tuple] = None
    grid_n: int = 512
    base_point: Optional[float] = None
    regularity_k: int = 0
    psi_samples: Optional[Sequence[float]] = None


@dataclass(frozen=True)
class PointedSpace1D:
    """Discretized pointed space (grid, density, singular set, base point)."""

    grid: Grid1D
    density: np.ndarray
    singular_points: tuple
    base_point: float
    regularity_k: int = 0
    cut_anchors: Optional[tuple] = None
    # log V, the log of the model's density, for arrays of points
    log_density: Optional[Callable] = None
    # the reference mass cut off the model's analytic support, integrated
    # when called; None when the domain cuts nothing off
    tail_mass_fn: Optional[Callable[[], float]] = None
    kind: Optional[str] = None

    def __post_init__(self):
        # a read-only copy, as cell_masses is computed from it once
        dens = _read_only(np.array(self.density, dtype=float))
        if dens.shape != (self.grid.n,):
            raise InvalidParams("density must have one value per cell")
        if np.any(dens < 0) or np.any(np.isnan(dens)):
            raise InvalidParams("density must be nonnegative")
        object.__setattr__(self, "density", dens)
        object.__setattr__(self, "singular_points", tuple(sorted(self.singular_points)))
        if self.cut_anchors is not None:
            object.__setattr__(self, "cut_anchors", tuple(sorted(self.cut_anchors)))
        a, b = self.grid.a, self.grid.b
        if not (a - _EDGE_TOL <= self.base_point <= b + _EDGE_TOL):
            raise InvalidParams("base point outside the domain")
        pts = np.asarray(self.singular_points, dtype=float)
        outside = ~((a - _EDGE_TOL <= pts) & (pts <= b + _EDGE_TOL))
        if outside.any():
            s = self.singular_points[int(np.argmax(outside))]
            raise InvalidParams(f"singular point {s} outside the domain")
        _require_on_edge(self.grid, self.singular_points)
        with np.errstate(invalid="ignore"):
            object.__setattr__(self, "_cell_masses",
                               _read_only(dens * self.grid.widths))

    @property
    def anchors(self) -> tuple:
        """Marked set driving the k-cut kill factor (singular set by default)."""
        return self.cut_anchors if self.cut_anchors is not None else self.singular_points

    @property
    def domain_truncation(self) -> bool:
        """Whether the domain cuts off part of the model's analytic support."""
        return self.tail_mass_fn is not None

    @property
    def truncated_tail_mass(self) -> float:
        """Reference mass of the model cut off the domain, 0 when nothing is
        cut off.  A model space integrates it on the first read only."""
        return self.tail_mass_fn() if self.tail_mass_fn is not None else 0.0

    @property
    def cell_masses(self) -> np.ndarray:
        """density * cell width per cell, computed once at construction and
        read-only."""
        return self._cell_masses

    def scaled(self, c: float) -> "PointedSpace1D":
        """Space with reference measure multiplied by c > 0."""
        if not c > 0:
            raise InvalidParams("scale must be positive")
        fn, tail = self.log_density, self.tail_mass_fn
        new_fn = ((lambda x, _f=fn, _lc=math.log(c): _f(x) + _lc)
                  if fn is not None else None)
        new_tail = (lambda _t=tail, _c=c: _c * _t()) if tail is not None else None
        return replace(self, density=self.density * c, log_density=new_fn,
                       tail_mass_fn=new_tail)


def _require_on_edge(grid: Grid1D, points: Sequence[float]):
    off = _dist_to_set(points, grid.edges) > _EDGE_TOL * max(1.0, grid.b - grid.a)
    if off.any():
        s = points[int(np.argmax(off))]
        raise SingularPointOffGrid(f"point {s} is not a cell edge")


def _singular_adjacent_cells(grid: Grid1D, points: Sequence[float]) -> np.ndarray:
    """Indices of cells having a singular point on one of their edges."""
    tol = _EDGE_TOL * max(1.0, grid.b - grid.a)
    e = np.nonzero(_dist_to_set(grid.edges, points) <= tol)[0]
    return np.unique(np.concatenate([e[e > 0] - 1, e[e < grid.n]]))


def _dist_to_set(x, points: Sequence[float]) -> np.ndarray:
    """Distance from each x to the nearest of `points` (+inf if none): exactly
    the dense min, since a rounded |x - p| is least at a sorted neighbour of x."""
    x = np.asarray(x, dtype=float)
    if len(points) == 0:
        return np.full(x.shape, np.inf)
    pts = np.sort(np.asarray(points, dtype=float))
    i = np.searchsorted(pts, x)
    return np.minimum(np.abs(x - pts[np.maximum(i - 1, 0)]),
                      np.abs(x - pts[np.minimum(i, pts.size - 1)]))


# ---------------------------------------------------------------------------
# analytic model densities


def _quad(fn, lo: float, hi: float) -> float:
    """The integral of fn over (lo, hi) by scipy's quad, to a relative
    tolerance only: an absolute one would pass a tail that is tiny only
    because fn is scaled down.  Raises InvalidParams with quad's message
    where quad reports that it failed, in place of its IntegrationWarning
    and unreliable value."""
    from scipy import integrate  # here, so that only a tail report loads it

    out = integrate.quad(fn, lo, hi, epsabs=0.0, full_output=1)
    if len(out) > 3:
        raise InvalidParams(f"integral over ({lo}, {hi}) failed: "
                            + " ".join(out[3].split()))
    return out[0]


def _cauchy_norm(alpha: float) -> float:
    """The integral of (1 + x^2)^-s over the line, s = (1 + alpha) / 2, in
    closed form: sqrt(pi) Gamma(s - 1/2) / Gamma(s), with s - 1/2 = alpha / 2."""
    s = 0.5 * (1.0 + alpha)
    if s >= 1e3:
        # the two lgammas cancel here, losing about s log(s) ulps; the
        # ratio's asymptotic series does not (its next term is 0.05 / s^4)
        u = 1.0 / s
        return math.sqrt(math.pi * u) * (
            1.0 + u * (3.0 / 8.0 + u * (25.0 / 128.0 + u * 105.0 / 1024.0)))
    try:
        return math.sqrt(math.pi) * math.exp(math.lgamma(0.5 * alpha)
                                             - math.lgamma(s))
    except (ValueError, OverflowError):
        # Gamma(alpha / 2) ~ 2 / alpha is past the double range
        raise InvalidParams(f"cauchy alpha {alpha} too small to normalise") from None


def _model_density(spec: ModelSpec) -> tuple:
    """Return (log_density, analytic_domain, singular_points, default_p),
    where log_density maps an array of points to log V, the one formula of
    the model, written so that no power of its base overflows.  Nothing is
    integrated: the one normalising constant (cauchy's) is in closed form."""
    K, N = spec.K, spec.N
    kind = spec.kind
    # a glued_ kind mirrors its one-sided model across the blow-up point 0
    half_line = (-math.inf if kind in ("glued_sinh_n", "glued_power_n") else 0.0,
                 math.inf)
    if kind == "cosh_n":
        if not (K > 0 and N < -1):
            raise InvalidParams("cosh_n needs K > 0 and N < -1")
        a = math.sqrt(-K / N)
        def log_v(x):
            ax = a * np.asarray(x, float)
            return N * (np.logaddexp(ax, -ax) - math.log(2.0))
        return log_v, (-math.inf, math.inf), (), 0.0
    if kind in ("sinh_n", "glued_sinh_n"):
        if not (K > 0 and N < -1):
            raise InvalidParams(f"{kind} needs K > 0 and N < -1")
        a = math.sqrt(-K / N)
        return (lambda x: N * np.log(np.abs(np.sinh(a * np.asarray(x, float)))),
                half_line, (0.0,), 1.0)
    if kind in ("power_n", "glued_power_n"):
        if not N < -1:
            raise InvalidParams(f"{kind} needs N < -1")
        return (lambda x: N * np.log(np.abs(np.asarray(x, float))),
                half_line, (0.0,), 1.0)
    if kind == "cos_n":
        if not (K < 0 and N < -1):
            raise InvalidParams("cos_n needs K < 0 and N < -1")
        b = math.sqrt(K / N)
        half = 0.5 * math.pi * math.sqrt(N / K)
        return (lambda x: N * np.log(np.clip(np.cos(b * np.asarray(x, float)), 0.0, None)),
                (-half, half), (-half, half), 0.0)
    if kind == "glued_cos_n":
        if not (K < 0 and N < -1 and spec.J >= 1):
            raise InvalidParams("glued_cos_n needs K < 0, N < -1, J >= 1")
        if spec.grid_n % spec.J:
            # only then is each of the J + 1 gluing points a cell edge
            raise InvalidParams(f"glued_cos_n needs J to divide grid_n, got "
                                f"J={spec.J}, grid_n={spec.grid_n}")
        b = math.sqrt(K / N)
        half = 0.5 * math.pi * math.sqrt(N / K)
        J = spec.J
        def log_v(x):
            x = np.asarray(x, float)
            j = np.clip(np.round(x / (2.0 * half)), 1, J)
            return N * np.log(np.clip(np.cos(b * (x - 2.0 * half * j)), 0.0, None))
        sing = tuple((2 * j - 1) * half for j in range(1, J + 2))
        return log_v, (half, (2 * J + 1) * half), sing, 2.0 * half
    if kind == "cauchy":
        if not 0 < spec.alpha < math.inf:
            raise InvalidParams("cauchy needs a finite alpha > 0")
        expo = 0.5 * (1.0 + spec.alpha)
        log_c = -math.log(_cauchy_norm(spec.alpha))
        return (lambda x: log_c - expo * np.log1p(np.asarray(x, float) ** 2),
                (-math.inf, math.inf), (), 0.0)
    raise InvalidParams(f"unknown model kind {kind!r}")


def _discretize(grid: Grid1D, log_density: Callable,
                singular_points: Sequence[float]) -> np.ndarray:
    """Cell density V = exp(log V) at the cell centres, +inf on every cell
    with a singular point on one of its edges.  The one place where a
    model's V is formed; it is 0 or +inf where exp under- or overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        density = np.exp(log_density(grid.centers))
    density[_singular_adjacent_cells(grid, singular_points)] = np.inf
    return density


def _tail_mass(log_density, lo: float, hi: float, sing: Sequence[float]) -> float:
    """Reference mass of a cut-off tail (lo, hi), the integral of exp(log V).
    It is +inf when the tail reaches a singular point: every model density
    blows up there like |x - s|^N with N < -1, which is not integrable."""
    if any(lo - _EDGE_TOL <= s <= hi + _EDGE_TOL for s in sing):
        return math.inf
    with np.errstate(divide="ignore", over="ignore"):
        return _quad(lambda x: np.exp(log_density(x)), lo, hi)


def build_model_space(spec: ModelSpec) -> PointedSpace1D:
    """Discretize an analytic model onto a uniform grid (midpoint sampling).

    Nothing is integrated here: the tails cut off the analytic support are
    integrated on the first read of `truncated_tail_mass`."""
    if spec.kind == "custom_psi":
        if spec.psi_samples is None or spec.domain is None:
            raise InvalidParams("custom_psi needs psi_samples and a domain")
        psi = np.asarray(spec.psi_samples, dtype=float)
        grid = Grid1D.uniform(spec.domain[0], spec.domain[1], psi.size)
        with np.errstate(over="ignore"):
            density = np.exp(-psi)
        if np.isinf(density).any():
            raise InvalidParams("custom_psi needs exp(-psi) finite: every psi > -709.78")
        p = spec.base_point if spec.base_point is not None else grid.centers[psi.size // 2]
        return PointedSpace1D(grid=grid, density=density, singular_points=(),
                              base_point=float(p), regularity_k=spec.regularity_k,
                              kind="custom_psi")

    fn, analytic_dom, model_sing, default_p = _model_density(spec)
    if spec.domain is not None:
        a, b = float(spec.domain[0]), float(spec.domain[1])
    else:
        a, b = analytic_dom
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidParams(f"{spec.kind} needs an explicit bounded domain")
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise InvalidParams(f"bad domain [{a}, {b}]")
    lo, hi = analytic_dom
    if a < lo - _EDGE_TOL or b > hi + _EDGE_TOL:
        raise InvalidParams("domain exceeds the analytic support")
    if spec.kind in ("cos_n", "glued_cos_n"):
        # endpoints must land exactly on the vanishing locus
        if abs(a - lo) > 1e-9 or abs(b - hi) > 1e-9:
            raise InvalidParams("cos-type domains must span the full arches")

    grid = Grid1D.uniform(a, b, spec.grid_n)
    sing = tuple(s for s in model_sing if a - _EDGE_TOL <= s <= b + _EDGE_TOL)
    density = _discretize(grid, fn, sing)
    if not np.any(density > 0):
        raise InvalidParams(f"{spec.kind} density underflows to 0 on every cell")

    tails = [(u, v) for u, v in ((lo, a), (b, hi)) if v > u + _EDGE_TOL]
    tail_fn = None
    if tails:
        @functools.cache
        def tail_fn():
            return float(sum(_tail_mass(fn, u, v, model_sing) for u, v in tails))

    p = float(spec.base_point) if spec.base_point is not None else float(default_p)
    if _dist_to_set(np.asarray(p), sing) <= 0.5 * float(np.max(grid.widths)):
        raise InvalidParams("base point too close to a singular point")
    space = PointedSpace1D(grid=grid, density=density, singular_points=sing,
                           base_point=p, regularity_k=spec.regularity_k,
                           log_density=fn, tail_mass_fn=tail_fn, kind=spec.kind)
    k_cut(space, spec.regularity_k)  # raises EmptyCut when k_bar is too small
    return space


# ---------------------------------------------------------------------------
# singular-set machinery


def detect_singular_set(space: PointedSpace1D) -> tuple:
    """Points whose shrinking neighborhoods keep gaining mass.

    Every grid edge is a candidate.  The log mass of its radius-r
    neighborhood is the log-sum of log V at 128 subcell midpoints, shifted
    by their largest value so that nothing overflows, plus the log of the
    subcell width.  A candidate is singular when its log mass strictly grows
    at each halving of r, across four radii: near a point where V is
    integrable the mass shrinks with r, near one where V ~ |x - s|^N with
    N < -1 it grows like r^(N + 1).
    A space with no analytic density (custom sampled weights, a k-cut) has
    nothing to refine and keeps its declared singular set.
    """
    if space.log_density is None:
        return space.singular_points
    edges = space.grid.edges
    a, b = space.grid.a, space.grid.b
    r0 = 4.0 * float(np.max(space.grid.widths))
    nsub = 128
    log_m = np.empty((_SINGULAR_LEVELS, edges.size))
    offsets = (np.arange(nsub) + 0.5) / nsub
    for lev in range(_SINGULAR_LEVELS):
        r = r0 * 0.5 ** lev
        lo = np.maximum(edges - r, a)
        hi = np.minimum(edges + r, b)
        pts = lo[:, None] + np.outer(hi - lo, offsets)
        with np.errstate(divide="ignore", over="ignore"):
            lv = space.log_density(pts.ravel()).reshape(edges.size, nsub)
            top = np.max(lv, axis=1)
            top[~np.isfinite(top)] = 0.0  # an all -inf or a +inf row sums as is
            lv -= top[:, None]
            log_m[lev] = (top + np.log(np.sum(np.exp(lv, out=lv), axis=1))
                          + np.log((hi - lo) / nsub))
    hit = np.all(log_m[1:] > log_m[:-1], axis=0)
    return tuple(float(e) for e in edges[hit])


def carve(pieces: Sequence[tuple[float, float]], points: Sequence[float],
          r: float) -> list[tuple[float, float]]:
    """Cut the open r-neighbourhood (r >= 0) of every point out of a list of
    intervals, dropping pieces with a >= b.  Each piece sweeps only the points
    whose neighbourhood meets it (s + r > a and s - r < b)."""
    srt = sorted(points)
    pts = np.asarray(srt, dtype=float)
    right, left = pts + r, pts - r
    out = []
    for a, b in pieces:
        lo = int(np.searchsorted(right, a, side="right"))
        hi = int(np.searchsorted(left, b, side="left"))
        for s in srt[lo:hi]:
            if s - r > a:
                out.append((a, s - r))
            a = max(a, s + r)
        if a < b:
            out.append((a, b))
    return out


def cut_weights(space: PointedSpace1D, k: int) -> np.ndarray:
    """The k-cut multiplier f^k evaluated at cell centers."""
    x = space.grid.centers
    return (f_cut(np.abs(x - space.base_point) * 2.0 ** (-k))
            * (1.0 - f_cut(_dist_to_set(x, space.anchors) * 2.0 ** k)))


def k_cut(space: PointedSpace1D, k: int) -> PointedSpace1D:
    """Space with density multiplied by the k-cut function.

    Cells adjacent to a true singular point are zeroed exactly, so infinite
    densities never survive a cut.  Singular points and anchors are kept as
    metadata on the cut space; the cut carries no analytic density.
    """
    if k < space.regularity_k:
        raise InvalidParams(f"k={k} below regularity parameter {space.regularity_k}")
    w = cut_weights(space, k)
    with np.errstate(invalid="ignore"):
        density = np.where(np.isfinite(space.density), space.density * w, 0.0)
    adj = _singular_adjacent_cells(space.grid, space.singular_points)
    if adj.size:
        density[adj] = 0.0
    cut = replace(space, density=density, log_density=None)
    if float(np.sum(cut.cell_masses)) <= 0.0:
        raise EmptyCut(f"k={k} cut has no mass")
    return cut


def total_mass(space: PointedSpace1D) -> float:
    """Total reference mass; +inf when a singular cell is present."""
    m = space.cell_masses
    if np.any(np.isinf(m)):
        return math.inf
    return float(np.sum(m))


# ---------------------------------------------------------------------------
# descriptors


def space_from_dict(d: dict) -> PointedSpace1D:
    if not isinstance(d, dict) or "kind" not in d:
        raise InvalidParams("space descriptor must be an object with a 'kind'")
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise InvalidParams("descriptor 'params' must be an object")
    try:
        domain = None
        if "domain" in d:
            a, b = d["domain"]
            domain = (float(a), float(b))
        spec = ModelSpec(
            kind=d["kind"],
            K=float(params.get("K", 0.0)),
            N=float(params.get("N", -2.0)),
            alpha=float(params.get("alpha", 1.0)),
            J=int(params.get("J", 2)),
            domain=domain,
            grid_n=int(d.get("grid_n", 512)),
            base_point=(float(d["base_point"]) if d.get("base_point") is not None
                        else None),
            regularity_k=int(d.get("regularity_k", 0)),
            psi_samples=(tuple(float(v) for v in d["psi_samples"])
                         if d.get("psi_samples") is not None else None),
        )
        if spec.grid_n > MAX_GRID_N:
            raise InvalidParams(f"grid_n {spec.grid_n} exceeds {MAX_GRID_N}")
        check_level("regularity_k", spec.regularity_k)
        if domain is None and spec.kind != "custom_psi":
            # cut each infinite end of the analytic domain at -R or R
            lo, hi = _model_density(spec)[1]
            if math.isinf(lo) or math.isinf(hi):
                if d.get("truncation_radius") is None:
                    raise InvalidParams(
                        f"{spec.kind} needs a domain or truncation_radius")
                R = float(d["truncation_radius"])
                spec = replace(spec, domain=(-R if math.isinf(lo) else lo,
                                             R if math.isinf(hi) else hi))
    except (TypeError, ValueError, OverflowError) as e:
        raise InvalidParams(f"bad descriptor field: {e}") from e
    return build_model_space(spec)


def space_summary(space: PointedSpace1D) -> dict:
    tm = total_mass(space)
    return {
        "kind": space.kind,
        "grid_n": space.grid.n,
        "domain": [space.grid.a, space.grid.b],
        "base_point": space.base_point,
        "regularity_k": space.regularity_k,
        "singular_points": list(space.singular_points),
        "total_mass": "inf" if math.isinf(tm) else tm,
        "domain_truncation": space.domain_truncation,
        "truncated_tail_mass": space.truncated_tail_mass,
    }
