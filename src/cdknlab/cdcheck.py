"""Curvature-dimension verification with negative generalized dimension.

The verifier tests, along the monotone W2 geodesic between two absolutely
continuous marginals, whether the Renyi entropy at each intermediate time
stays below the distortion functional

    T_(K,N)^(t)(pi | m) = sum_pi [ tau_(K,N)^(1-t)(d) rho0^(-1/N)
                                 + tau_(K,N)^(t)(d)   rho1^(-1/N) ] w

for every N' in [N, 0) on a grid.  Rows where an endpoint entropy is not
finite are skipped (the defining inequality is only required when both are),
and rows whose right side is infinite are vacuously true.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .distortion import _lengths, _times, sigma_kappa_lengths, tau_KN_vec
from .errors import (
    DomainError,
    InvalidParams,
    MarginalMismatch,
    MismatchedInputs,
    SamplerEntropyViolation,
    SupportViolation,
)
from .geodesics1d import bin_blocks, blocks_cdf
from .measure import (
    DensityWrtM,
    DiscreteMeasure,
    entropy_from_masses,
    measure_from_dict,
    radon_nikodym,
    renyi_entropy,
)
from .mmspace import Grid1D, PointedSpace1D, carve
from .transport import Coupling, monotone_map

STATUS_OK = "ok"
STATUS_VIOLATED = "violated"
STATUS_VACUOUS = "vacuous_inf"
STATUS_SKIPPED = "skipped_entropy_inf"

DEFAULT_TOL = 5e-2
# Entropies of intermediate slices are taken on this refinement of the grid.
REFINE_FACTOR = 4
# Richardson rule: the fine grid's worst deficit must be at most the coarse
# one's divided by RICHARDSON_SHRINK, plus RICHARDSON_SLACK.
RICHARDSON_SHRINK = 1.5
RICHARDSON_SLACK = 1e-4
# Draws per accepted marginal pair, and the shapes drawn.
MAX_TRIES = 60
SPEC_KINDS = ("uniform_block", "bump", "mixture")
OMEGA_T_GRID = 9


def margin_scale(s_value, t_value):
    """Unit for the pass tolerance of a row: max(1, |S|, |T|) over the
    finite sides.  Floats give a float, and arrays of one shape an array
    of the rows' units.

    Both sides of the inequality are computed to relative accuracy, and for
    N' near zero they grow like rho^(-1/N'), so an absolute tolerance would
    be either vacuous or unreachable there.  The tolerance is absolute while
    the sides are O(1) and proportional to them beyond.
    """
    sides = np.abs(np.array([s_value, t_value], dtype=float))
    out = np.max(np.where(np.isfinite(sides), sides, 1.0), axis=0, initial=1.0)
    return out if out.ndim else float(out)


def default_nprime_grid(N: float, count: int = 9) -> np.ndarray:
    """Geometric grid of N' values covering [N, 0), from N up to -1e-3."""
    if N >= 0:
        raise DomainError("N must be negative")
    if count < 1:
        raise InvalidParams("need at least one N'")
    hi = 1e-3
    if -N <= hi:
        return np.array([N])
    return -np.geomspace(-N, hi, count)


def default_t_grid(count: int = 11) -> np.ndarray:
    """count equispaced times from 0 to 1, mirror-exact: the lower half is
    1 - the upper half, which is exact for times in [1/2, 1] (Sterbenz), so
    1 - t is again a time of the grid and tau is needed at count times only.
    Each time is within 2 ulp at 1/2 (2.2e-16) of np.linspace's."""
    if count < 1:
        raise InvalidParams("need at least one time")
    ts = np.linspace(0.0, 1.0, count)
    ts[:count // 2] = 1.0 - ts[::-1][:count // 2]
    return ts


# ---------------------------------------------------------------------------
# The distortion functional


def t_functional(coupling: Coupling, rho0: DensityWrtM, rho1: DensityWrtM,
                 K: float, N, t):
    """Right-hand side of the CD inequality for one coupling; may be +inf.

    N is one N' or a 1-D array of them, and t one time or a 1-D array of
    times.  Two scalars give a float; otherwise the result has an axis per
    array argument, N' first, and each entry equals the call with that N'
    and time alone.  The weights w rho^(-1/N') are formed first, one per
    segment, and each side is a row sum of tau times them at the distinct
    times of ts and 1 - ts.  tau is evaluated one N' at a time, so the
    working memory is O(times x segments) whatever the number of N'.

    At K = 0 tau is the time itself, so each side is the time times the sum
    of its weights, formed once per N'.  Only an N' whose sum overflows
    keeps the row sums, so that no finite side becomes inf; tau_KN_vec is
    not called.
    """
    nps = np.asarray(N, dtype=float).reshape(-1)
    if not np.all(nps < 0):  # NaN too
        raise DomainError("t_functional requires N < 0")
    w = coupling.w
    r0 = rho0.values[coupling.i]
    r1 = rho1.values[coupling.j]
    if np.any((w > 0) & ((r0 <= 0) | (r1 <= 0))):
        raise MarginalMismatch(
            "coupling carries mass where a marginal density vanishes")
    ts = np.asarray(t, dtype=float).reshape(-1)
    d = np.abs(coupling.x - coupling.y)
    times, back = np.unique(np.concatenate([1.0 - ts, ts]), return_inverse=True)
    if K == 0.0:  # the checks of the tau calls that this case skips
        _times(times)
        _lengths("theta", d)
    out = np.empty((nps.size, ts.size))
    for k, nprime in enumerate(nps.tolist()):
        expo = -1.0 / nprime
        with np.errstate(over="ignore", invalid="ignore"):
            ps = (w * r0 ** expo, w * r1 ** expo)
            # at K = 0 tau is the time itself: each side is the time times
            # the sum of its weights, unless that sum is past the doubles
            sums = [float(p.sum()) for p in ps] if K == 0.0 else []
            if sums and all(map(math.isfinite, sums)):
                sides = [times * s for s in sums]
            else:  # per segment; at K = 0, where a row below t = 1 may be finite
                tau = (tau_KN_vec(K, nprime, times, d) if K != 0.0
                       else np.broadcast_to(times[:, None], (times.size, d.size)))
                sides = []  # one sum per distinct time, for each endpoint
                for p in ps:
                    # an infinite tau gives inf, or NaN against a zero weight
                    terms = tau * p
                    if not np.isfinite(p).all():  # an overflowed weight, where
                        terms[tau == 0] = 0.0     # a zero tau still adds 0
                    sides.append(np.sum(terms, axis=-1))
        out[k] = sides[0][back[:ts.size]] + sides[1][back[ts.size:]]
    out[~np.isfinite(out)] = math.inf
    out = out.reshape(np.shape(N) + np.shape(t))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Regular regions as explicit interval unions


def regular_intervals(space: PointedSpace1D, k: int) -> list[tuple[float, float]]:
    """The k-th regular region of the space as disjoint closed intervals."""
    R = 2.0 ** (k + 1)
    r = 2.0 ** (-(k + 1))
    lo = max(space.grid.a, space.base_point - R)
    hi = min(space.grid.b, space.base_point + R)
    return carve([(lo, hi)], space.anchors, r)


def mass_in_intervals(u0: np.ndarray, u1: np.ndarray, w: np.ndarray,
                      interval_sets: Sequence[Sequence[tuple[float, float]]]
                      ) -> np.ndarray:
    """Block mass in each set of disjoint intervals, from one CDF call.

    Each set's mass is the sum over its own slice of the per-interval masses,
    so it does not depend on which other sets are passed with it.  (T, S)
    blocks, one time slice per row, give (T, sets) masses.
    """
    pts = np.array([e for ivs in interval_sets for iv in ivs for e in iv], dtype=float)
    cdf = blocks_cdf(u0, u1, w, pts)
    per_iv = cdf[..., 1::2] - cdf[..., 0::2]
    ends = np.cumsum([0] + [len(ivs) for ivs in interval_sets])
    out = np.empty(per_iv.shape[:-1] + (len(interval_sets),))
    for s, (a, b) in enumerate(zip(ends[:-1], ends[1:])):
        out[..., s] = per_iv[..., a:b].sum(axis=-1)
    return out


def _support_in_intervals(mu: DiscreteMeasure,
                          intervals: Sequence[tuple[float, float]]) -> bool:
    """Whether every charged cell's centre lies in one of the closed
    intervals, which must be sorted and disjoint (as regular_intervals
    returns them): a centre's interval is the last one starting at or
    before it."""
    ivs = np.asarray(intervals, dtype=float).reshape(-1, 2)
    c = mu.grid.centers[mu.support]
    i = np.searchsorted(ivs[:, 0], c, side="right")
    return bool((i > 0).all() and (c <= ivs[i - 1, 1]).all())


# ---------------------------------------------------------------------------
# The CD report


class CdRow(NamedTuple):
    """One (t, N') row of a CD check: the entropy S at time t, the right
    side T, the margin T - S and the status.  A named tuple, so that the
    rows of a check are built without a dataclass __init__ each."""
    t: float
    nprime: float
    s_value: float
    t_value: float
    margin: float
    status: str


@dataclass(frozen=True)
class CdReport:
    rows: tuple
    K: float
    N: float
    grid_n: int
    tol: float

    def counts(self) -> dict:
        out: dict = {}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def min_margin(self) -> float:
        w = self.worst()
        return w.margin if w is not None else math.inf

    def worst(self) -> Optional[CdRow]:
        finite = [r for r in self.rows if math.isfinite(r.margin)]
        return min(finite, key=lambda r: r.margin) if finite else None

    def passes(self) -> bool:
        """No row violated; each status was decided at this report's tol."""
        return all(r.status != STATUS_VIOLATED for r in self.rows)

    def worst_deficit(self) -> float:
        """Largest scaled violation max(0, -margin / scale) over rows."""
        s, t, m = np.array([(r.s_value, r.t_value, r.margin) for r in self.rows
                            if r.status in (STATUS_OK, STATUS_VIOLATED)]).reshape(-1, 3).T
        # a -inf margin gives +inf, as the unit is finite; max(0.0, ...) keeps
        # the +0.0 that a -0.0 deficit (a zero margin) would otherwise give
        return max(0.0, float(np.max(-m / margin_scale(s, t), initial=0.0)))


class _CdSetup(NamedTuple):
    """What every pair of one check shares: the times and N', the refined
    reference grid with its cell masses, and R^k (None when unrestricted)."""
    ts: np.ndarray
    nps: np.ndarray
    rgrid: Grid1D
    rmass: np.ndarray
    regular: Optional[list]


def _cd_setup(space: PointedSpace1D, N: float, t_grid, nprime_grid,
              restrict_to_regular_k: Optional[int]) -> _CdSetup:
    """The shared constants of verify_cd for these arguments."""
    if N >= 0:
        raise DomainError("verify_cd requires N < 0")
    ts = default_t_grid(t_grid) if isinstance(t_grid, int) else np.asarray(t_grid, float)
    nps = (default_nprime_grid(N, nprime_grid) if isinstance(nprime_grid, int)
           else np.asarray(nprime_grid, float))
    if not (ts.size and nps.size and np.all((nps < 0) & (nps >= N - 1e-12))):  # NaN too
        raise InvalidParams("need at least one time, and nprime values in [N, 0)")
    # the refined reference keeps every cell's density unchanged, so the
    # t=0/1 slices reproduce the endpoint entropies exactly instead of to
    # discretization order
    rgrid = space.grid.refined(REFINE_FACTOR)
    with np.errstate(invalid="ignore"):
        rmass = np.repeat(space.density, REFINE_FACTOR) * rgrid.widths
    regular = (None if restrict_to_regular_k is None
               else regular_intervals(space, restrict_to_regular_k))
    return _CdSetup(ts, nps, rgrid, rmass, regular)


def verify_cd(space: PointedSpace1D, mu0: DiscreteMeasure,
              mu1: DiscreteMeasure, K: float, N: float,
              t_grid=11, nprime_grid=9,
              restrict_to_regular_k: Optional[int] = None,
              tol: float = DEFAULT_TOL, *,
              setup: Optional[_CdSetup] = None) -> CdReport:
    """Check the CD(K, N) inequality along the monotone geodesic.

    t_grid and nprime_grid are counts of default grid points or 1-D arrays
    of at least one time and one N' in [N, 0).  Entropies of intermediate
    slices are taken against a 4x refined copy of the reference measure;
    the right side is evaluated per quantile segment (midpoint distances,
    endpoint-cell densities).  Margins are reported absolutely, but a row
    only counts as violated when it fails `tol` in units of margin_scale
    (relative once the sides exceed 1).  The grid takes one t_functional,
    one bin_blocks and one entropy call over every (t, N'), and statuses
    decided on (t, N') arrays.

    setup holds the grids, the refined reference and R^k that these
    arguments give; cd_suite builds it once for all its pairs, and it is
    built here when None.
    """
    if N >= 0:
        raise DomainError("verify_cd requires N < 0")
    rho0 = radon_nikodym(mu0, space)
    rho1 = radon_nikodym(mu1, space)
    if setup is None:
        setup = _cd_setup(space, N, t_grid, nprime_grid, restrict_to_regular_k)
    ts, nps = setup.ts, setup.nps
    if setup.regular is not None and not (_support_in_intervals(mu0, setup.regular)
                                          and _support_in_intervals(mu1, setup.regular)):
        raise SupportViolation(
            f"marginal support leaves the regular region k={restrict_to_regular_k}")

    tmap = monotone_map(mu0, mu1)
    coup = tmap.as_coupling()
    # (t, N') arrays: one row per time, one column per N'
    skipped = ~(np.isfinite(renyi_entropy(mu0, space, nps))
                & np.isfinite(renyi_entropy(mu1, space, nps)))
    t_vals = t_functional(coup, rho0, rho1, K, nps, ts).T
    u0s, u1s, w = tmap.interpolate_blocks(ts)
    s_ts = entropy_from_masses(bin_blocks(u0s, u1s, w, setup.rgrid), setup.rmass, nps)
    vacuous, blown = ~np.isfinite(t_vals), ~np.isfinite(s_ts)
    with np.errstate(invalid="ignore"):
        margin = t_vals - s_ts
        ok = margin >= -tol * margin_scale(s_ts, t_vals)
    # codes into the status constants, so that rows share those strings
    status = np.array([STATUS_SKIPPED, STATUS_VACUOUS, STATUS_VIOLATED, STATUS_OK],
                      dtype=object)[np.select([skipped, vacuous, blown, ok], [0, 1, 2, 3], 2)]
    margin = np.select([skipped | vacuous, blown], [math.inf, -math.inf], margin)
    # rows one time at a time, so that no list of every row's values is held
    nps_list = nps.tolist()
    rows = tuple(CdRow(t, *r) for t, *per_t in zip(ts.tolist(), s_ts, t_vals, margin, status)
                 for r in zip(nps_list, *(c.tolist() for c in per_t)))
    return CdReport(rows=rows, K=K, N=N, grid_n=space.grid.n, tol=tol)


# ---------------------------------------------------------------------------
# Marginal-pair sampling (specs in real coordinates, measures per grid)


def sampling_intervals(space: PointedSpace1D,
                       base: Optional[Sequence[tuple[float, float]]] = None
                       ) -> list[tuple[float, float]]:
    """Intervals safe for marginal supports: away from edges and anchors."""
    g = space.grid
    # 2 % of the span, but at most a quarter of the closest anchor gap, so
    # that spaces with many short arches keep room between their pads
    gap = float(np.min(np.diff(space.anchors), initial=np.inf))
    pad = max(3.0 * float(np.max(g.widths)), min(0.02 * (g.b - g.a), 0.25 * gap))
    pieces = carve(base if base is not None else [(g.a + pad, g.b - pad)],
                   space.anchors, pad)
    min_len = 10.0 * float(np.median(g.widths))
    out = [(a, b) for a, b in pieces if b - a > min_len]
    if not out:
        raise InvalidParams("no room for marginal supports on this space")
    return out


def _one_spec(rng: np.random.Generator, intervals, kind: str) -> dict:
    lens = np.array([b - a for a, b in intervals])
    a, b = intervals[int(rng.choice(len(intervals), p=lens / lens.sum()))]
    span = b - a
    width = span * (0.1 + 0.25 * rng.random())
    lo = a + rng.random() * (span - width)
    if kind == "uniform_block":
        return {"type": "uniform_block", "a": lo, "b": lo + width}
    if kind == "bump":
        return {"type": "bump", "center": lo + width / 2, "width": width / 2}
    parts = [dict(_one_spec(rng, intervals, "uniform_block"), weight=0.3 + 0.4 * rng.random()),
             dict(_one_spec(rng, intervals, "uniform_block"), weight=0.3 + 0.4 * rng.random())]
    return {"type": "mixture", "parts": parts}


def _pair_sampler(space: PointedSpace1D, N: float, caps: Sequence[float],
                  k: Optional[int] = None, kind: Optional[str] = None):
    """draws(rng, n) -> iterator of (specs, measures, takes), one per drawn
    pair of `kind` marginals (of shapes drawn from SPEC_KINDS when kind is
    None) that some cap takes.  Cap c takes a pair, until it has n, when each
    marginal has a finite S_N <= caps[c] and, given k, lies in R^k; takes[c]
    says whether it did.  Every cap sees the one stream of pairs, and takes
    what a loop of redraws at that cap alone would return.  A cap that
    rejects MAX_TRIES pairs in a row fails: the first failed cap in the
    order of caps raises once every cap before it has its n pairs, and no
    pair is yielded after a cap has failed."""
    ivs_k = None if k is None else regular_intervals(space, k)
    ivs = sampling_intervals(space, base=ivs_k)

    def entropy(mu: DiscreteMeasure) -> float:
        # a block near an end of R^k can charge a cell centred outside it;
        # such a marginal gets NaN, which no cap takes
        if ivs_k is not None and not _support_in_intervals(mu, ivs_k):
            return math.nan
        return renyi_entropy(mu, space, N)

    def draws(rng: np.random.Generator, n: int):
        got, misses = [0] * len(caps), [0] * len(caps)
        while any(g < n for g in got):
            first = next(c for c, g in enumerate(got) if g < n)
            if misses[first] >= MAX_TRIES:
                raise SamplerEntropyViolation(
                    f"default sampler cannot satisfy S_N <= {caps[first]} on this space")
            pending = [g < n and m < MAX_TRIES for g, m in zip(got, misses)]
            specs = tuple(_one_spec(rng, ivs, kind or str(rng.choice(SPEC_KINDS)))
                          for _ in range(2))
            try:
                mus = tuple(measure_from_dict(space.grid, s) for s in specs)
            except InvalidParams:
                mus = ()
            takes = pending if mus else [False] * len(caps)
            for mu in mus:
                if any(takes):  # S_N only while some cap may take the pair
                    s = entropy(mu)
                    takes = [tk and math.isfinite(s) and s <= cap
                             for tk, cap in zip(takes, caps)]
            got = [g + tk for g, tk in zip(got, takes)]
            misses = [0 if tk else m + p for m, tk, p in zip(misses, takes, pending)]
            if any(takes) and max(misses) < MAX_TRIES:
                yield specs, mus, np.array(takes)

    return draws


def sample_pair_specs(space: PointedSpace1D, N: float, n_pairs: int,
                      seed: int, restrict_to_regular_k: Optional[int] = None
                      ) -> list[tuple[dict, dict]]:
    """Draw marginal pairs as grid-free descriptors with finite entropy,
    inside R^k when restrict_to_regular_k is k."""
    draws = _pair_sampler(space, N, [math.inf], restrict_to_regular_k)
    return [specs for specs, _, _ in draws(np.random.default_rng(seed), n_pairs)]


@dataclass(frozen=True)
class SuiteReport(CdReport):
    """A CdReport over every pair's rows in order, with each pair's own
    report and its grid-free spec."""
    reports: tuple
    pair_specs: tuple


def cd_suite(space: PointedSpace1D, K: float, N: float, n_samples: int,
             seed: int, t_grid=11, nprime_grid=9, tol: float = DEFAULT_TOL,
             pair_specs: Optional[Sequence[tuple[dict, dict]]] = None,
             restrict_to_regular_k: Optional[int] = None) -> SuiteReport:
    """verify_cd over sampled marginal pairs; specs reusable across grids.
    The times, N', refined reference and R^k are built once and shared by
    every pair."""
    if pair_specs is None:
        pair_specs = sample_pair_specs(space, N, n_samples, seed,
                                       restrict_to_regular_k)
    if not pair_specs:
        raise InvalidParams("need at least one marginal pair")
    setup = _cd_setup(space, N, t_grid, nprime_grid, restrict_to_regular_k)
    reports = []
    for spec0, spec1 in pair_specs:
        mu0 = measure_from_dict(space.grid, spec0)
        mu1 = measure_from_dict(space.grid, spec1)
        reports.append(verify_cd(space, mu0, mu1, K, N, tol=tol,
                                 restrict_to_regular_k=restrict_to_regular_k,
                                 setup=setup))
    return SuiteReport(rows=tuple(r for rep in reports for r in rep.rows),
                       K=K, N=N, grid_n=space.grid.n, tol=tol,
                       reports=tuple(reports), pair_specs=tuple(pair_specs))


def richardson_check(make_space: Callable[[int], PointedSpace1D], K: float,
                     N: float, n_samples: int, seed: int,
                     grids: tuple[int, int] = (512, 1024)) -> dict:
    """Scaled negative margins must shrink by RICHARDSON_SHRINK, up to
    RICHARDSON_SLACK, when the grid doubles."""
    coarse = cd_suite(make_space(grids[0]), K, N, n_samples, seed)
    fine = cd_suite(make_space(grids[1]), K, N, n_samples, seed,
                    pair_specs=coarse.pair_specs)
    neg_c = coarse.worst_deficit()
    neg_f = fine.worst_deficit()
    return {"neg_coarse": neg_c, "neg_fine": neg_f,
            "ok": neg_f <= neg_c / RICHARDSON_SHRINK + RICHARDSON_SLACK}


# ---------------------------------------------------------------------------
# Hierarchy of conditions


def _row_key(r: CdRow) -> tuple:
    return (round(r.t, 12), round(r.nprime, 12))


def hierarchy_check(report_strong: CdReport, report_weak: CdReport) -> bool:
    """No (t, N') row passing under the stronger condition may fail under
    the weaker one; rows are matched on shared (t, N') keys.  Both reports
    must share a grid and a tolerance, since the statuses compared were
    decided at it."""
    if report_strong.grid_n != report_weak.grid_n:
        raise MismatchedInputs("reports computed on different grids")
    if report_strong.tol != report_weak.tol:
        raise MismatchedInputs("reports computed at different tolerances")
    weak = {_row_key(r): r for r in report_weak.rows}
    shared = [r for r in report_strong.rows if _row_key(r) in weak]
    if not shared:
        raise MismatchedInputs("reports share no (t, nprime) rows")
    return not any(r.status in (STATUS_OK, STATUS_VACUOUS)
                   and weak[_row_key(r)].status == STATUS_VIOLATED
                   for r in shared)


# ---------------------------------------------------------------------------
# (K, N)-convexity of weight functions


@dataclass(frozen=True)
class ConvexityReport:
    min_margin: float
    worst: Optional[tuple]
    n_triples: int


def kn_convexity_check(psi_samples, K: float, N: float) -> ConvexityReport:
    """Test of the sigma-combination inequality for e^(-psi/N) on the
    adjacent triples of the positions u[::s], s = 1, 2, 4, ... while u[::s]
    has at least three, where u are the distinct nodes, and on the triples
    with two nodes at one position: fewer than 2n triples for n nodes.

    psi_samples is a pair (x, psi) of node positions, nondecreasing and
    finite with a finite span, and weight values with a finite e^(-psi/N)
    (psi = -inf gives 0 there).  Interpolation points are always taken at
    nodes so no interpolation error enters.  Only triples of length
    0 < d < pi sqrt(N/K) (no upper bound for K >= 0) are checked.  A triple
    of three positions takes the least f at its ends and the largest in its
    middle, the least margin of the node triples there.  A node k after j at
    one position has the margin f_k - f_j in a triple with a node to their
    left, f_j - f_k with one to their right; each such k is checked against
    the largest or least f before it there.  In exact arithmetic those and
    the stride-1 triples decide the sign: when they all pass, f has one
    value at each middle position, the piecewise (K/N)-harmonic interpolant
    of the nodes is a subsolution of f'' + (K/N) f = 0, and comparison
    covers every triple.  An adjacent margin shrinks like the squared node
    spacing, though, so the coarser strides carry the wide margins that an
    absolute tolerance sees.
    """
    if N >= 0:
        raise DomainError("requires N < 0")
    x, psi = (np.asarray(psi_samples[0], float), np.asarray(psi_samples[1], float))
    if x.size != psi.size or x.size < 3:
        raise InvalidParams("need matching x/psi arrays with >= 3 nodes")
    with np.errstate(over="ignore"):
        fN = np.exp(-psi / N)
        span = np.ptp(x)
    if not (math.isfinite(span) and np.isfinite(fN).all()):
        raise InvalidParams("need finite x with a finite span, and a finite "
                            "e^(-psi/N) at every node")
    if np.any(np.diff(x) < 0):
        raise InvalidParams("x must be nondecreasing")
    kappa = K / N
    d_lim = (math.pi / math.sqrt(kappa) if kappa > 0 else math.inf) * (1 - 1e-12)
    first = np.r_[True, x[1:] != x[:-1]]  # the first node at each position
    starts = np.flatnonzero(first)
    u = x[starts]
    lo, hi = np.minimum.reduceat(fN, starts), np.maximum.reduceat(fN, starts)
    worst, least, n_triples = None, math.inf, 0

    def take(margins, x0, xm, x1):  # keeps the first least margin
        nonlocal worst, least, n_triples
        if margins.size and margins.min() < least:
            k = int(np.argmin(margins))
            least = float(margins[k])
            worst = (float(x0[k]), float(xm[k]), float(x1[k]),
                     float((xm[k] - x0[k]) / (x1[k] - x0[k])))
        n_triples += margins.size

    s = 1
    while 2 * s < u.size:  # u[::s] keeps at least three positions
        i0 = np.arange(0, u.size - 2 * s, s)
        i0 = i0[u[i0 + 2 * s] - u[i0] < d_lim]
        x0, xm, x1 = u[i0], u[i0 + s], u[i0 + 2 * s]
        # each coefficient from the sub-lengths, not from 1 - t, which rounds
        # to 1 when xm is far nearer x0 than x1
        a, b = xm - x0, x1 - xm
        with np.errstate(over="ignore"):  # a bound past the doubles passes
            take(sigma_kappa_lengths(kappa, b, a) * lo[i0]
                 + sigma_kappa_lengths(kappa, a, b) * lo[i0 + 2 * s]
                 - hi[i0 + s], x0, xm, x1)
        s *= 2
    # the largest and least f of the nodes up to each one at its position
    fN_hi, fN_lo, pos, d = fN.copy(), fN.copy(), np.cumsum(first) - 1, 1
    while (same := pos[d:] == pos[:-d]).any():
        fN_hi[d:] = np.where(same, np.maximum(fN_hi[d:], fN_hi[:-d]), fN_hi[d:])
        fN_lo[d:] = np.where(same, np.minimum(fN_lo[d:], fN_lo[:-d]), fN_lo[d:])
        d *= 2
    near = np.diff(u) < d_lim
    k = np.flatnonzero(~first)  # the second and later nodes at a position
    kl, kr = k[np.r_[False, near][pos[k]]], k[np.r_[near, False][pos[k]]]
    take(fN[kl] - fN_hi[kl - 1], u[pos[kl] - 1], x[kl], x[kl])
    take(fN_lo[kr - 1] - fN[kr], x[kr], x[kr], u[pos[kr] + 1])
    if n_triples == 0:
        raise InvalidParams("no admissible triple")
    return ConvexityReport(min_margin=least, worst=worst, n_triples=n_triples)


# ---------------------------------------------------------------------------
# The omega-uniform-convexity estimator


def estimate_omega(space: PointedSpace1D, k: int, h: Union[int, Sequence[int]],
                   M: Union[float, Sequence[float]], n_samples: int = 40,
                   N: float = -2.0, seed: int = 0) -> Union[float, list]:
    """Estimated sup over sampled pairs of max_t mu_t(complement of R^h).

    `h` is one level (a float is returned) or a sequence of levels (a list in
    the order of `h`).  Every level is estimated on the one sample set the
    seed draws, so the h-monotonicity of the regular regions transfers
    exactly to the estimates, and a level's value does not depend on which
    other levels are asked for.
    `M` is one entropy cap or a sequence of caps (a list with one entry per
    cap, each what that cap alone gives).  All caps share one stream of
    candidate pairs of uniform blocks in R^k, each drawn, checked and sliced
    once; a cap keeps the first n_samples pairs with S_N at most that cap,
    and when several caps fail, the first in the order of `M` raises.
    """
    scalar_h, scalar_M = np.ndim(h) == 0, np.ndim(M) == 0
    hs = [h] if scalar_h else list(h)
    Ms = [M] if scalar_M else list(M)
    if not hs or min(hs) < k:
        raise InvalidParams("need at least one h, and h >= k for each")
    if not Ms:
        raise InvalidParams("need at least one entropy cap M")
    pairs = _pair_sampler(space, N, Ms, k, "uniform_block")(
        np.random.default_rng(seed), n_samples)
    ivs_h = [regular_intervals(space, hh) for hh in hs]
    ts = np.linspace(0.0, 1.0, OMEGA_T_GRID)
    worst = np.zeros((len(Ms), len(hs)))
    for _, (mu0, mu1), takes in pairs:
        u0, u1, w = monotone_map(mu0, mu1).interpolate_blocks(ts)
        out = 1.0 - mass_in_intervals(u0, u1, w, ivs_h) / float(np.sum(w))
        worst[takes] = np.fmax(worst[takes], np.fmax.reduce(out, axis=0))
    per_cap = [row[0] if scalar_h else row
               for row in np.clip(worst, 0.0, 1.0).tolist()]
    return per_cap[0] if scalar_M else per_cap


def Omega_cap(M: float, N: float) -> float:
    """The entropy cap 2^(1 - 1/N) M at which Omega(k, h, M, delta) samples
    omega.  Where 2^(1 - 1/N) is past the double range (N in (-1/1023, 0))
    the cap is its limit as N -> 0-: +-inf, or 0 for M = 0."""
    try:
        scale = 2.0 ** (1.0 - 1.0 / N)
    except OverflowError:
        scale = math.inf
    return scale * M if M else 0.0


def Omega_bound(delta: float) -> Callable[[float], float]:
    """omega -> Omega = omega + 2 delta, capped at 1, and 1 whenever
    delta >= 1/4 (the bound is then trivially available)."""
    if delta < 0:
        raise InvalidParams("delta must be nonnegative")
    return lambda omega: 1.0 if delta >= 0.25 else min(1.0, omega + 2.0 * delta)


def estimate_Omega(space: PointedSpace1D, k: int,
                   h: Union[int, Sequence[int]], M: float, delta: float,
                   n_samples: int = 40, N: float = -2.0, seed: int = 0
                   ) -> Union[float, list[float]]:
    """Omega(k, h, M, delta): Omega_bound(delta) of omega at Omega_cap(M, N).
    omega is estimate_omega at that scaled cap, for one level h or a
    sequence; it is sampled for every delta, so failing to reach the cap
    raises."""
    bound = Omega_bound(delta)
    omega = estimate_omega(space, k, h, Omega_cap(M, N),
                           n_samples=n_samples, N=N, seed=seed)
    return bound(omega) if np.ndim(h) == 0 else [bound(v) for v in omega]
