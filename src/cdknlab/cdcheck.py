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
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .distortion import tau_KN_vec
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
from .mmspace import PointedSpace1D, carve
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
# Draws per accepted marginal pair, in both samplers, and the shapes drawn.
MAX_TRIES = 60
SPEC_KINDS = ("uniform_block", "bump", "mixture")
OMEGA_T_GRID = 9


def margin_scale(s_value: float, t_value: float) -> float:
    """Unit for the pass tolerance of one row.

    Both sides of the inequality are computed to relative accuracy, and for
    N' near zero they grow like rho^(-1/N'), so an absolute tolerance would
    be either vacuous or unreachable there.  The tolerance is absolute while
    the sides are O(1) and proportional to them beyond.
    """
    vals = [abs(v) for v in (s_value, t_value) if math.isfinite(v)]
    return max([1.0] + vals)


def default_nprime_grid(N: float, count: int = 9) -> np.ndarray:
    """Geometric grid of N' values covering [N, 0), from N up to -1e-3."""
    if N >= 0:
        raise DomainError("N must be negative")
    hi = 1e-3
    if -N <= hi:
        return np.array([N])
    return -np.geomspace(-N, hi, count)


def default_t_grid(count: int = 11) -> np.ndarray:
    return np.linspace(0.0, 1.0, count)


# ---------------------------------------------------------------------------
# The distortion functional


def t_functional(coupling: Coupling, rho0: DensityWrtM, rho1: DensityWrtM,
                 K: float, N: float, t):
    """Right-hand side of the CD inequality for one coupling; may be +inf.

    t is one time (a float is returned) or a 1-D array of times (an array
    with one value per time, each equal to the call with that time alone).
    """
    if N >= 0:
        raise DomainError("t_functional requires N < 0")
    w = coupling.w
    r0 = rho0.values[coupling.i]
    r1 = rho1.values[coupling.j]
    if np.any((w > 0) & ((r0 <= 0) | (r1 <= 0))):
        raise MarginalMismatch(
            "coupling carries mass where a marginal density vanishes")
    ts = np.asarray(t, dtype=float).reshape(-1)
    d = np.abs(coupling.x - coupling.y)
    tau = tau_KN_vec(K, N, np.concatenate([1.0 - ts, ts]), d)
    tau0, tau1 = tau[:ts.size], tau[ts.size:]
    expo = -1.0 / N
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (np.where(tau0 == 0, 0, tau0 * r0 ** expo)
                 + np.where(tau1 == 0, 0, tau1 * r1 ** expo))
        out = np.sum(w * terms, axis=-1)
    out[np.isinf(tau0).any(axis=-1) | np.isinf(tau1).any(axis=-1)
        | np.isinf(terms).any(axis=-1)] = math.inf
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# Regular regions as explicit interval unions


def regular_intervals(space: PointedSpace1D, k: int) -> list[tuple[float, float]]:
    """The k-th regular region of the space as disjoint closed intervals."""
    R = 2.0 ** (k + 1)
    r = 2.0 ** (-(k + 1))
    lo = max(space.grid.a, space.base_point - R)
    hi = min(space.grid.b, space.base_point + R)
    if hi <= lo:
        return []
    return [(a, b) for a, b in carve([(lo, hi)], space.anchors, r) if b - a > 0]


def mass_in_intervals(u0: np.ndarray, u1: np.ndarray, w: np.ndarray,
                      interval_sets: Sequence[Sequence[tuple[float, float]]]
                      ) -> np.ndarray:
    """Block mass in each set of disjoint intervals, from one CDF call.

    Each set's mass is the sum over its own slice of the per-interval masses,
    so it does not depend on which other sets are passed with it.
    """
    pts = np.array([e for ivs in interval_sets for iv in ivs for e in iv], dtype=float)
    cdf = blocks_cdf(u0, u1, w, pts)
    per_iv = cdf[1::2] - cdf[0::2]
    ends = np.cumsum([0] + [len(ivs) for ivs in interval_sets])
    return np.array([np.sum(per_iv[a:b]) for a, b in zip(ends[:-1], ends[1:])])


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


@dataclass(frozen=True)
class CdRow:
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
        out = 0.0
        for r in self.rows:
            if r.status not in (STATUS_OK, STATUS_VIOLATED):
                continue
            if not math.isfinite(r.margin):
                out = max(out, math.inf if r.margin < 0 else 0.0)
            else:
                out = max(out, -r.margin / margin_scale(r.s_value, r.t_value))
        return out


def verify_cd(space: PointedSpace1D, mu0: DiscreteMeasure,
              mu1: DiscreteMeasure, K: float, N: float,
              t_grid=11, nprime_grid=9,
              restrict_to_regular_k: Optional[int] = None,
              tol: float = DEFAULT_TOL) -> CdReport:
    """Check the CD(K, N) inequality along the monotone geodesic.

    Entropies of intermediate slices are taken against a 4x refined copy
    of the reference measure; the right side is evaluated per quantile
    segment (midpoint distances, endpoint-cell densities).  Margins are
    reported absolutely, but a row only counts as violated when it fails
    `tol` in units of margin_scale (relative once the sides exceed 1).
    """
    if N >= 0:
        raise DomainError("verify_cd requires N < 0")
    rho0 = radon_nikodym(mu0, space)
    rho1 = radon_nikodym(mu1, space)
    if restrict_to_regular_k is not None:
        ivs = regular_intervals(space, restrict_to_regular_k)
        if not (_support_in_intervals(mu0, ivs) and _support_in_intervals(mu1, ivs)):
            raise SupportViolation(
                f"marginal support leaves the regular region k={restrict_to_regular_k}")

    ts = default_t_grid(t_grid) if isinstance(t_grid, int) else np.asarray(t_grid, float)
    nps = (default_nprime_grid(N, nprime_grid) if isinstance(nprime_grid, int)
           else np.asarray(nprime_grid, float))
    if np.any(nps >= 0) or np.any(nps < N - 1e-12):
        raise InvalidParams("nprime values must lie in [N, 0)")

    tmap = monotone_map(mu0, mu1)
    coup = tmap.as_coupling()
    # the refined reference keeps every cell's density unchanged, so the
    # t=0/1 slices reproduce the endpoint entropies exactly instead of to
    # discretization order
    rgrid = space.grid.refined(REFINE_FACTOR)
    with np.errstate(invalid="ignore"):
        rmass = np.repeat(space.density, REFINE_FACTOR) * rgrid.widths

    # one array pass per N' over every time, and per time over every N'
    s0 = renyi_entropy(mu0, space, nps)
    s1 = renyi_entropy(mu1, space, nps)
    t_vals = [t_functional(coup, rho0, rho1, K, float(nprime), ts) for nprime in nps]

    rows = []
    for i, t in enumerate(ts):
        u0, u1, w = tmap.interpolate_blocks(float(t))
        wslice = bin_blocks(u0, u1, w, rgrid).masses
        s_ts = entropy_from_masses(wslice, rmass, nps)
        for j, nprime in enumerate(nps):
            s_t = float(s_ts[j])
            t_val = float(t_vals[j][i])
            if not (math.isfinite(s0[j]) and math.isfinite(s1[j])):
                status, margin = STATUS_SKIPPED, math.inf
            elif not math.isfinite(t_val):
                status, margin = STATUS_VACUOUS, math.inf
            elif not math.isfinite(s_t):
                status, margin = STATUS_VIOLATED, -math.inf
            else:
                margin = t_val - s_t
                scale = margin_scale(s_t, t_val)
                status = STATUS_OK if margin >= -tol * scale else STATUS_VIOLATED
            rows.append(CdRow(t=float(t), nprime=float(nprime), s_value=s_t,
                              t_value=t_val, margin=margin, status=status))
    return CdReport(rows=tuple(rows), K=K, N=N, grid_n=space.grid.n, tol=tol)


# ---------------------------------------------------------------------------
# Marginal-pair sampling (specs in real coordinates, measures per grid)


def sampling_intervals(space: PointedSpace1D,
                       base: Optional[Sequence[tuple[float, float]]] = None
                       ) -> list[tuple[float, float]]:
    """Intervals safe for marginal supports: away from edges and anchors."""
    g = space.grid
    span = g.b - g.a
    pad = max(3.0 * float(np.max(g.widths)), 0.02 * span)
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


def sample_pair_specs(space: PointedSpace1D, N: float, n_pairs: int,
                      seed: int, entropy_cap: Optional[float] = None
                      ) -> list[tuple[dict, dict]]:
    """Draw marginal pairs as grid-free descriptors with finite entropy."""
    rng = np.random.default_rng(seed)
    ivs = sampling_intervals(space)
    pairs = []
    for _ in range(n_pairs):
        for attempt in range(MAX_TRIES):
            spec = (_one_spec(rng, ivs, str(rng.choice(SPEC_KINDS))),
                    _one_spec(rng, ivs, str(rng.choice(SPEC_KINDS))))
            try:
                mus = [measure_from_dict(space.grid, s) for s in spec]
                ents = [renyi_entropy(mu, space, N) for mu in mus]
            except InvalidParams:
                continue
            cap = entropy_cap if entropy_cap is not None else math.inf
            if all(math.isfinite(e) and e <= cap for e in ents):
                pairs.append(spec)
                break
        else:
            raise SamplerEntropyViolation(
                f"could not sample a pair with S_N <= {entropy_cap}")
    return pairs


@dataclass(frozen=True)
class SuiteReport:
    reports: tuple
    pair_specs: tuple
    K: float
    N: float
    seed: int
    tol: float
    grid_n: int

    def min_margin(self) -> float:
        return min((r.min_margin() for r in self.reports), default=math.inf)

    def worst_deficit(self) -> float:
        return max((r.worst_deficit() for r in self.reports), default=0.0)

    def counts(self) -> dict:
        out: dict = {}
        for rep in self.reports:
            for k, v in rep.counts().items():
                out[k] = out.get(k, 0) + v
        return out

    def passes(self) -> bool:
        return all(r.passes() for r in self.reports)


def cd_suite(space: PointedSpace1D, K: float, N: float, n_samples: int,
             seed: int, t_grid=11, nprime_grid=9, tol: float = DEFAULT_TOL,
             pair_specs: Optional[Sequence[tuple[dict, dict]]] = None,
             restrict_to_regular_k: Optional[int] = None) -> SuiteReport:
    """verify_cd over sampled marginal pairs; specs reusable across grids."""
    if pair_specs is None:
        pair_specs = sample_pair_specs(space, N, n_samples, seed)
    reports = []
    for spec0, spec1 in pair_specs:
        mu0 = measure_from_dict(space.grid, spec0)
        mu1 = measure_from_dict(space.grid, spec1)
        reports.append(verify_cd(space, mu0, mu1, K, N, t_grid=t_grid,
                                 nprime_grid=nprime_grid, tol=tol,
                                 restrict_to_regular_k=restrict_to_regular_k))
    return SuiteReport(reports=tuple(reports), pair_specs=tuple(pair_specs),
                       K=K, N=N, seed=seed, tol=tol, grid_n=space.grid.n)


def richardson_check(make_space: Callable[[int], PointedSpace1D], K: float,
                     N: float, n_samples: int, seed: int,
                     grids: tuple[int, int] = (512, 1024),
                     **suite_kw) -> dict:
    """Scaled negative margins must shrink by RICHARDSON_SHRINK, up to
    RICHARDSON_SLACK, when the grid doubles."""
    coarse = cd_suite(make_space(grids[0]), K, N, n_samples, seed, **suite_kw)
    fine = cd_suite(make_space(grids[1]), K, N, n_samples, seed,
                    pair_specs=coarse.pair_specs, **suite_kw)
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


def kn_convexity_check(psi_samples, K: float, N: float,
                       triple_sampler: Optional[Callable] = None,
                       n_triples: int = 400, seed: int = 0) -> ConvexityReport:
    """Sampled test of the sigma-combination inequality for e^(-psi/N).

    psi_samples is a pair (x, psi) of node positions and weight values; psi
    may contain -inf (its exponential transform is 0 there).  Interpolation
    points are always taken at nodes so no interpolation error enters.  For
    K < 0 only triples with d < pi sqrt(N/K) are admissible; an explicit
    sampler emitting a longer triple raises DomainError.
    """
    from .distortion import sigma_kappa

    if N >= 0:
        raise DomainError("requires N < 0")
    x, psi = (np.asarray(psi_samples[0], float), np.asarray(psi_samples[1], float))
    if x.size != psi.size or x.size < 3:
        raise InvalidParams("need matching x/psi arrays with >= 3 nodes")
    with np.errstate(over="ignore"):
        fN = np.exp(-psi / N)
    kappa = K / N
    d_max = math.pi / math.sqrt(kappa) if kappa > 0 else math.inf

    rng = np.random.default_rng(seed)

    def default_sampler():
        for _ in range(200):
            i0, i1 = sorted(rng.choice(x.size, size=2, replace=False))
            if i1 - i0 < 2:
                continue
            if x[i1] - x[i0] >= d_max * (1 - 1e-12):
                continue
            im = int(rng.integers(i0 + 1, i1))
            return i0, im, i1
        raise InvalidParams("could not sample an admissible triple")

    worst = None
    min_margin = math.inf
    for _ in range(n_triples):
        if triple_sampler is not None:
            i0, im, i1 = triple_sampler(rng)
        else:
            i0, im, i1 = default_sampler()
        d = x[i1] - x[i0]
        if d <= 0:
            raise InvalidParams("triple must be increasing")
        if d >= d_max * (1 - 1e-12):
            raise DomainError(f"triple distance {d} out of range for K<0")
        t = (x[im] - x[i0]) / d
        bound = (sigma_kappa(kappa, 1.0 - t, d) * fN[i0]
                 + sigma_kappa(kappa, t, d) * fN[i1])
        margin = bound - fN[im]
        if margin < min_margin:
            min_margin, worst = margin, (float(x[i0]), float(x[im]), float(x[i1]), t)
    return ConvexityReport(min_margin=float(min_margin), worst=worst,
                           n_triples=n_triples)


# ---------------------------------------------------------------------------
# The omega-uniform-convexity estimator


@dataclass
class OmegaTable:
    entries: dict = field(default_factory=dict)  # (k, h, M) -> (value, n)

    def add(self, k: int, h: int, M: float, value: float, n: int):
        self.entries[(int(k), int(h), float(M))] = (float(value), int(n))

    def value(self, k: int, h: int, M: float) -> float:
        for (kk, hh, mm), (v, _) in self.entries.items():
            if kk == k and hh == h and math.isclose(mm, M, rel_tol=1e-9):
                return v
        raise InvalidParams(f"no omega entry for (k={k}, h={h}, M={M})")


def _default_block_sampler(space: PointedSpace1D, k: int, N: float, M: float):
    ivs_k = regular_intervals(space, k)
    ivs = sampling_intervals(space, base=ivs_k)

    def sampler(rng: np.random.Generator):
        # a block near an end of R^k can charge a cell whose centre lies
        # outside it, so such a pair is drawn again, as one over the cap is
        for _ in range(MAX_TRIES):
            specs = (_one_spec(rng, ivs, "uniform_block"),
                     _one_spec(rng, ivs, "uniform_block"))
            mus = [measure_from_dict(space.grid, s) for s in specs]
            if all(_support_in_intervals(mu, ivs_k)
                   and renyi_entropy(mu, space, N) <= M for mu in mus):
                return mus[0], mus[1]
        raise SamplerEntropyViolation(
            f"default sampler cannot satisfy S_N <= {M} on this space")

    return sampler


def estimate_omega(space: PointedSpace1D, k: int, h: Union[int, Sequence[int]],
                   M: float, sampler: Optional[Callable] = None,
                   n_samples: int = 40, N: float = -2.0, seed: int = 0,
                   table: Optional[OmegaTable] = None
                   ) -> Union[float, list[float]]:
    """Estimated sup over sampled pairs of max_t mu_t(complement of R^h).

    `h` is one level (a float is returned) or a sequence of levels (a list in
    the order of `h`, and `table` gets one entry per level).  Every level is
    estimated on the one sample set the seed draws, so the h-monotonicity of
    the regular regions transfers exactly to the estimates, and a level's
    value does not depend on which other levels are asked for.
    The sampler must emit probability pairs supported in R^k with entropy
    at most M; violations raise.
    """
    scalar = np.ndim(h) == 0
    hs = [h] if scalar else list(h)
    if not hs or min(hs) < k:
        raise InvalidParams("need at least one h, and h >= k for each")
    rng = np.random.default_rng(seed)
    # the default sampler returns only pairs that pass the checks below
    custom = sampler is not None
    if not custom:
        sampler = _default_block_sampler(space, k, N, M)
    ivs_k = regular_intervals(space, k)
    ivs_h = [regular_intervals(space, hh) for hh in hs]
    ts = np.linspace(0.0, 1.0, OMEGA_T_GRID)
    worst = np.zeros(len(hs))
    for _ in range(n_samples):
        mu0, mu1 = sampler(rng)
        for mu in (mu0, mu1):
            if custom and not _support_in_intervals(mu, ivs_k):
                raise SupportViolation("sampled marginal leaves R^k")
            if custom and renyi_entropy(mu, space, N) > M * (1 + 1e-12):
                raise SamplerEntropyViolation("sampled marginal exceeds the entropy cap")
        tmap = monotone_map(mu0, mu1)
        for t in ts:
            u0, u1, w = tmap.interpolate_blocks(float(t))
            total = float(np.sum(w))
            out = 1.0 - mass_in_intervals(u0, u1, w, ivs_h) / total
            worst = np.fmax(worst, out)
    worst = np.clip(worst, 0.0, 1.0).tolist()
    if table is not None:
        for hh, v in zip(hs, worst):
            table.add(k, hh, M, v, n_samples)
    return worst[0] if scalar else worst


def omega_to_Omega(table: OmegaTable, k: int, h: int, M: float,
                   delta: float, N: float = -2.0) -> float:
    """Omega(k, h, M, delta) = omega(k, h, 2^(1 - 1/N) M) + 2 delta,
    and 1 whenever delta >= 1/4 (the bound is then trivially available)."""
    if delta < 0:
        raise InvalidParams("delta must be nonnegative")
    if delta >= 0.25:
        return 1.0
    scaled = 2.0 ** (1.0 - 1.0 / N) * M
    return min(1.0, table.value(k, h, scaled) + 2.0 * delta)
