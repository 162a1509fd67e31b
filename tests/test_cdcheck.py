"""Inequality verifier: statuses, report bookkeeping, hierarchy, convexity
of weights, and the regular-region escape estimates."""

import math

import numpy as np
import pytest

from cdknlab.cdcheck import (
    DEFAULT_TOL,
    REFINE_FACTOR,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_VACUOUS,
    STATUS_VIOLATED,
    CdRow,
    OmegaTable,
    _support_in_intervals,
    cd_suite,
    default_nprime_grid,
    default_t_grid,
    estimate_omega,
    hierarchy_check,
    kn_convexity_check,
    margin_scale,
    mass_in_intervals,
    omega_to_Omega,
    regular_intervals,
    richardson_check,
    sample_pair_specs,
    t_functional,
    verify_cd,
)
from cdknlab.distortion import tau_KN_vec
from cdknlab.errors import (
    DomainError,
    InvalidParams,
    MarginalMismatch,
    MismatchedInputs,
    NotAbsolutelyContinuous,
    SamplerEntropyViolation,
    SupportViolation,
)
from cdknlab.measure import (
    DensityWrtM,
    DiscreteMeasure,
    entropy_from_masses,
    measure_from_dict,
    optimal_test_function,
    legendre_entropy,
    radon_nikodym,
    renyi_entropy,
    uniform_block,
)
from cdknlab.geodesics1d import bin_blocks, blocks_cdf
from cdknlab.mmspace import Grid1D, ModelSpec, PointedSpace1D, build_model_space
from cdknlab.transport import monotone_map

from conftest import flat_space


# ---------------------------------------------------------------------------
# grids, scales, and the right-hand side


def test_default_grids():
    ts = default_t_grid(11)
    assert ts[0] == 0.0 and ts[-1] == 1.0 and len(ts) == 11
    nps = default_nprime_grid(-2.0, 9)
    assert len(nps) == 9
    assert np.all((nps >= -2.0) & (nps < 0.0))
    assert nps[0] == -2.0
    with pytest.raises(DomainError):
        default_nprime_grid(1.0)


def test_margin_scale_saturates_at_one():
    assert margin_scale(0.3, 0.9) == 1.0
    assert margin_scale(5.0, 2.0) == 5.0
    assert margin_scale(math.inf, 3.0) == 3.0
    assert margin_scale(math.nan, math.inf) == 1.0


def test_t_functional_hand_check(lebesgue):
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.3)
    mu1 = uniform_block(lebesgue.grid, 0.6, 0.9)
    coup = monotone_map(mu0, mu1).as_coupling()
    rho0 = radon_nikodym(mu0, lebesgue)
    rho1 = radon_nikodym(mu1, lebesgue)
    K, N, t = 1.5, -2.0, 0.4
    theta = np.abs(coup.x - coup.y)
    want = float(np.sum(coup.w * (
        tau_KN_vec(K, N, 1.0 - t, theta) * rho0.values[coup.i] ** (1.0 / 2.0)
        + tau_KN_vec(K, N, t, theta) * rho1.values[coup.j] ** (1.0 / 2.0))))
    got = t_functional(coup, rho0, rho1, K, N, t)
    assert got == pytest.approx(want, rel=1e-12)


def test_t_functional_infinite_tau(lebesgue):
    # K < 0 puts the tau coefficient on the sin branch; long transport
    # distances then push it to infinity and the bound is vacuous
    mu0 = uniform_block(lebesgue.grid, 0.02, 0.06)
    mu1 = uniform_block(lebesgue.grid, 0.94, 0.98)
    coup = monotone_map(mu0, mu1).as_coupling()
    rho0 = radon_nikodym(mu0, lebesgue)
    rho1 = radon_nikodym(mu1, lebesgue)
    val = t_functional(coup, rho0, rho1, -80.0, -1.0, 0.5)
    assert math.isinf(val) and val > 0


def test_t_functional_over_times_equals_one_time_at_a_time(lebesgue):
    # rho0 = 1.25 stays finite under the N' = -1e-3 power and rho1 = 10
    # does not: the t = 0 row (tau1 = 0) is finite and the others are inf
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.9)
    mu1 = uniform_block(lebesgue.grid, 0.45, 0.55)
    coup = monotone_map(mu0, mu1).as_coupling()
    rho0 = radon_nikodym(mu0, lebesgue)
    rho1 = radon_nikodym(mu1, lebesgue)
    ts = np.array([0.0, 1.0, 0.5, 0.1, 1.0 - 0.1, 1e-9, 0.73])
    for K, N in ((1.5, -2.0), (-3.0, -0.4), (0.0, -1.0), (-200.0, -1.0),
                 (2.0, -1e-3)):
        got = t_functional(coup, rho0, rho1, K, N, ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        want = [t_functional(coup, rho0, rho1, K, N, float(t)) for t in ts]
        assert got.tolist() == want
        assert all(type(v) is float for v in want)
    # K / (N - 1) = 100 puts the distances past 0.31 beyond pi^2 (tau = inf)
    assert np.isinf(t_functional(coup, rho0, rho1, -200.0, -1.0, ts)).all()
    mixed = t_functional(coup, rho0, rho1, 2.0, -1e-3, ts)
    assert math.isfinite(mixed[0]) and np.isinf(mixed[1:]).all()
    # a density that vanishes under the coupling's mass raises either way
    empty = DensityWrtM(lebesgue.grid, np.zeros(lebesgue.grid.n))
    for t in (0.5, ts):
        with pytest.raises(MarginalMismatch):
            t_functional(coup, empty, rho1, 1.5, -2.0, t)


# ---------------------------------------------------------------------------
# verify_cd statuses


def test_trivial_flat_equality(lebesgue):
    mu = uniform_block(lebesgue.grid, 0.0, 1.0)
    rep = verify_cd(lebesgue, mu, mu, K=0.0, N=-2.0, t_grid=7, nprime_grid=5)
    assert rep.passes()
    for row in rep.rows:
        assert row.status == "ok"
        assert abs(row.margin) <= 1e-10


def test_equal_marginals_zero_margin_on_curved_space():
    sp = build_model_space(ModelSpec(kind="cosh_n", K=1.0, N=-2.0,
                                     domain=(-2.0, 2.0), grid_n=256))
    mu = uniform_block(sp.grid, -0.75, 0.5)
    rep = verify_cd(sp, mu, mu, K=1.0, N=-2.0, t_grid=5, nprime_grid=3)
    for row in rep.rows:
        assert abs(row.margin) <= 1e-9 * margin_scale(row.s_value, row.t_value)


def test_endpoint_rows_have_exact_zero_margin(lebesgue, rng):
    from conftest import random_measure

    mu0 = random_measure(lebesgue.grid, rng, sparsity=0.5)
    mu1 = random_measure(lebesgue.grid, rng, sparsity=0.5)
    rep = verify_cd(lebesgue, mu0, mu1, K=0.0, N=-1.5,
                    t_grid=np.array([0.0, 1.0]),
                    nprime_grid=np.array([-1.5, -1.0, -0.5]))
    for row in rep.rows:
        assert row.status == "ok"
        assert abs(row.margin) <= 1e-9 * margin_scale(row.s_value, row.t_value)


def test_scaling_leaves_statuses_invariant(rng):
    # both sides pick up c^(1/N'), so scaled margins and statuses agree;
    # stay away from N' ~ 0 where the margin is cancellation noise
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=256))
    specs = sample_pair_specs(sp, -2.0, 2, seed=4)
    npg = np.array([-1.0, -0.6, -0.3])
    for c in (0.5, 2.0):
        for s0, s1 in specs:
            mu0 = measure_from_dict(sp.grid, s0)
            mu1 = measure_from_dict(sp.grid, s1)
            base = verify_cd(sp, mu0, mu1, K=-2.0, N=-1.0,
                             t_grid=5, nprime_grid=npg)
            scaled = verify_cd(sp.scaled(c), mu0, mu1, K=-2.0, N=-1.0,
                               t_grid=5, nprime_grid=npg)
            for a, b in zip(base.rows, scaled.rows):
                assert a.status == b.status
                if math.isfinite(a.margin):
                    ratio = c ** (1.0 / a.nprime)
                    tiny = 1e-9 * margin_scale(b.s_value, b.t_value)
                    assert b.margin == pytest.approx(a.margin * ratio,
                                                     rel=1e-6, abs=tiny)


def test_entropy_column_agrees_with_dual_route(lebesgue):
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.45)
    mu1 = uniform_block(lebesgue.grid, 0.55, 0.95)
    nprime = -1.25
    rep = verify_cd(lebesgue, mu0, mu1, K=0.0, N=-2.0,
                    t_grid=np.array([0.0]), nprime_grid=np.array([nprime]))
    rho = radon_nikodym(mu0, lebesgue).values
    dual = legendre_entropy(mu0, lebesgue, nprime,
                            [optimal_test_function(rho, nprime)])
    assert rep.rows[0].s_value == pytest.approx(dual, rel=1e-9)


def test_measure_charging_null_cell_is_rejected(lebesgue):
    g = Grid1D.uniform(0.0, 1.0, 10)
    dens = np.ones(10)
    dens[4] = 0.0  # reference vanishes here
    sp = PointedSpace1D(grid=g, density=dens, singular_points=(),
                        base_point=0.2)
    mu = uniform_block(g, 0.35, 0.65)  # charges the null cell
    with pytest.raises(NotAbsolutelyContinuous):
        verify_cd(sp, mu, mu, K=0.0, N=-2.0, t_grid=3, nprime_grid=2)


def test_skipped_rows_on_infinite_endpoint_entropy(lebesgue):
    # rho = 10 on the support and the N' -> 0 exponent is ~1e3, so the
    # endpoint entropy overflows to +inf and those rows are set aside
    mu = uniform_block(lebesgue.grid, 0.45, 0.55)
    rep = verify_cd(lebesgue, mu, mu, K=0.0, N=-2.0, t_grid=3,
                    nprime_grid=np.array([-0.001]))
    assert all(r.status == "skipped_entropy_inf" for r in rep.rows)
    assert rep.passes()  # skips are not violations
    assert rep.worst_deficit() == 0.0


def test_interior_slice_in_null_region_is_violated():
    # endpoints live on the reference, but the geodesic must cross a null
    # corridor: the slice entropy blows up and the row counts as violated
    g = Grid1D.uniform(0.0, 1.0, 20)
    dens = np.ones(20)
    dens[8:12] = 0.0
    sp = PointedSpace1D(grid=g, density=dens, singular_points=(),
                        base_point=0.1)
    mu0 = uniform_block(g, 0.05, 0.3)
    mu1 = uniform_block(g, 0.7, 0.95)
    rep = verify_cd(sp, mu0, mu1, K=0.0, N=-2.0,
                    t_grid=np.array([0.5]),
                    nprime_grid=np.array([-2.0, -1.0]))
    assert all(r.status == "violated" for r in rep.rows)
    assert all(r.margin == -math.inf for r in rep.rows)
    assert rep.worst_deficit() == math.inf
    assert not rep.passes()


def test_vacuous_rows_present_for_negative_K_long_range():
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=256))
    a, b = sp.grid.a, sp.grid.b
    span = b - a
    mu0 = uniform_block(sp.grid, a + 0.05 * span, a + 0.12 * span)
    mu1 = uniform_block(sp.grid, b - 0.12 * span, b - 0.05 * span)
    rep = verify_cd(sp, mu0, mu1, K=-2.0, N=-1.0, t_grid=5)
    counts = rep.counts()
    assert counts.get("vacuous_inf", 0) > 0
    assert rep.passes()


def test_restrict_to_regular_region():
    sp = build_model_space(ModelSpec(kind="power_n", N=-2.0,
                                     domain=(0.0, 2.0), grid_n=256))
    inside = uniform_block(sp.grid, 0.9, 1.3)
    near_blowup = uniform_block(sp.grid, 0.05, 0.3)
    rep = verify_cd(sp, inside, inside, K=0.0, N=-1.0, t_grid=3,
                    restrict_to_regular_k=0)
    assert rep.passes()
    with pytest.raises(SupportViolation):
        verify_cd(sp, near_blowup, inside, K=0.0, N=-1.0, t_grid=3,
                  restrict_to_regular_k=0)


def test_verify_cd_input_validation(lebesgue):
    mu = uniform_block(lebesgue.grid, 0.2, 0.8)
    with pytest.raises(DomainError):
        verify_cd(lebesgue, mu, mu, K=0.0, N=1.0)
    with pytest.raises(InvalidParams):
        verify_cd(lebesgue, mu, mu, K=0.0, N=-1.0,
                  nprime_grid=np.array([-2.0]))  # below N
    with pytest.raises(InvalidParams):
        verify_cd(lebesgue, mu, mu, K=0.0, N=-1.0,
                  nprime_grid=np.array([0.5]))


def _verify_cd_per_row(space, mu0, mu1, K, N, t_grid, nprime_grid,
                      tol=DEFAULT_TOL):
    """verify_cd's rows as one call of each entropy and t_functional per
    (t, N') row, the way they were computed before the array passes."""
    rho0 = radon_nikodym(mu0, space)
    rho1 = radon_nikodym(mu1, space)
    ts = default_t_grid(t_grid) if isinstance(t_grid, int) else t_grid
    nps = (default_nprime_grid(N, nprime_grid) if isinstance(nprime_grid, int)
           else nprime_grid)
    tmap = monotone_map(mu0, mu1)
    coup = tmap.as_coupling()
    rgrid = space.grid.refined(REFINE_FACTOR)
    with np.errstate(invalid="ignore"):
        rmass = np.repeat(space.density, REFINE_FACTOR) * rgrid.widths
    rows = []
    for t in ts:
        u0, u1, w = tmap.interpolate_blocks(float(t))
        wslice = bin_blocks(u0, u1, w, rgrid).masses
        for nprime in nps:
            nprime = float(nprime)
            s0 = renyi_entropy(mu0, space, nprime)
            s1 = renyi_entropy(mu1, space, nprime)
            s_t = entropy_from_masses(wslice, rmass, nprime)
            t_val = t_functional(coup, rho0, rho1, K, nprime, float(t))
            if not (math.isfinite(s0) and math.isfinite(s1)):
                status, margin = STATUS_SKIPPED, math.inf
            elif not math.isfinite(t_val):
                status, margin = STATUS_VACUOUS, math.inf
            elif not math.isfinite(s_t):
                status, margin = STATUS_VIOLATED, -math.inf
            else:
                margin = t_val - s_t
                scale = margin_scale(s_t, t_val)
                status = STATUS_OK if margin >= -tol * scale else STATUS_VIOLATED
            rows.append(CdRow(t=float(t), nprime=nprime, s_value=s_t,
                              t_value=t_val, margin=margin, status=status))
    return rows


def _assert_rows_identical(rep, want):
    assert len(rep.rows) == len(want)
    for got, ref in zip(rep.rows, want):
        assert got == ref  # every field, with ==
        assert all(type(v) is float for v in (got.t, got.nprime, got.s_value,
                                               got.t_value, got.margin))


def test_verify_cd_rows_equal_the_per_row_loop():
    # cos_n against CD(-2, -1): the pair from end to end gives vacuous rows
    # (tau = inf), and the narrow block overflows its endpoint entropy near
    # N' = 0 (skipped rows); t_grid 7 puts 1 - t off the grid
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=256))
    a, span = sp.grid.a, sp.grid.b - sp.grid.a
    left = uniform_block(sp.grid, a + 0.05 * span, a + 0.12 * span)
    right = uniform_block(sp.grid, a + 0.88 * span, a + 0.95 * span)
    narrow = uniform_block(sp.grid, a + 0.48 * span, a + 0.5 * span)
    statuses = set()
    for mu0, mu1 in ((left, right), (left, narrow)):
        for t_grid, nprime_grid in ((11, 9), (7, 5),
                                    (np.array([0.5, 0.0, 0.25]), 3)):
            rep = verify_cd(sp, mu0, mu1, K=-2.0, N=-1.0, t_grid=t_grid,
                            nprime_grid=nprime_grid)
            _assert_rows_identical(rep, _verify_cd_per_row(
                sp, mu0, mu1, -2.0, -1.0, t_grid, nprime_grid))
            statuses |= set(rep.counts())
    assert {STATUS_OK, STATUS_VACUOUS, STATUS_SKIPPED} <= statuses

    # cauchy on [-4, 4] against CD(0, -1), on sampled pairs
    sp = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                     domain=(-4.0, 4.0), grid_n=256))
    for spec0, spec1 in sample_pair_specs(sp, -1.0, 3, seed=2):
        mu0 = measure_from_dict(sp.grid, spec0)
        mu1 = measure_from_dict(sp.grid, spec1)
        rep = verify_cd(sp, mu0, mu1, K=0.0, N=-1.0)
        _assert_rows_identical(rep, _verify_cd_per_row(sp, mu0, mu1, 0.0, -1.0, 11, 9))

    # a null corridor between the marginals: violated rows with -inf margin
    g = Grid1D.uniform(0.0, 1.0, 20)
    dens = np.ones(20)
    dens[8:12] = 0.0
    sp = PointedSpace1D(grid=g, density=dens, singular_points=(), base_point=0.1)
    mu0 = uniform_block(g, 0.05, 0.3)
    mu1 = uniform_block(g, 0.7, 0.95)
    rep = verify_cd(sp, mu0, mu1, K=0.0, N=-2.0, t_grid=5, nprime_grid=4)
    _assert_rows_identical(rep, _verify_cd_per_row(sp, mu0, mu1, 0.0, -2.0, 5, 4))
    assert rep.counts()[STATUS_VIOLATED] > 0


def test_support_in_intervals_matches_the_interval_loop():
    # the one sorted search equals a scan over every closed interval
    rng = np.random.default_rng(7)
    g = Grid1D.uniform(-3.0, 3.0, 60)
    c = g.centers
    for case in range(300):
        ends = np.sort(rng.choice(np.concatenate([c, g.edges]),
                                  size=2 * int(rng.integers(0, 5)), replace=False))
        ivs = [(float(a), float(b)) for a, b in zip(ends[0::2], ends[1::2])]
        if case % 7 == 0 and len(ivs) > 1:  # touching intervals
            ivs[1] = (ivs[0][1], ivs[1][1])
        masses = rng.uniform(size=60) * (rng.uniform(size=60) < 0.1)
        if masses.sum() == 0:
            masses[int(rng.integers(60))] = 1.0
        mu = DiscreteMeasure(g, masses)
        cs = c[mu.support]
        want = all(any(a <= x <= b for a, b in ivs) for x in cs)
        assert _support_in_intervals(mu, ivs) is want


def test_default_sampler_keeps_marginals_in_the_regular_region():
    # a block drawn near an end of R^0 used to charge a cell centred outside
    # it (cos_n, k 0, seed 3), which raised SupportViolation; such a pair is
    # now drawn again
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=256))
    w = estimate_omega(sp, 0, [0, 1, 2, 3, 4], 100.0, n_samples=8, N=-2.0,
                       seed=3)
    assert len(w) == 5 and all(0.0 <= v <= 1.0 for v in w)


# ---------------------------------------------------------------------------
# sampling and suites


def test_sample_pair_specs_deterministic(lebesgue):
    a = sample_pair_specs(lebesgue, -2.0, 5, seed=42)
    b = sample_pair_specs(lebesgue, -2.0, 5, seed=42)
    assert a == b
    c = sample_pair_specs(lebesgue, -2.0, 5, seed=43)
    assert a != c


def test_sample_pair_specs_entropy_cap(lebesgue):
    specs = sample_pair_specs(lebesgue, -2.0, 4, seed=1, entropy_cap=3.0)
    for s0, s1 in specs:
        for s in (s0, s1):
            mu = measure_from_dict(lebesgue.grid, s)
            assert renyi_entropy(mu, lebesgue, -2.0) <= 3.0
    with pytest.raises(SamplerEntropyViolation):
        sample_pair_specs(lebesgue, -2.0, 1, seed=1, entropy_cap=0.5)


def test_suite_reuses_specs_across_grids():
    mk = lambda n: build_model_space(ModelSpec(kind="cosh_n", K=1.0, N=-2.0,
                                               domain=(-2.0, 2.0), grid_n=n))
    coarse = cd_suite(mk(128), 1.0, -1.0, n_samples=2, seed=3, t_grid=3)
    fine = cd_suite(mk(256), 1.0, -1.0, n_samples=2, seed=3, t_grid=3,
                    pair_specs=coarse.pair_specs)
    assert coarse.pair_specs == fine.pair_specs
    assert fine.grid_n == 256
    assert coarse.passes() and fine.passes()


def test_richardson_check_runs():
    mk = lambda n: build_model_space(ModelSpec(kind="cosh_n", K=1.0, N=-2.0,
                                               domain=(-2.0, 2.0), grid_n=n))
    out = richardson_check(mk, 1.0, -1.0, n_samples=2, seed=8,
                           grids=(128, 256), t_grid=3)
    assert out["ok"]
    assert out["neg_fine"] <= out["neg_coarse"] / 1.5 + 1e-4


def test_cos_model_dimension_slot():
    # For the cos-type density with exponent N and curvature K = N, the
    # verified condition is CD(K, N+1).  Checking the same space against
    # CD(K, N) -- the dimension slot matching the exponent -- leaves a
    # deficit that grid refinement does NOT shrink, i.e. a real violation
    # of the stronger claim, not discretization error.
    mk = lambda n: build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0,
                                               grid_n=n))
    shifted = cd_suite(mk(512), -2.0, -1.0, 6, 7)
    assert shifted.worst_deficit() <= 1e-9
    assert shifted.passes()

    matched = richardson_check(mk, -2.0, -2.0, n_samples=6, seed=7,
                               grids=(256, 512))
    assert not matched["ok"]
    assert matched["neg_coarse"] >= 1e-3
    assert matched["neg_fine"] >= 0.5 * matched["neg_coarse"]


def test_hierarchy_check_mechanics(lebesgue):
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.4)
    mu1 = uniform_block(lebesgue.grid, 0.6, 0.9)
    strong = verify_cd(lebesgue, mu0, mu1, K=0.0, N=-2.0, t_grid=5)
    weak = verify_cd(lebesgue, mu0, mu1, K=-1.0, N=-2.0, t_grid=5)
    assert hierarchy_check(strong, weak)
    # a tightened condition is NOT weaker; the comparator must notice when
    # rows that pass under `strong` fail under the other report
    tight = verify_cd(lebesgue, mu0, mu1, K=6.0, N=-2.0, t_grid=5)
    if any(r.status == "violated" for r in tight.rows):
        assert not hierarchy_check(strong, tight)
    other_grid = verify_cd(flat_space(n=128), uniform_block(
        flat_space(n=128).grid, 0.1, 0.4), uniform_block(
        flat_space(n=128).grid, 0.6, 0.9), K=0.0, N=-2.0, t_grid=5)
    with pytest.raises(MismatchedInputs):
        hierarchy_check(strong, other_grid)
    disjoint = verify_cd(lebesgue, mu0, mu1, K=0.0, N=-2.0,
                         t_grid=np.array([0.123]))
    with pytest.raises(MismatchedInputs):
        hierarchy_check(strong, disjoint)


def test_hierarchy_check_needs_equal_tolerances(lebesgue):
    # statuses are decided at each report's own tol, so reports made at
    # different tolerances cannot be compared row by row
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.4)
    mu1 = uniform_block(lebesgue.grid, 0.6, 0.9)
    strong = verify_cd(lebesgue, mu0, mu1, K=0.0, N=-2.0, t_grid=3)
    weak = verify_cd(lebesgue, mu0, mu1, K=-1.0, N=-2.0, t_grid=3, tol=1e-3)
    with pytest.raises(MismatchedInputs):
        hierarchy_check(strong, weak)


# ---------------------------------------------------------------------------
# (K, N)-convexity of weights


def test_convexity_equality_cases():
    # constant weight at K = 0 sits exactly on the boundary
    x = np.linspace(0.0, 1.0, 201)
    rep = kn_convexity_check((x, np.full_like(x, 1.7)), K=0.0, N=-2.0,
                             n_triples=300, seed=1)
    assert abs(rep.min_margin) <= 1e-12
    # cosh profile solving f'' = -(K/N) f is the equality case for that K
    K, N = 1.0, -2.0
    lam = math.sqrt(-K / N)
    x = np.linspace(-1.5, 1.5, 301)
    psi = -N * np.log(np.cosh(lam * x))
    rep = kn_convexity_check((x, psi), K=K, N=N, n_triples=400, seed=2)
    assert rep.min_margin >= -1e-9
    assert rep.min_margin <= 1e-6


def test_convexity_glued_arches_pass():
    # |cos| transform with interior zeros: kinks point the permitted way
    K, N = -2.0, -2.0
    lam = math.sqrt(K / N)
    x = np.linspace(0.0, 2.0 * math.pi / lam, 2001)
    with np.errstate(divide="ignore"):
        psi = -N * np.log(np.abs(np.cos(lam * x)))
    rep = kn_convexity_check((x, psi), K=K, N=N, n_triples=500, seed=3)
    assert rep.min_margin >= -1e-9


def test_convexity_detects_violation():
    # f_N = sin is concave, so midpoints overshoot the K = 0 chord
    x = np.linspace(0.05, math.pi - 0.05, 301)
    psi = 2.0 * np.log(np.sin(x))  # f_N = e^(-psi/N) = sin for N = -2
    rep = kn_convexity_check((x, psi), K=0.0, N=-2.0, n_triples=300, seed=4)
    assert rep.min_margin < -0.1
    assert rep.worst is not None


def test_convexity_domain_guards():
    x = np.linspace(0.0, 10.0, 101)
    psi = np.zeros_like(x)
    with pytest.raises(DomainError):
        kn_convexity_check((x, psi), K=0.0, N=2.0)
    with pytest.raises(InvalidParams):
        kn_convexity_check((x, psi[:-1]), K=0.0, N=-2.0)

    # K < 0 bounds admissible triple lengths by pi sqrt(N/K)
    def too_long(rng):
        return 0, 50, 100  # spans 10.0 > pi

    with pytest.raises(DomainError):
        kn_convexity_check((x, psi), K=-2.0, N=-2.0,
                           triple_sampler=too_long, n_triples=1)


# ---------------------------------------------------------------------------
# regular-region escape estimates


def test_regular_intervals_structure():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    ivs = regular_intervals(sp, 2)
    assert len(ivs) >= 2  # interior singular point splits the domain
    for a, b in ivs:
        assert b > a
        for s in sp.singular_points:
            assert not (a < s < b)


def test_mass_in_intervals_exact():
    u0 = np.array([0.0, 0.5])
    u1 = np.array([0.2, 0.9])
    w = np.array([1.0, 4.0])
    ivs = [(0.1, 0.6)]
    got = mass_in_intervals(u0, u1, w, [ivs])
    assert got[0] == pytest.approx(0.5 + 1.0, rel=1e-12)


def test_mass_in_intervals_sets_equal_their_own_sums():
    rng = np.random.default_rng(4)
    ends = np.sort(rng.uniform(0.0, 1.0, 24))
    u0, u1, w = ends[0::2], ends[1::2], rng.uniform(0.1, 1.0, 12)
    sets = [[], [(0.1, 0.6)], [(0.3, 0.7), (0.8, 0.95)], [(0.0, 0.2)],
            [(1.5, 2.0)], [(-0.5, 0.05), (0.12, 0.13), (0.2, 0.4), (0.41, 0.9)]]
    got = mass_in_intervals(u0, u1, w, sets)
    assert got.shape == (len(sets),)
    for ivs, m in zip(sets, got):
        cdf = blocks_cdf(u0, u1, w, np.array([e for iv in ivs for e in iv], float))
        assert m == np.sum(cdf[1::2] - cdf[0::2])
        assert m == mass_in_intervals(u0, u1, w, [ivs])[0]
    assert got[0] == 0.0 and got[4] == 0.0


def test_omega_zero_on_single_arch():
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=512))
    w = estimate_omega(sp, 0, 2, 10.0, n_samples=8, N=-2.0, seed=5)
    assert w <= 1e-12


def test_omega_monotone_in_h_same_seed():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=512))
    vals = [estimate_omega(sp, 2, h, 10.0, n_samples=10, N=-2.0, seed=6)
            for h in (2, 3, 4, 5)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0  # blocks straddling a joint do cross the hole


def test_omega_over_levels_equals_one_level_at_a_time():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    hs = [4, 2, 5, 3]
    kw = dict(n_samples=6, N=-2.0, seed=3)
    t_vec, t_one = OmegaTable(), OmegaTable()
    got = estimate_omega(sp, 2, hs, 10.0, table=t_vec, **kw)
    want = [estimate_omega(sp, 2, h, 10.0, table=t_one, **kw) for h in hs]
    assert got == want
    assert all(type(v) is float for v in got + want)
    assert t_vec.entries == t_one.entries and len(t_vec.entries) == len(hs)
    assert got[1] > 0  # h = k still loses mass across the joints
    for bad in ([], [3, 1, 4], (2, 1)):
        with pytest.raises(InvalidParams):
            estimate_omega(sp, 2, bad, 10.0, **kw)


def test_omega_guards():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    with pytest.raises(InvalidParams):
        estimate_omega(sp, 3, 2, 10.0)

    def bad_sampler(rng):
        g = sp.grid
        return (uniform_block(g, g.a + 0.01, g.a + 0.05),
                uniform_block(g, g.b - 0.05, g.b - 0.01))

    with pytest.raises(SupportViolation):
        estimate_omega(sp, 0, 0, 100.0, sampler=bad_sampler, n_samples=1)
    with pytest.raises(SamplerEntropyViolation):
        estimate_omega(sp, 2, 2, 1e-6, n_samples=1, seed=1)


def test_omega_table_and_Omega():
    table = OmegaTable()
    table.add(2, 8, 28.284271247461902, 0.01, 50)
    assert table.value(2, 8, 28.284271247461902 * (1 + 1e-12)) == 0.01
    with pytest.raises(InvalidParams):
        table.value(2, 9, 28.28)
    assert omega_to_Omega(table, 2, 8, 10.0, delta=0.004, N=-2.0) == \
        pytest.approx(0.018)
    assert omega_to_Omega(table, 2, 8, 10.0, delta=0.3, N=-2.0) == 1.0
    assert omega_to_Omega(table, 2, 8, 10.0, delta=0.25, N=-2.0) == 1.0
    table.add(2, 8, 28.284271247461902, 0.9, 50)
    assert omega_to_Omega(table, 2, 8, 10.0, delta=0.1, N=-2.0) == 1.0
    with pytest.raises(InvalidParams):
        omega_to_Omega(table, 2, 8, 10.0, delta=-0.1, N=-2.0)
