"""Inequality verifier: statuses, report bookkeeping, hierarchy, convexity
of weights, and the regular-region escape estimates."""

import dataclasses
import itertools
import math
import re
import time

import numpy as np
import pytest

from cdknlab import cdcheck
from cdknlab.cdcheck import (
    DEFAULT_TOL,
    MAX_TRIES,
    OMEGA_T_GRID,
    Omega_cap,
    REFINE_FACTOR,
    SPEC_KINDS,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_VACUOUS,
    STATUS_VIOLATED,
    CdReport,
    CdRow,
    _one_spec,
    _pair_sampler,
    _support_in_intervals,
    cd_suite,
    default_nprime_grid,
    default_t_grid,
    estimate_Omega,
    estimate_omega,
    hierarchy_check,
    kn_convexity_check,
    margin_scale,
    mass_in_intervals,
    regular_intervals,
    richardson_check,
    sample_pair_specs,
    sampling_intervals,
    t_functional,
    verify_cd,
)
from cdknlab.distortion import sigma_kappa_lengths, tau_KN_vec
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
from cdknlab.ikrw import glued_drift_space
from cdknlab.mmspace import Grid1D, ModelSpec, PointedSpace1D, build_model_space
from cdknlab.transport import Coupling, monotone_map

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


def test_default_t_grid_is_mirror_exact():
    # the lower half is 1 - the upper half, so 1 - t is again a time of the
    # grid, bit for bit, while every time stays within 2 ulp at 1/2
    # (2.2e-16) of linspace's
    assert default_t_grid(1).tolist() == [0.0]
    for n in range(1, 65):
        ts = default_t_grid(n)
        lin = np.linspace(0.0, 1.0, n)
        assert ts.size == n and np.all(np.diff(ts) > 0)
        assert ts[0] == 0.0
        assert np.all(np.abs(ts - lin) <= 2 * np.spacing(0.5))
        if n > 1:
            assert ts[-1] == 1.0
            assert np.array_equal(np.sort(1.0 - ts), ts)
    with pytest.raises(InvalidParams):
        default_t_grid(0)


def test_margin_scale_saturates_at_one():
    assert margin_scale(0.3, 0.9) == 1.0
    assert margin_scale(5.0, 2.0) == 5.0
    assert margin_scale(math.inf, 3.0) == 3.0
    assert margin_scale(math.nan, math.inf) == 1.0


def test_margin_scale_over_arrays_equals_the_scalar_calls():
    big = np.finfo(float).max
    vals = [0.0, -0.0, 0.3, -2.5, 1.0, 7e300, big, -big, big / 2, math.inf,
            -math.inf, math.nan, 5e-324]
    s, t = (a.ravel() for a in np.meshgrid(vals, vals))
    got = margin_scale(s, t)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    want = [margin_scale(a, b) for a, b in zip(s.tolist(), t.tolist())]
    assert all(type(v) is float for v in want)
    assert got.tolist() == want
    # and each is max(1, |S|, |T|) over the finite sides
    assert want == [max([1.0] + [abs(v) for v in (a, b) if math.isfinite(v)])
                    for a, b in zip(s.tolist(), t.tolist())]
    assert margin_scale(s.reshape(13, 13), t.reshape(13, 13)).tolist() == \
        got.reshape(13, 13).tolist()


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
    # not symmetric, with repeats: 1 - t meets a time of the grid only at 0.25
    lopsided = np.array([0.75, 0.3, 0.3, 0.25, 0.99, 1e-300, 0.6180339887])
    for K, N in ((1.5, -2.0), (-3.0, -0.4), (0.0, -1.0), (-200.0, -1.0),
                 (2.0, -1e-3)):
        for grid in (ts, lopsided):
            got = t_functional(coup, rho0, rho1, K, N, grid)
            assert isinstance(got, np.ndarray) and got.shape == grid.shape
            want = [t_functional(coup, rho0, rho1, K, N, float(t)) for t in grid]
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


def test_t_functional_over_nprimes_equals_one_nprime_at_a_time(lebesgue):
    # rho1 = 10 overflows under the N' = -1e-3 power, and K = -200 puts the
    # long distances past the pi^2 threshold: both give inf entries
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.9)
    mu1 = uniform_block(lebesgue.grid, 0.45, 0.55)
    coup = monotone_map(mu0, mu1).as_coupling()
    rho0 = radon_nikodym(mu0, lebesgue)
    rho1 = radon_nikodym(mu1, lebesgue)
    nps = np.array([-3.0, -1.0, -0.4, -0.05, -0.01, -1e-3, -1.0])
    ts = np.array([0.0, 1.0, 0.5, 0.1, 0.9, 1e-9, 0.73])
    seen = set()
    for K in (-200.0, -3.0, 0.0, 1.5):
        got = t_functional(coup, rho0, rho1, K, nps, ts)
        assert isinstance(got, np.ndarray) and got.shape == (nps.size, ts.size)
        for row, nprime in zip(got.tolist(), nps.tolist()):
            assert row == t_functional(coup, rho0, rho1, K, nprime, ts).tolist()
            assert row == [t_functional(coup, rho0, rho1, K, nprime, t)
                           for t in ts.tolist()]
        at_half = t_functional(coup, rho0, rho1, K, nps, 0.5)
        assert at_half.shape == nps.shape
        assert at_half.tolist() == got[:, 2].tolist()
        seen |= {math.isfinite(v) for v in got.ravel().tolist()}
    assert seen == {True, False}
    for bad in (np.array([-1.0, 0.0]), np.array([-1.0, math.nan])):
        with pytest.raises(DomainError):
            t_functional(coup, rho0, rho1, 1.5, bad, ts)


def test_t_functional_evaluates_tau_at_the_distinct_times(lebesgue, monkeypatch):
    # ts and 1 - ts of the default grid are the same 11 times
    mu0 = uniform_block(lebesgue.grid, 0.1, 0.3)
    mu1 = uniform_block(lebesgue.grid, 0.6, 0.9)
    coup = monotone_map(mu0, mu1).as_coupling()
    rho0, rho1 = radon_nikodym(mu0, lebesgue), radon_nikodym(mu1, lebesgue)
    seen = []

    def spy(K, N, t, theta):
        seen.append(np.size(t))
        return tau_KN_vec(K, N, t, theta)

    monkeypatch.setattr(cdcheck, "tau_KN_vec", spy)
    nps = default_nprime_grid(-2.0, 3)
    t_functional(coup, rho0, rho1, -1.0, nps, default_t_grid(11))
    assert seen == [11] * nps.size


def _two_segment_coupling(w_small: float):
    """A segment of mass 1 - w_small at distance 0 and one of mass w_small
    carried over 0.3 on a two-cell grid."""
    g = Grid1D(np.array([0.0, 1.0, 2.0]))
    coup = Coupling(i=np.array([0, 1]), j=np.array([0, 1]),
                    w=np.array([1.0 - w_small, w_small]),
                    x=np.array([0.5, 1.2]), y=np.array([0.5, 1.5]),
                    src_grid=g, dst_grid=g)
    return g, coup


def test_t_functional_weighs_by_w_before_tau():
    # tau * rho1^(-1/N') is about 6e310 on the short segment, past the
    # doubles, while its weight w = 1e-6 brings the term to about 6e304
    g, coup = _two_segment_coupling(1e-6)
    rho0 = DensityWrtM(g, np.array([1.0, 1.0]))
    rho1 = DensityWrtM(g, np.array([1.0, 10 ** 3.06]))
    K, N, t = -10.0, -0.01, 0.5
    expo = -1.0 / N
    tau0 = tau_KN_vec(K, N, 1.0 - t, np.abs(coup.x - coup.y))
    tau1 = tau_KN_vec(K, N, t, np.abs(coup.x - coup.y))
    assert math.isinf(float(tau1[1]) * float(rho1.values[1]) ** expo)
    want = sum(w * r0 ** expo * a + w * r1 ** expo * b for w, r0, r1, a, b in zip(
        coup.w.tolist(), rho0.values.tolist(), rho1.values.tolist(),
        tau0.tolist(), tau1.tolist()))
    got = t_functional(coup, rho0, rho1, K, N, t)
    assert math.isfinite(got) and got > 1e300
    assert got == pytest.approx(want, rel=1e-12)
    # a weight that overflows by itself still gives inf, except where tau = 0
    rho1 = DensityWrtM(g, np.array([1.0, 1e4]))
    assert math.isinf(t_functional(coup, rho0, rho1, K, N, t))
    assert math.isfinite(t_functional(coup, rho0, rho1, K, N, 0.0))


def test_t_functional_memory_does_not_grow_with_the_nprimes():
    # tau is evaluated one N' plane at a time: 200 N' may not take 10x the
    # working memory of 20, as an (N', times, segments) array would
    import tracemalloc

    space = flat_space(n=4096)
    mu0 = uniform_block(space.grid, 0.05, 0.6)
    mu1 = uniform_block(space.grid, 0.3, 0.95)
    coup = monotone_map(mu0, mu1).as_coupling()
    rho0, rho1 = radon_nikodym(mu0, space), radon_nikodym(mu1, space)
    ts = default_t_grid(11)
    assert coup.w.size > 2000

    def peak(count):
        nps = default_nprime_grid(-2.0, count)
        t_functional(coup, rho0, rho1, -1.0, nps, ts)  # warm
        tracemalloc.start()
        try:
            t_functional(coup, rho0, rho1, -1.0, nps, ts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) <= 1.5 * peak(20)


def _t_functional_row_sums(coup, rho0, rho1, nps, ts):
    """T at K = 0 as the per-segment row sums of tau = t times the weights:
    the reference for the affine side."""
    out = []
    for nprime in nps:
        expo = -1.0 / nprime
        row = []
        with np.errstate(over="ignore", invalid="ignore"):
            p0 = coup.w * rho0.values[coup.i] ** expo
            p1 = coup.w * rho1.values[coup.j] ** expo
            for t in ts:
                sides = [np.sum(np.where(u == 0.0, 0.0, u * p))
                         for u, p in ((1.0 - t, p0), (t, p1))]
                row.append(float(sides[0] + sides[1]))
        out.append([v if math.isfinite(v) else math.inf for v in row])
    return np.array(out)


def test_t_functional_at_k_zero_is_affine_in_the_time(monkeypatch):
    # K = 0 on sampled cauchy pairs: within 1e-15 of the row sums, with no
    # tau call, and the ends t = 0, 1 bit for bit
    sp = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                     domain=(-4.0, 4.0), grid_n=256))
    calls = []
    monkeypatch.setattr(cdcheck, "tau_KN_vec", lambda *a: calls.append(a))
    ts, nps = default_t_grid(11), default_nprime_grid(-1.0, 9)
    seen = set()
    for spec0, spec1 in sample_pair_specs(sp, -1.0, 4, seed=3):
        mu0 = measure_from_dict(sp.grid, spec0)
        mu1 = measure_from_dict(sp.grid, spec1)
        coup = monotone_map(mu0, mu1).as_coupling()
        rho0, rho1 = radon_nikodym(mu0, sp), radon_nikodym(mu1, sp)
        got = t_functional(coup, rho0, rho1, 0.0, nps, ts)
        want = _t_functional_row_sums(coup, rho0, rho1, nps, ts)
        fin = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), fin)
        assert np.all(np.abs(got[fin] - want[fin]) <= 1e-15 * np.abs(want[fin]))
        assert got[:, [0, -1]].tolist() == want[:, [0, -1]].tolist()
        seen |= set(fin.ravel().tolist())
    assert seen == {True, False} and calls == []


def test_t_functional_at_k_zero_keeps_overflowed_sides():
    g, coup = _two_segment_coupling(1e-6)
    one = DensityWrtM(g, np.array([1.0, 1.0]))
    # an overflowed weight (1e4^100) is inf for t > 0 and adds 0 at t = 0
    big = DensityWrtM(g, np.array([1.0, 1e4]))
    got = t_functional(coup, one, big, 0.0, -0.01, np.array([0.0, 0.5, 1.0]))
    assert not np.isnan(got).any()
    assert got[0] == 1.0 and np.isinf(got[1:]).all()
    # two weights of 1e308 each: their sum overflows, while u times each
    # adds to a finite side for u <= 0.8; the N' = -2 row has a finite sum
    coup2 = Coupling(i=coup.i, j=coup.j, w=np.array([1.0, 1.0]), x=coup.x,
                     y=coup.y, src_grid=g, dst_grid=g)
    huge = DensityWrtM(g, np.array([1e308, 1e308]))
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    got = t_functional(coup2, one, huge, 0.0, np.array([-1.0, -2.0]), ts)
    want = _t_functional_row_sums(coup2, one, huge, [-1.0, -2.0], ts)
    assert got[0].tolist() == want[0].tolist() == [2.0, 0.5e308 + 1.5, 1e308 + 1.0, math.inf]
    assert np.allclose(got[1], want[1], rtol=1e-15, atol=0.0)
    # the time and distance checks of the tau call that K = 0 skips
    for bad in (1.5, -0.1, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            t_functional(coup, one, one, 0.0, -1.0, bad)
    far = Coupling(i=coup.i, j=coup.j, w=coup.w, x=np.array([0.5, math.inf]),
                   y=coup.y, src_grid=g, dst_grid=g)
    with pytest.raises(DomainError):
        t_functional(far, one, one, 0.0, -1.0, 0.5)


def test_t_functional_over_pairs_equals_one_pair_at_a_time():
    # a sequence of couplings gives a leading pair axis whose entries are
    # the one-pair calls bit for bit, also when one pair's weights or sums
    # overflow next to finite pairs (at K = 0 and K != 0)
    sp = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                     domain=(-4.0, 4.0), grid_n=128))
    pairs = []
    for spec0, spec1 in sample_pair_specs(sp, -1.0, 3, seed=6):
        mu0 = measure_from_dict(sp.grid, spec0)
        mu1 = measure_from_dict(sp.grid, spec1)
        pairs.append((monotone_map(mu0, mu1).as_coupling(),
                      radon_nikodym(mu0, sp), radon_nikodym(mu1, sp)))
    g, coup = _two_segment_coupling(1e-6)
    one = DensityWrtM(g, np.array([1.0, 1.0]))
    coup2 = Coupling(i=coup.i, j=coup.j, w=np.array([1.0, 1.0]), x=coup.x,
                     y=coup.y, src_grid=g, dst_grid=g)
    pairs[1:1] = [(coup, one, DensityWrtM(g, np.array([1.0, 1e4]))),
                  (coup2, one, DensityWrtM(g, np.array([1e308, 1e308])))]
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    for K in (0.0, -2.0):
        for N, t in ((np.array([-1.0, -0.5, -0.01]), ts), (-0.01, ts),
                     (np.array([-1.0, -0.01]), 0.5), (-0.5, 0.25)):
            got = t_functional(*zip(*pairs), K, N, t)
            assert got.shape == (len(pairs),) + np.shape(N) + np.shape(t)
            for k, pair in enumerate(pairs):
                alone = t_functional(*pair, K, N, t)
                assert np.asarray(got[k]).tobytes() == np.asarray(alone).tobytes()
    with pytest.raises(InvalidParams):
        t_functional([coup, coup], [one], [one, one], 0.0, -1.0, 0.5)
    with pytest.raises(InvalidParams):
        t_functional([], [], [], 0.0, -1.0, 0.5)


# ---------------------------------------------------------------------------
# verify_cd statuses


def test_verify_cd_row_is_ok_where_tau_times_rho_alone_overflows():
    # a cos_n pair of the certify benchmark (grid 1024, K -2, N -1): at
    # t = 0.1 and N' = -0.00237 the terms tau rho^(-1/N') overflow, but
    # weighed by w first the right side is finite
    space = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=1024))
    mu0 = measure_from_dict(space.grid, {"type": "bump", "center": -1.1440772867472628,
                                         "width": 0.3296034081405758})
    mu1 = measure_from_dict(space.grid, {"type": "bump", "center": -0.4292600031067769,
                                         "width": 0.17976726602420354})
    nps = default_nprime_grid(-1.0, 9)
    rep = verify_cd(space, mu0, mu1, K=-2.0, N=-1.0, nprime_grid=nps)
    row = rep.rows[1 * nps.size + 7]
    assert row.t == default_t_grid(11)[1] and row.nprime == nps[7]
    assert row.status == STATUS_OK
    assert row.t_value == pytest.approx(3.787e307, rel=1e-3)


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


def test_verify_cd_refuses_a_check_of_nothing(lebesgue):
    mu = uniform_block(lebesgue.grid, 0.2, 0.8)
    for kw in ({"t_grid": 0}, {"t_grid": -1}, {"nprime_grid": 0},
               {"nprime_grid": -3}, {"t_grid": np.array([])},
               {"nprime_grid": np.array([])},
               {"nprime_grid": np.array([-0.5, math.nan])}):
        with pytest.raises(InvalidParams):
            verify_cd(lebesgue, mu, mu, K=0.0, N=-1.0, **kw)
    # a default N' grid of one point must still be asked for
    with pytest.raises(InvalidParams):
        verify_cd(lebesgue, mu, mu, K=0.0, N=-1e-4, nprime_grid=0)
    assert len(verify_cd(lebesgue, mu, mu, K=0.0, N=-1e-4, nprime_grid=1,
                         t_grid=1).rows) == 1
    with pytest.raises(InvalidParams):
        cd_suite(lebesgue, 0.0, -1.0, n_samples=0, seed=0)
    with pytest.raises(InvalidParams):
        cd_suite(lebesgue, 0.0, -1.0, n_samples=3, seed=0, pair_specs=[])
    # a certification over no pairs would pass any K on cos_n
    mk = lambda n: build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0,
                                               grid_n=n))
    with pytest.raises(InvalidParams):
        richardson_check(mk, 0.0, -2.0, n_samples=0, seed=0, grids=(256, 512))


def _verify_cd_per_row(space, mu0, mu1, K, N, t_grid, nprime_grid,
                      tol=DEFAULT_TOL):
    """verify_cd's rows as one call of each entropy and t_functional per
    (t, N') row, the way they were computed before the array passes, with S
    at t = 0 and t = 1 the endpoint entropies."""
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
            s_t = (s0 if t == 0 else s1 if t == 1
                   else entropy_from_masses(wslice, rmass, nprime))
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


def test_endpoint_rows_take_the_endpoint_entropies(monkeypatch):
    # S at t = 0 and t = 1 is renyi_entropy of mu0 and mu1, bit for bit; the
    # interior rows still equal the per-row loop, and a grid with no interior
    # time bins no slice at all
    binned = []
    monkeypatch.setattr(cdcheck, "bin_blocks",
                        lambda *a: binned.append(a) or bin_blocks(*a))
    for spec, K in ((dict(kind="cos_n", K=-2.0, N=-2.0, grid_n=128), -2.0),
                    (dict(kind="cauchy", alpha=1.0, domain=(-4.0, 4.0), grid_n=128), 0.0)):
        sp = build_model_space(ModelSpec(**spec))
        nps = default_nprime_grid(-1.0, 9)
        for spec0, spec1 in sample_pair_specs(sp, -1.0, 2, seed=4):
            mu0 = measure_from_dict(sp.grid, spec0)
            mu1 = measure_from_dict(sp.grid, spec1)
            ends = {0.0: renyi_entropy(mu0, sp, nps).tolist(),
                    1.0: renyi_entropy(mu1, sp, nps).tolist()}
            rep = verify_cd(sp, mu0, mu1, K, -1.0)
            for t, want in ends.items():
                assert [r.s_value for r in rep.rows if r.t == t] == want
            for ts in ([0.3, 0.7], [0.0], [1.0], [0.0, 1.0], [1.0, 0.5, 0.0, 1.0]):
                binned.clear()
                rep = verify_cd(sp, mu0, mu1, K, -1.0, t_grid=np.array(ts),
                                nprime_grid=nps)
                _assert_rows_identical(rep, _verify_cd_per_row(
                    sp, mu0, mu1, K, -1.0, np.array(ts), nps))
                assert len(binned) == any(0.0 < t < 1.0 for t in ts)
                for r in rep.rows:
                    if r.t in ends:
                        assert r.s_value == ends[r.t][list(nps).index(r.nprime)]


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


def test_pair_sampler_entropy_cap(lebesgue):
    draws = _pair_sampler(lebesgue, -2.0, [3.0])
    pairs = list(draws(np.random.default_rng(1), 4))
    assert len(pairs) == 4
    for specs, mus, takes in pairs:
        assert takes.tolist() == [True]
        for s, mu in zip(specs, mus):
            assert np.array_equal(mu.masses,
                                  measure_from_dict(lebesgue.grid, s).masses)
            assert renyi_entropy(mu, lebesgue, -2.0) <= 3.0
    with pytest.raises(SamplerEntropyViolation):
        list(_pair_sampler(lebesgue, -2.0, [0.5])(np.random.default_rng(1), 1))


def test_pair_sampler_keeps_a_failed_cap_failed(lebesgue, monkeypatch):
    # scripted (S0, S1) per pair against caps (2, 1): 0.5 passes both, 1.5
    # only the first, 3.0 neither.  The second cap fails on its MAX_TRIES-th
    # rejection in a row while the first still needs a pair; the pairs drawn
    # for the first after that must neither revive it nor be yielded
    script = iter([(0.5, 0.5)] + [(3.0, 3.0)] * (MAX_TRIES - 1) + [(1.5, 1.5)]
                  + [(0.5, 0.5)] * 5)
    monkeypatch.setattr(cdcheck, "renyi_entropy", lambda masses, space, N: np.array(
        [s for _ in range(len(masses) // 2) for s in next(script)]))
    draws = _pair_sampler(lebesgue, -2.0, [2.0, 1.0], kind="uniform_block")
    yielded = []
    with pytest.raises(SamplerEntropyViolation, match=r"S_N <= 1\.0 on"):
        for _, _, takes in draws(np.random.default_rng(0), 3):
            yielded.append(takes.tolist())
    assert yielded == [[True, True]]


def _pair_sampler_one_pair_at_a_time(space, N, caps, k=None, kind=None):
    """_pair_sampler as it was written before its rounds: each pair is drawn,
    built and measured on its own, and its second marginal's S_N is taken
    only while some cap may still take the pair.  draws also appends each
    pair drawn to `drawn`."""
    ivs_k = None if k is None else regular_intervals(space, k)
    ivs = sampling_intervals(space, base=ivs_k)

    def draws(rng, n, drawn):
        got, misses = [0] * len(caps), [0] * len(caps)
        while any(g < n for g in got):
            first = next(c for c, g in enumerate(got) if g < n)
            if misses[first] >= MAX_TRIES:
                raise SamplerEntropyViolation(
                    f"default sampler cannot satisfy S_N <= {caps[first]} on this space")
            pending = [g < n and m < MAX_TRIES for g, m in zip(got, misses)]
            specs = tuple(cdcheck._one_spec(rng, ivs,
                                            kind or SPEC_KINDS[rng.integers(len(SPEC_KINDS))])
                          for _ in range(2))
            drawn.append(specs)
            try:
                mus = tuple(measure_from_dict(space.grid, s) for s in specs)
            except InvalidParams:
                mus = ()
            takes = pending if mus else [False] * len(caps)
            for mu in mus:
                if any(takes):
                    s = (renyi_entropy(mu, space, N)
                         if ivs_k is None or _support_in_intervals(mu, ivs_k) else math.nan)
                    takes = [tk and math.isfinite(s) and s <= cap
                             for tk, cap in zip(takes, caps)]
            got = [g + tk for g, tk in zip(got, takes)]
            misses = [0 if tk else m + p for m, tk, p in zip(misses, takes, pending)]
            if any(takes) and max(misses) < MAX_TRIES:
                yield specs, mus, np.array(takes)

    return draws


def _sampler_outcome(stream, seed):
    """Each yielded pair's specs, mass bytes and takes, the message of the
    error raised (or None) and, when none was, the generator's next value."""
    rng, got = np.random.default_rng(seed), []
    try:
        for specs, mus, takes in stream(rng):
            got.append((specs, [mu.masses.tobytes() for mu in mus], takes.tolist()))
    except SamplerEntropyViolation as e:
        return got, str(e), None
    return got, None, rng.random()


_SAMPLER_CASES = {  # space, N, caps, k, kind
    "blocks_in_Rk_two_caps": (dict(kind="glued_cos_n", K=-2.0, N=-2.0, J=2, grid_n=256),
                              -2.0, [Omega_cap(1.05, -2.0), 1.05], 2, "uniform_block"),
    "bumps_and_mixtures": (dict(kind="cauchy", alpha=1.0, domain=(-4.0, 4.0), grid_n=128),
                           -1.0, [math.inf], None, None),
    "glued_drift": ("glued_drift", -2.0, [math.inf], None, None),
    "glued_drift_in_Rk": ("glued_drift", -2.0, [10.0, 1.2], 1, "uniform_block"),
    "failing_cap": (dict(kind="glued_cos_n", K=-2.0, N=-2.0, J=2, grid_n=256),
                    -2.0, [10.0, 1e-6], 2, "uniform_block"),
    "failing_cap_mixtures": (dict(kind="cos_n", K=-2.0, N=-2.0, grid_n=128),
                             -2.0, [math.inf, 0.6], None, None),
}


@pytest.mark.parametrize("case", list(_SAMPLER_CASES))
def test_pair_sampler_rounds_equal_one_pair_at_a_time(case, monkeypatch):
    # the same specs, bit-identical masses and takes, and the same error
    # after the same pairs; when no cap fails, the same pairs are drawn:
    # _one_spec is called twice per pair the one-pair loop draws
    spec, N, caps, k, kind = _SAMPLER_CASES[case]
    sp = (glued_drift_space(2, grid_n=128) if spec == "glued_drift"
          else build_model_space(ModelSpec(**spec)))
    assert (np.ptp(sp.grid.widths) > 1e-6) == (spec == "glued_drift")
    calls, depth, real = [0], [0], cdcheck._one_spec

    def counted(*args):  # calls from outside _one_spec (mixtures recurse)
        calls[0] += depth[0] == 0
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(cdcheck, "_one_spec", counted)
    # rounds of as many pairs as a cap needs, and of one pair (a tiny budget)
    rounds = [_pair_sampler(sp, N, caps, k, kind)]
    monkeypatch.setattr(cdcheck, "PAIR_GROUP_ELEMS", 1)
    rounds.append(_pair_sampler(sp, N, caps, k, kind))
    one_at_a_time = _pair_sampler_one_pair_at_a_time(sp, N, caps, k, kind)
    kinds, errors = set(), set()
    for seed in range(4):
        calls[0], drawn = 0, []
        want = _sampler_outcome(lambda rng: one_at_a_time(rng, 5, drawn), seed)
        assert calls[0] == 2 * len(drawn)
        for draws in rounds:
            calls[0] = 0
            got = _sampler_outcome(lambda rng: draws(rng, 5), seed)
            assert got == want
            if want[1] is None:
                assert calls[0] == 2 * len(drawn)
        kinds |= {s["type"] for specs in drawn for s in specs}
        errors.add(want[1])
        if len(caps) > 1 and want[1] is None:  # the caps take different pairs
            assert len(got[0]) > 5
    assert (kinds == set(SPEC_KINDS)) == (kind is None)
    assert (None not in errors) == case.startswith("failing_cap")


def test_pair_sampler_rejects_a_pair_whose_spec_makes_no_measure(monkeypatch):
    # every third spec drawn (mixture parts too) is a block off the grid,
    # which makes no measure: its pair is rejected, as in the one-pair loop
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=128))
    real, count = cdcheck._one_spec, [0]

    def spoiled(rng, ivs, kind):
        spec = real(rng, ivs, kind)
        count[0] += 1
        return ({"type": "uniform_block", "a": 1e6, "b": 1e6 + 1.0}
                if count[0] % 3 == 0 else spec)

    monkeypatch.setattr(cdcheck, "_one_spec", spoiled)
    for caps, k, kind in (([math.inf], None, None), ([10.0, 1.2], 1, "uniform_block")):
        rounds = _pair_sampler(sp, -2.0, caps, k, kind)
        one_at_a_time = _pair_sampler_one_pair_at_a_time(sp, -2.0, caps, k, kind)
        for seed in range(3):
            count[0], drawn = 0, []
            want = _sampler_outcome(lambda rng: one_at_a_time(rng, 4, drawn), seed)
            count[0] = 0
            assert _sampler_outcome(lambda rng: rounds(rng, 4), seed) == want
            assert want[1] is None and len(drawn) > 4


def _sample_pair_specs_as_written(space, N, n_pairs, seed):
    """sample_pair_specs' own rejection loop as it was written, before the
    pair sampler served it (with no entropy cap)."""
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
            if all(math.isfinite(e) for e in ents):
                pairs.append(spec)
                break
        else:
            raise SamplerEntropyViolation("could not sample a pair")
    return pairs


def _block_sampler_as_written(space, k, N, M):
    """estimate_omega's default sampler as it was written, before the pair
    sampler served it."""
    ivs_k = regular_intervals(space, k)
    ivs = sampling_intervals(space, base=ivs_k)

    def sampler(rng):
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


_PINNED_SPACES = {
    "cos_n": dict(kind="cos_n", K=-2.0, N=-2.0, grid_n=256),
    "cauchy": dict(kind="cauchy", alpha=1.0, domain=(-4.0, 4.0), grid_n=256),
    "glued_cos_n": dict(kind="glued_cos_n", K=-2.0, N=-2.0, J=2, grid_n=256),
}


@pytest.mark.parametrize("name", list(_PINNED_SPACES))
def test_pair_sampler_equals_both_loops_as_written(name):
    sp = build_model_space(ModelSpec(**_PINNED_SPACES[name]))
    N, k = -2.0, 1
    for seed in range(6):
        assert (sample_pair_specs(sp, N, 5, seed)
                == _sample_pair_specs_as_written(sp, N, 5, seed))
        for M in (10.0, 2.0 ** (1.0 - 1.0 / N) * 10.0):  # omega's plain and scaled M
            draws = _pair_sampler(sp, N, [M], k, "uniform_block")
            want = _block_sampler_as_written(sp, k, N, M)
            rng, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            for specs, mus, _ in draws(rng, 5):
                assert [mu.masses.tolist() for mu in mus] == \
                    [mu.masses.tolist() for mu in want(rng_want)]
                assert [mu.masses.tolist() for mu in mus] == \
                    [measure_from_dict(sp.grid, s).masses.tolist() for s in specs]
            assert rng.random() == rng_want.random()  # the same stream used


def _one_spec_by_choice(rng, intervals, kind):
    """_one_spec as it drew the interval before its CDF was precomputed:
    rng.choice with p = lengths / total on every call."""
    lens = np.array([b - a for a, b in intervals])
    a, b = intervals[int(rng.choice(len(intervals), p=lens / lens.sum()))]
    span = b - a
    width = span * (0.1 + 0.25 * rng.random())
    lo = a + rng.random() * (span - width)
    if kind == "uniform_block":
        return {"type": "uniform_block", "a": lo, "b": lo + width}
    if kind == "bump":
        return {"type": "bump", "center": lo + width / 2, "width": width / 2}
    parts = [dict(_one_spec_by_choice(rng, intervals, "uniform_block"),
                  weight=0.3 + 0.4 * rng.random()),
             dict(_one_spec_by_choice(rng, intervals, "uniform_block"),
                  weight=0.3 + 0.4 * rng.random())]
    return {"type": "mixture", "parts": parts}


def _pair_specs_by_choice(space, N, n_pairs, seed, kind=None):
    """The pair sampler's stream with no cap, every draw by rng.choice: the
    kind, when not given, then each marginal's interval."""
    rng = np.random.default_rng(seed)
    ivs = sampling_intervals(space).pieces
    pairs = []
    while len(pairs) < n_pairs:
        specs = tuple(_one_spec_by_choice(rng, ivs, kind or str(rng.choice(SPEC_KINDS)))
                      for _ in range(2))
        try:
            mus = [measure_from_dict(space.grid, s) for s in specs]
        except InvalidParams:
            continue
        if all(math.isfinite(renyi_entropy(mu, space, N)) for mu in mus):
            pairs.append(specs)
    return pairs


def test_sampler_draws_the_stream_of_rng_choice(monkeypatch):
    # the precomputed CDF and the integer kind draw take the values, and
    # consume the generator, as rng.choice did: on a space whose sampling
    # intervals are two pieces and on one where they are a single piece
    glued = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                        grid_n=128))
    cos = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=128))
    assert len(sampling_intervals(glued).pieces) == 2
    assert len(sampling_intervals(cos).pieces) == 1
    kinds = set()
    for sp in (glued, cos):
        for seed in range(100):
            got = sample_pair_specs(sp, -2.0, 2, seed)
            assert got == _pair_specs_by_choice(sp, -2.0, 2, seed)
            kinds |= {s["type"] for pair in got for s in pair}
            kind = SPEC_KINDS[seed % len(SPEC_KINDS)]
            draws = _pair_sampler(sp, -2.0, [math.inf], kind=kind)
            assert [specs for specs, _, _ in draws(np.random.default_rng(seed), 1)] \
                == _pair_specs_by_choice(sp, -2.0, 1, seed, kind)
    assert kinds == set(SPEC_KINDS)
    # estimate_omega's values, against its sampler drawing by rng.choice
    want = []
    with monkeypatch.context() as m:
        m.setattr(cdcheck, "_one_spec",
                  lambda rng, ivs, kind: _one_spec_by_choice(rng, ivs.pieces, kind))
        for seed in range(100):
            want.append(estimate_omega(glued, 2, [2, 4], 10.0, n_samples=2, seed=seed))
    got = [estimate_omega(glued, 2, [2, 4], 10.0, n_samples=2, seed=seed)
           for seed in range(100)]
    assert got == want and any(v[0] > 0 for v in got)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_restricted_specs_stay_in_the_regular_region(k):
    for sp in (build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0,
                                           grid_n=256)),
               build_model_space(ModelSpec(kind="power_n", N=-2.0,
                                           domain=(0.0, 4.0), grid_n=512))):
        ivs = regular_intervals(sp, k)
        for seed in range(3):
            specs = sample_pair_specs(sp, -2.0, 6, seed, restrict_to_regular_k=k)
            assert len(specs) == 6
            for s in (s for pair in specs for s in pair):
                assert _support_in_intervals(measure_from_dict(sp.grid, s), ivs)
            suite = cd_suite(sp, -2.0, -2.0, 6, seed, t_grid=3, nprime_grid=2,
                             restrict_to_regular_k=k)
            assert suite.pair_specs == tuple(specs)


def test_suite_reuses_specs_across_grids():
    mk = lambda n: build_model_space(ModelSpec(kind="cosh_n", K=1.0, N=-2.0,
                                               domain=(-2.0, 2.0), grid_n=n))
    coarse = cd_suite(mk(128), 1.0, -1.0, n_samples=2, seed=3, t_grid=3)
    fine = cd_suite(mk(256), 1.0, -1.0, n_samples=2, seed=3, t_grid=3,
                    pair_specs=coarse.pair_specs)
    assert coarse.pair_specs == fine.pair_specs
    assert fine.grid_n == 256
    assert coarse.passes() and fine.passes()


def test_suite_builds_its_shared_constants_once(monkeypatch):
    # the refined reference and R^k are built once for the four pairs, not
    # once per pair, and each pair's rows equal verify_cd on that pair alone
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=128))
    specs = sample_pair_specs(sp, -1.0, 4, seed=5, restrict_to_regular_k=1)
    calls = []

    def spy(fn, name):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    monkeypatch.setattr(Grid1D, "refined", spy(Grid1D.refined, "refined"))
    monkeypatch.setattr(cdcheck, "regular_intervals",
                        spy(cdcheck.regular_intervals, "regular"))
    suite = cd_suite(sp, -2.0, -1.0, 4, 0, t_grid=7, nprime_grid=5,
                     pair_specs=specs, restrict_to_regular_k=1)
    assert sorted(calls) == ["refined", "regular"]
    for rep, (spec0, spec1) in zip(suite.reports, specs):
        mu0 = measure_from_dict(sp.grid, spec0)
        mu1 = measure_from_dict(sp.grid, spec1)
        alone = verify_cd(sp, mu0, mu1, -2.0, -1.0, t_grid=7, nprime_grid=5,
                          restrict_to_regular_k=1)
        assert alone.rows == rep.rows and len(rep.rows) == 35
    assert len(suite.reports) == 4 and len(calls) == 10


def _pairs_of_each_kind(space, N, count, seed, k=None):
    """count specs of each of SPEC_KINDS from the sampler, in turn."""
    draws = [_pair_sampler(space, N, [math.inf], k, kind)(
        np.random.default_rng(seed), count) for kind in SPEC_KINDS]
    return [specs for batch in zip(*draws) for specs, _, _ in batch]


def _row_bits(rows):
    return [tuple(repr(v) for v in r) for r in rows]


def test_pairs_in_one_call_equal_one_pair_at_a_time(monkeypatch):
    # verify_cd on sequences of marginals, and cd_suite with one pair per
    # group or all pairs in one group, give each pair the rows of verify_cd
    # on that pair alone, bit for bit
    calls = []
    monkeypatch.setattr(cdcheck, "verify_cd",
                        lambda *a, **kw: calls.append(1) or verify_cd(*a, **kw))
    nps3 = np.array([-1.0, -0.3, -0.01])
    cases = (
        (dict(kind="cos_n", K=-2.0, N=-2.0, grid_n=128), -2.0, None),
        (dict(kind="cauchy", alpha=1.0, domain=(-4.0, 4.0), grid_n=128), 0.0, None),
        (dict(kind="cos_n", K=-2.0, N=-2.0, grid_n=128), -2.0, 1),
    )
    grids = ((11, 9), (7, 5), (np.array([0.5, 0.0, 0.25, 1.0]), nps3),
             (np.array([0.0, 1.0]), nps3), (np.array([1.0]), 2))
    statuses = set()
    for spec, K, k in cases:
        sp = build_model_space(ModelSpec(**spec))
        specs = _pairs_of_each_kind(sp, -1.0, 2, seed=3, k=k)
        mus = [(measure_from_dict(sp.grid, a), measure_from_dict(sp.grid, b))
               for a, b in specs]
        assert {s["type"] for pair in specs for s in pair} == set(SPEC_KINDS)
        for t_grid, nprime_grid in grids:
            kw = dict(t_grid=t_grid, nprime_grid=nprime_grid, restrict_to_regular_k=k)
            alone = [verify_cd(sp, mu0, mu1, K, -1.0, **kw) for mu0, mu1 in mus]
            want = [_row_bits(rep.rows) for rep in alone]
            many = verify_cd(sp, *zip(*mus), K, -1.0, **kw)
            assert [_row_bits(rep.rows) for rep in many.reports] == want
            assert _row_bits(many.rows) == [r for rows in want for r in rows]
            for budget, groups in ((1, len(mus)), (10 ** 12, 1)):
                monkeypatch.setattr(cdcheck, "PAIR_GROUP_ELEMS", budget)
                calls.clear()
                suite = cd_suite(sp, K, -1.0, len(specs), 0, pair_specs=specs, **kw)
                assert len(calls) == groups
                assert [_row_bits(rep.rows) for rep in suite.reports] == want
                assert _row_bits(suite.rows) == [r for rows in want for r in rows]
                assert suite.pair_specs == tuple(specs)
            statuses |= {r.status for rep in alone for r in rep.rows}
    assert {STATUS_OK, STATUS_SKIPPED} <= statuses


def test_first_bad_pair_raises_what_it_raises_alone():
    # the per-pair steps run in pair order, so a sequence of pairs raises
    # the exception, with its message, of its first bad pair alone
    g = Grid1D.uniform(0.0, 2.0, 64)
    dens = np.ones(64)
    dens[40:44] = 0.0  # a null corridor: charging it is not absolutely continuous
    sp = PointedSpace1D(grid=g, density=dens, singular_points=(1.875,), base_point=0.5)
    good = ({"type": "uniform_block", "a": 0.3, "b": 0.6},
            {"type": "bump", "center": 0.8, "width": 0.2})
    null = ({"type": "uniform_block", "a": 0.3, "b": 0.6},
            {"type": "uniform_block", "a": 1.2, "b": 1.4})
    outside = ({"type": "uniform_block", "a": 1.7, "b": 1.95}, good[1])
    broken = ({"type": "uniform_block", "a": 5.0, "b": 6.0}, good[1])
    malformed = ({"type": "uniform_block", "a": 0.3}, good[1])

    def outcome(check):
        try:
            check()
        except Exception as e:  # noqa: BLE001 - the type and message are compared
            return type(e), str(e)
        return None

    def measures(specs):
        return [measure_from_dict(g, s) for s in specs]

    kw = dict(t_grid=5, nprime_grid=3, restrict_to_regular_k=0)
    alone = {name: outcome(lambda p=pair: verify_cd(sp, *measures(p), 0.0, -1.0, **kw))
             for name, pair in (("null", null), ("outside", outside))}
    assert alone["null"][0] is NotAbsolutelyContinuous
    assert alone["outside"][0] is SupportViolation
    assert outcome(lambda: verify_cd(sp, *measures(good), 0.0, -1.0, **kw)) is None
    for order in (("good", "null", "outside", "good"), ("outside", "null"),
                  ("good", "good", "null"), ("good", "outside", "broken"),
                  ("good", "outside", "malformed")):
        pairs = [{"good": good, "null": null, "outside": outside,
                  "broken": broken, "malformed": malformed}[name] for name in order]
        first = next(n for n in order if n != "good")
        got = outcome(lambda: verify_cd(sp, *zip(*[measures(p) for p in pairs[:order.index(first) + 1]]),
                                        0.0, -1.0, **kw))
        assert got == alone[first]
        # cd_suite, in one group, also with a spec that fails to build after it
        assert outcome(lambda: cd_suite(sp, 0.0, -1.0, len(pairs), 0,
                                        pair_specs=pairs, **kw)) == alone[first]
    assert outcome(lambda: cd_suite(sp, 0.0, -1.0, 2, 0, pair_specs=[broken, null],
                                    **kw))[0] is InvalidParams
    assert outcome(lambda: cd_suite(sp, 0.0, -1.0, 2, 0, pair_specs=[malformed, null],
                                    **kw)) == (KeyError, "'b'")
    mu = measures(good)
    for mu0s, mu1s in (([], []), ([mu[0]], [mu[1], mu[1]])):
        with pytest.raises(InvalidParams):
            verify_cd(sp, mu0s, mu1s, 0.0, -1.0)


def test_a_group_makes_one_t_functional_and_one_tau_call_per_nprime(monkeypatch):
    # a 4-pair cos_n suite is one group: one verify_cd, one t_functional and
    # one tau_KN_vec call per N' over the segments of all four pairs (one
    # pair at a time makes 4 and 36)
    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=256))
    specs = sample_pair_specs(sp, -1.0, 4, seed=8)
    calls = {"verify_cd": 0, "t_functional": 0, "tau_KN_vec": 0}

    def spy(name):
        fn = getattr(cdcheck, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(cdcheck, name, spy(name))
    suite = cd_suite(sp, -2.0, -1.0, 4, 0, pair_specs=specs)
    assert calls == {"verify_cd": 1, "t_functional": 1, "tau_KN_vec": 9}
    assert len(suite.reports) == 4 and len(suite.rows) == 4 * 99


def test_suite_memory_does_not_grow_with_the_pairs():
    # the pairs are checked in groups within PAIR_GROUP_ELEMS, so 64 pairs
    # hold little more at once than 8 (one group of them would hold 8x the
    # slice masses)
    import tracemalloc

    sp = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=512))
    specs = sample_pair_specs(sp, -1.0, 64, seed=9)

    def peak(pairs):
        tracemalloc.start()
        try:
            cd_suite(sp, -2.0, -1.0, len(pairs), 0, pair_specs=pairs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(specs[:8])  # warm
    assert peak(specs) <= 3 * peak(specs[:8])


def _fold_per_report(suite) -> dict:
    """The suite aggregates as a fold over each pair's own report."""
    counts: dict = {}
    for rep in suite.reports:
        for k, v in rep.counts().items():
            counts[k] = counts.get(k, 0) + v
    return {
        "counts": counts,
        "min_margin": min((r.min_margin() for r in suite.reports),
                          default=math.inf),
        "worst_deficit": max((r.worst_deficit() for r in suite.reports),
                             default=0.0),
        "passes": all(r.passes() for r in suite.reports),
    }


def _worst_deficit_per_row(rows) -> float:
    """CdReport.worst_deficit as a loop of scalar margin_scale calls."""
    out = 0.0
    for r in rows:
        if r.status not in (STATUS_OK, STATUS_VIOLATED):
            continue
        if not math.isfinite(r.margin):
            out = max(out, math.inf if r.margin < 0 else 0.0)
        else:
            out = max(out, -r.margin / margin_scale(r.s_value, r.t_value))
    return out


def test_worst_deficit_equals_the_per_row_loop():
    big = float(np.finfo(float).max)
    rows = [CdRow(0.5, -1.0, s, t, m, st) for s, t, m, st in (
        (0.5, 0.5, 0.0, STATUS_OK), (2.0, 2.0, -0.0, STATUS_OK),
        (3.0, 2.9, -0.1, STATUS_VIOLATED), (big, big / 2, -big / 2, STATUS_VIOLATED),
        (0.2, 0.1, -0.1, STATUS_VIOLATED), (math.inf, 1.0, -math.inf, STATUS_VIOLATED),
        (math.inf, math.inf, math.inf, STATUS_SKIPPED),
        (1.0, math.inf, math.inf, STATUS_VACUOUS))]
    for some in (rows[:2], rows[:5], rows, rows[6:], []):
        rep = CdReport(rows=tuple(some), K=0.0, N=-1.0, grid_n=8, tol=DEFAULT_TOL)
        assert repr(rep.worst_deficit()) == repr(_worst_deficit_per_row(some))
    assert repr(CdReport(rows=tuple(rows[:2]), K=0.0, N=-1.0, grid_n=8,
                         tol=DEFAULT_TOL).worst_deficit()) == "0.0"


def test_suite_aggregates_equal_the_per_report_fold():
    cos = build_model_space(ModelSpec(kind="cos_n", K=-2.0, N=-2.0, grid_n=512))
    cauchy = build_model_space(ModelSpec(kind="cauchy", alpha=1.0,
                                         domain=(-4.0, 4.0), grid_n=512))
    suites = [cd_suite(cos, -2.0, -1.0, 6, 0),
              cd_suite(cauchy, 0.0, -1.0, 6, 0),
              cd_suite(cos, 0.0, -1.0, 5, 0)]  # criterion 5's wrong K
    seen = set()
    for suite in suites:
        ref = _fold_per_report(suite)
        assert suite.rows == tuple(r for rep in suite.reports for r in rep.rows)
        assert suite.counts() == ref["counts"]
        assert list(suite.counts()) == list(ref["counts"])
        assert suite.min_margin() == ref["min_margin"]
        assert suite.worst_deficit() == ref["worst_deficit"]
        assert repr(suite.worst_deficit()) == repr(_worst_deficit_per_row(suite.rows))
        assert suite.passes() == ref["passes"]
        seen |= set(ref["counts"])
    assert seen == {STATUS_OK, STATUS_VACUOUS, STATUS_SKIPPED, STATUS_VIOLATED}
    assert not suites[2].passes()


def test_richardson_check_runs():
    mk = lambda n: build_model_space(ModelSpec(kind="cosh_n", K=1.0, N=-2.0,
                                               domain=(-2.0, 2.0), grid_n=n))
    out = richardson_check(mk, 1.0, -1.0, n_samples=2, seed=8,
                           grids=(128, 256))
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
    rep = kn_convexity_check((x, np.full_like(x, 1.7)), K=0.0, N=-2.0)
    assert abs(rep.min_margin) <= 1e-12
    # cosh profile solving f'' = -(K/N) f is the equality case for that K,
    # and its margins stay at rounding size on every stride of fine nodes
    K, N = 1.0, -2.0
    lam = math.sqrt(-K / N)
    for n in (301, 100_001):
        x = np.linspace(-1.5, 1.5, n)
        psi = -N * np.log(np.cosh(lam * x))
        rep = kn_convexity_check((x, psi), K=K, N=N)
        assert rep.min_margin >= -1e-9
        assert rep.min_margin <= 1e-6


def test_convexity_glued_arches_pass():
    # |cos| transform with interior zeros: kinks point the permitted way
    K, N = -2.0, -2.0
    lam = math.sqrt(K / N)
    x = np.linspace(0.0, 2.0 * math.pi / lam, 2001)
    with np.errstate(divide="ignore"):
        psi = -N * np.log(np.abs(np.cos(lam * x)))
    rep = kn_convexity_check((x, psi), K=K, N=N)
    assert rep.min_margin >= -1e-9


def test_convexity_detects_violation():
    # f_N = sin is concave, so midpoints overshoot the K = 0 chord.  An
    # adjacent margin shrinks like the squared node spacing (about -5e-10 at
    # 100,001 nodes, which a tolerance of 1e-9 passes); the coarse strides
    # still see the concavity
    for n in (301, 100_001):
        x = np.linspace(0.05, math.pi - 0.05, n)
        psi = 2.0 * np.log(np.sin(x))  # f_N = e^(-psi/N) = sin for N = -2
        rep = kn_convexity_check((x, psi), K=0.0, N=-2.0)
        assert rep.min_margin < -0.1
        assert rep.worst is not None


def test_convexity_checks_fewer_than_2n_triples_in_linear_time():
    n = 1_000_001
    x = np.linspace(-1.5, 1.5, n)
    psi = 2.0 * np.log(np.cosh(math.sqrt(0.5) * x))
    t0 = time.perf_counter()
    rep = kn_convexity_check((x, psi), K=1.0, N=-2.0)
    assert time.perf_counter() - t0 < 10.0  # about 0.3 s; only a gross slip
    assert n < rep.n_triples < 2 * n
    assert rep.min_margin >= -1e-9
    # with every node repeated the count stays below 2n
    rep = kn_convexity_check((np.repeat(x[::3], 3), np.repeat(psi[::3], 3)),
                             K=1.0, N=-2.0)
    assert rep.n_triples < 2 * n
    assert rep.min_margin >= -1e-9


def _checked_triples(x, fN):
    """(i, j, k) of each triple the check evaluates.  With the nodes grouped
    by position: the adjacent triples of positions p[::s], s = 1, 2, 4, ...,
    with the least f at the ends and the largest in the middle; then for the
    k-th node of a position, k > 1, the triple with the last node to its
    left and the largest f of the nodes before k there, and the triple with
    the least f of the nodes before k there and the first node to its
    right."""
    pos = [list(g) for _, g in itertools.groupby(range(len(x)), x.__getitem__)]
    lo = [min(p, key=fN.__getitem__) for p in pos]
    hi = [max(p, key=fN.__getitem__) for p in pos]
    s = 1
    while 2 * s < len(pos):
        yield from ((lo[i], hi[i + s], lo[i + 2 * s])
                    for i in range(0, len(pos) - 2 * s, s))
        s *= 2
    for i, p in enumerate(pos):
        for k in range(1, len(p)):
            if i > 0:
                yield pos[i - 1][-1], max(p[:k], key=fN.__getitem__), p[k]
            if i + 1 < len(pos):
                yield min(p[:k], key=fN.__getitem__), p[k], pos[i + 1][0]


def _least_margin(x, fN, kappa, triples):
    """The scalar loop's least margin over the admissible ones of triples,
    and how many of them it checked."""
    d_max = math.pi / math.sqrt(kappa) if kappa > 0 else math.inf
    margins = [sigma_kappa_lengths(kappa, x[k] - x[j], x[j] - x[i]) * fN[i]
               + sigma_kappa_lengths(kappa, x[j] - x[i], x[k] - x[j]) * fN[k]
               - fN[j]
               for i, j, k in triples if 0 < x[k] - x[i] < d_max * (1 - 1e-12)]
    return min(margins, default=math.inf), len(margins)


@pytest.mark.parametrize("K, N", [(0.0, -2.0), (1.0, -2.0), (-2.0, -2.0),
                                  (3.0, -0.5)])
def test_convexity_matches_a_loop_over_every_triple(K, N):
    kappa = K / N
    rng = np.random.default_rng(5)
    for trial in range(150):
        n = int(rng.integers(3, 13))
        # every third set on a coarse lattice, so that nodes repeat; the
        # lengths reach past pi sqrt(N/K) = pi at K = N = -2
        x = np.sort(rng.uniform(0.0, 5.0, n))
        if trial % 3 == 0:
            x = np.round(x)
        if trial % 2:  # a random weight: margins far from any tolerance
            psi = rng.normal(size=n)
        else:  # a (K/N)-harmonic weight, off equality by far less than 1e-9
            if kappa > 0:  # cos is positive on one arch, |x| < pi / 2 here
                x = (x - 2.5) / 3.0
                g = np.cos(math.sqrt(kappa) * x)
            else:
                g = np.cosh(math.sqrt(-kappa) * (x - 2.5))
            psi = -N * np.log(g) + 1e-13 * rng.normal(size=n)
            repeated = np.flatnonzero(np.r_[x[1:] == x[:-1], False]
                                      | np.r_[False, x[1:] == x[:-1]])
            if trial % 6 == 0 and repeated.size:  # move one by +-1
                psi[rng.choice(repeated)] += rng.choice([-1.0, 1.0])
        fN = np.exp(-psi / N)
        # the array pass against a scalar loop over the triples it checks
        want, count = _least_margin(x, fN, kappa, _checked_triples(x, fN))
        every, _ = _least_margin(x, fN, kappa,
                                 itertools.combinations(range(n), 3))
        if count == 0:
            with pytest.raises(InvalidParams, match="no admissible triple"):
                kn_convexity_check((x, psi), K=K, N=N)
            assert every == math.inf
            continue
        rep = kn_convexity_check((x, psi), K=K, N=N)
        assert (rep.min_margin, rep.n_triples) == (want, count)
        # the checked triples are some of all triples, and at tol 1e-9 the
        # verdict is the exhaustive one
        assert rep.min_margin >= every
        assert (rep.min_margin >= -1e-9) == (every >= -1e-9)


def test_convexity_takes_the_least_value_at_a_repeated_end():
    # f = 2 then 1 at x = 0 passes f_j - f_k there; the chord from the lesser
    # value, (1 + 2) / 2, is below f = 1.6 at x = 1, the one from 2 is not
    f = np.array([2.0, 1.0, 1.6, 2.0])
    rep = kn_convexity_check(([0, 0, 1, 2], 2.0 * np.log(f)), K=0.0, N=-2.0)
    assert rep.min_margin == pytest.approx(-0.1, rel=1e-12)
    assert rep.worst == (0.0, 1.0, 2.0, 0.5)


def test_convexity_domain_guards():
    x = np.linspace(0.0, 10.0, 101)
    psi = np.zeros_like(x)
    with pytest.raises(DomainError):
        kn_convexity_check((x, psi), K=0.0, N=2.0)
    with pytest.raises(InvalidParams):
        kn_convexity_check((x, psi[:-1]), K=0.0, N=-2.0)
    # K < 0 bounds admissible triple lengths by pi sqrt(N/K) = pi here; the
    # check skips longer triples and fails when it finds no other
    rep = kn_convexity_check((x, psi), K=-2.0, N=-2.0)
    assert rep.worst[2] - rep.worst[0] < math.pi
    with pytest.raises(InvalidParams, match="no admissible triple"):
        kn_convexity_check(([0.0, 5.0, 10.0], [0.0] * 3), K=-2.0, N=-2.0)


def test_convexity_needs_nondecreasing_nodes():
    with pytest.raises(InvalidParams, match="nondecreasing"):
        kn_convexity_check(([0, 1, 2, 3, 2.5, 4, 5], [0.0] * 7), K=0.0, N=-2.0)
    # repeated nodes are valid; a triple of zero length is skipped, and a
    # file with no other triple has nothing to check
    rep = kn_convexity_check(([0, 1, 1, 1, 2], [0.0] * 5), K=0.0, N=-2.0)
    assert abs(rep.min_margin) <= 1e-12
    assert rep.worst[2] > rep.worst[0]
    with pytest.raises(InvalidParams, match="no admissible triple"):
        kn_convexity_check(([1.0, 1.0, 1.0], [0.0] * 3), K=0.0, N=-2.0)


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


def _blocks_cdf_1d(u0, u1, w, pts):
    """blocks_cdf as it was written for one block set at a time."""
    knots = np.column_stack([u0, u1]).ravel()
    ordered = np.maximum.accumulate(knots)
    if np.any(ordered - knots > 1e-12 * (ordered[-1] - np.min(knots))):
        raise InvalidParams("blocks must be ordered and disjoint")
    c = np.concatenate([[0.0], np.cumsum(w)])
    vals = np.column_stack([c[:-1], c[1:]]).ravel()
    return np.interp(pts, ordered, vals, left=0.0, right=c[-1])


def _mass_in_intervals_1d(u0, u1, w, interval_sets):
    """mass_in_intervals as it was written for one time slice at a time."""
    pts = np.array([e for ivs in interval_sets for iv in ivs for e in iv], dtype=float)
    cdf = _blocks_cdf_1d(u0, u1, w, pts)
    per_iv = cdf[1::2] - cdf[0::2]
    ends = np.cumsum([0] + [len(ivs) for ivs in interval_sets])
    return np.array([np.sum(per_iv[a:b]) for a, b in zip(ends[:-1], ends[1:])])


def test_slices_at_many_times_equal_one_time_at_a_time():
    rng = np.random.default_rng(12)
    g0 = Grid1D.uniform(0.0, 1.0, 40)
    g1 = Grid1D.uniform(-0.5, 2.0, 55)
    m0 = rng.uniform(0.0, 1.0, 40) * (rng.uniform(size=40) < 0.6)
    m1 = rng.uniform(0.0, 1.0, 55) * (rng.uniform(size=55) < 0.5)
    mu0 = DiscreteMeasure(g0, m0 / m0.sum())
    mu1 = DiscreteMeasure(g1, m1 / m1.sum())
    tmap = monotone_map(mu0, mu1)
    ts = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0.0, 1.0, 9)])
    u0s, u1s, w = tmap.interpolate_blocks(ts)
    assert u0s.shape == u1s.shape == (ts.size, w.size)
    # nine intervals in one set, so that np.sum's pairwise blocks are used
    many = [(a, a + 0.05) for a in np.linspace(-0.45, 1.75, 9)]
    sets = [[], [(3.0, 4.0)], [(-2.0, -1.0), (2.5, 3.0)], [(0.2, 0.7)],
            many, many[::2], [(-1.0, 3.0)]]
    pts = np.linspace(-1.0, 2.5, 37)
    cdf = blocks_cdf(u0s, u1s, w, pts)
    got = mass_in_intervals(u0s, u1s, w, sets)
    assert cdf.shape == (ts.size, pts.size) and got.shape == (ts.size, len(sets))
    for i, t in enumerate(ts):
        u0, u1, w1 = tmap.interpolate_blocks(float(t))
        assert np.array_equal(u0s[i], u0) and np.array_equal(u1s[i], u1)
        assert np.array_equal(u0, (1.0 - t) * tmap.a0 + t * tmap.b0)
        assert np.array_equal(u1, (1.0 - t) * tmap.a1 + t * tmap.b1)
        assert w1 is w
        assert np.array_equal(cdf[i], blocks_cdf(u0, u1, w, pts))
        assert np.array_equal(cdf[i], _blocks_cdf_1d(u0, u1, w, pts))
        assert np.array_equal(got[i], mass_in_intervals(u0, u1, w, sets))
        assert np.array_equal(got[i], _mass_in_intervals_1d(u0, u1, w, sets))
    assert np.all(got[:, 0] == 0.0) and np.all(got[:, 1] == 0.0)
    assert np.allclose(got[:, -1], 1.0, rtol=1e-14)
    # zero-width blocks are steps, row by row
    z0 = np.array([[0.1, 0.3, 0.3], [0.2, 0.2, 0.6]])
    z1 = np.array([[0.1, 0.3, 0.5], [0.2, 0.4, 0.6]])
    zw = np.array([1.0, 2.0, 3.0])
    zpts = np.array([0.0, 0.1, 0.2, 0.3, 0.45, 0.6, 1.0])
    zc = blocks_cdf(z0, z1, zw, zpts)
    zm = mass_in_intervals(z0, z1, zw, sets)
    for i in range(2):
        assert np.array_equal(zc[i], _blocks_cdf_1d(z0[i], z1[i], zw, zpts))
        assert np.array_equal(zm[i], _mass_in_intervals_1d(z0[i], z1[i], zw, sets))
    # each row is checked for overlaps on its own
    bad0 = np.array([[0.0, 0.6], [0.0, 0.4], [0.0, 0.7]])
    bad1 = np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]])
    blocks_cdf(bad0[[0, 2]], bad1[[0, 2]], np.ones(2), pts)
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        blocks_cdf(bad0, bad1, np.ones(2), pts)
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        mass_in_intervals(bad0, bad1, np.ones(2), sets)
    # and against its own span: 1e-7 of overlap on a unit row is real even
    # next to a row a million long
    wide0 = np.array([[0.0, 5e5], [0.0, 0.5 - 1e-7]])
    wide1 = np.array([[5e5, 1e6], [0.5, 1.0]])
    blocks_cdf(wide0[:1], wide1[:1], np.ones(2), pts)
    with pytest.raises(InvalidParams, match="ordered and disjoint"):
        blocks_cdf(wide0, wide1, np.ones(2), pts)


def _omega_per_time(space, k, hs, M, n_samples, N, seed):
    """estimate_omega with the default sampler as it was written: one
    slice and one mass_in_intervals call per time, per sampled pair."""
    rng = np.random.default_rng(seed)
    sampler = _block_sampler_as_written(space, k, N, M)
    ivs_h = [regular_intervals(space, h) for h in hs]
    worst = np.zeros(len(hs))
    for _ in range(n_samples):
        tmap = monotone_map(*sampler(rng))
        for t in np.linspace(0.0, 1.0, OMEGA_T_GRID):
            u0, u1, w = tmap.interpolate_blocks(float(t))
            total = float(np.sum(w))
            out = 1.0 - _mass_in_intervals_1d(u0, u1, w, ivs_h) / total
            worst = np.fmax(worst, out)
    return np.clip(worst, 0.0, 1.0).tolist()


def test_omega_equals_the_per_time_loop():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    N, hs = -2.0, [2, 3, 4, 5, 6]
    positive = 0
    for M in (10.0, 2.0 ** (1.0 - 1.0 / N) * 10.0):  # omega's plain and scaled M
        for seed in range(4):
            got = estimate_omega(sp, 2, hs, M, n_samples=10, N=N, seed=seed)
            assert got == _omega_per_time(sp, 2, hs, M, 10, N, seed)
            positive += got[0] > 0
    assert positive > 0  # some sampled geodesic does leave R^2


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
    got = estimate_omega(sp, 2, hs, 10.0, **kw)
    want = [estimate_omega(sp, 2, h, 10.0, **kw) for h in hs]
    assert got == want
    assert all(type(v) is float for v in got + want)
    assert got[1] > 0  # h = k still loses mass across the joints
    for bad in ([], [3, 1, 4], (2, 1)):
        with pytest.raises(InvalidParams):
            estimate_omega(sp, 2, bad, 10.0, **kw)


def test_omega_guards():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    with pytest.raises(InvalidParams):
        estimate_omega(sp, 3, 2, 10.0)
    with pytest.raises(SamplerEntropyViolation):
        estimate_omega(sp, 2, 2, 1e-6, n_samples=1, seed=1)


def test_omega_needs_a_sampled_pair():
    # no pair would leave a supremum over nothing, reported as 0
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    for n in (0, -3):
        with pytest.raises(InvalidParams, match="at least one sampled pair"):
            estimate_omega(sp, 2, [2, 3], 10.0, n_samples=n)
        with pytest.raises(InvalidParams, match="at least one sampled pair"):
            estimate_Omega(sp, 2, [2, 3], 10.0, delta=0.1, n_samples=n)


def test_levels_past_the_level_range_are_typed_errors():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    for bad in (2000, -2000, 65):
        with pytest.raises(InvalidParams, match=f"k {bad} outside"):
            regular_intervals(sp, bad)
    assert regular_intervals(sp, 64)  # the last level in range
    with pytest.raises(InvalidParams, match="k 2000 outside"):
        estimate_omega(sp, 2, [2, 2000], 10.0, n_samples=2)
    with pytest.raises(InvalidParams, match="k 2000 outside"):
        cd_suite(sp, -2.0, -2.0, 1, 0, restrict_to_regular_k=2000)


def _omega_per_pair(space, k, hs, Ms, n_samples, N, seed):
    """estimate_omega over lists of levels and caps as it was written: one
    monotone map and one mass_in_intervals call per sampled pair, in turn."""
    pairs = _pair_sampler(space, N, Ms, k, "uniform_block")(
        np.random.default_rng(seed), n_samples)
    ivs_h = [regular_intervals(space, h) for h in hs]
    ts = np.linspace(0.0, 1.0, OMEGA_T_GRID)
    worst = np.zeros((len(Ms), len(hs)))
    for _, (mu0, mu1), takes in pairs:
        u0, u1, w = cdcheck.monotone_map(mu0, mu1).interpolate_blocks(ts)
        out = 1.0 - mass_in_intervals(u0, u1, w, ivs_h) / float(np.sum(w))
        worst[takes] = np.fmax(worst[takes], np.fmax.reduce(out, axis=0))
    return np.clip(worst, 0.0, 1.0).tolist()


@pytest.mark.parametrize("group_elems", [1, cdcheck.PAIR_GROUP_ELEMS, 1 << 40],
                         ids=["one_pair_a_group", "default", "one_group"])
def test_omega_batch_equals_the_per_pair_loop(monkeypatch, group_elems):
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    monkeypatch.setattr(cdcheck, "PAIR_GROUP_ELEMS", group_elems)
    calls, real = [], cdcheck.mass_in_intervals
    monkeypatch.setattr(cdcheck, "mass_in_intervals",
                        lambda *a: calls.append(a[0].shape) or real(*a))
    N, hs, n = -2.0, [4, 2, 5, 3], 7
    caps = [10.0, 1.1]  # the second cap rejects some of the first one's pairs
    for seed in range(3):
        calls.clear()
        got = estimate_omega(sp, 2, hs, caps, n_samples=n, N=N, seed=seed)
        groups = calls[:]
        assert got == _omega_per_pair(sp, 2, hs, caps, n, N, seed)
        assert got == [estimate_omega(sp, 2, hs, M, n_samples=n, N=N, seed=seed)
                       for M in caps]
        stream = list(_pair_sampler(sp, N, caps, 2, "uniform_block")(
            np.random.default_rng(seed), n))
        takes = np.array([t for _, _, t in stream])
        assert takes[:, 0].sum() == takes[:, 1].sum() == n and len(takes) > n
        segments = {monotone_map(*mus).w.size for _, mus, _ in stream}
        assert len(segments) > 1  # padded pairs in every multi-pair group
        # one call per group, of (pairs, times, widest segment count)
        if group_elems == 1:
            assert [c[0] for c in groups] == [1] * len(stream)
        elif group_elems > OMEGA_T_GRID * max(segments) * len(stream):
            assert groups == [(len(stream), OMEGA_T_GRID, max(segments))]
        assert got[0][1] > 0  # h = k still loses mass across the joints


def _overlapping(tmap, s):
    """tmap with its segment after s starting where s starts, so that its
    slices put that block inside s's."""
    a0, b0 = tmap.a0.copy(), tmap.b0.copy()
    a0[s + 1], b0[s + 1] = a0[s], b0[s]
    return dataclasses.replace(tmap, a0=a0, b0=b0)


@pytest.mark.parametrize("group_elems", [1, cdcheck.PAIR_GROUP_ELEMS])
def test_omega_batch_raises_what_the_overlapping_pair_raises(monkeypatch,
                                                            group_elems):
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    monkeypatch.setattr(cdcheck, "PAIR_GROUP_ELEMS", group_elems)
    stream = list(_pair_sampler(sp, -2.0, [10.0], 2, "uniform_block")(
        np.random.default_rng(0), 6))
    key = [mus[0].masses.tobytes() + mus[1].masses.tobytes() for _, mus, _ in stream]
    real, overlap = monotone_map, [True]

    def mapped(mu0, mu1, grids=None):
        # by its masses, the third pair overlaps and the fifth fails outright,
        # in a batch as in a one-pair call
        pairs = ([(mu0.masses, mu1.masses)] if grids is None else zip(mu0, mu1))
        at = [key.index(a.tobytes() + b.tobytes()) for a, b in pairs]
        if 4 in at:
            raise MarginalMismatch("a later pair's own error")
        tmap = real(mu0, mu1) if grids is None else real(mu0, mu1, grids)
        if overlap[0] and 2 in at:
            return _overlapping(tmap, 0 if grids is None else tmap.offsets[at.index(2)])
        return tmap

    monkeypatch.setattr(cdcheck, "monotone_map", mapped)
    calls, real_mass = [], cdcheck.mass_in_intervals
    monkeypatch.setattr(cdcheck, "mass_in_intervals",
                        lambda *a: calls.append(a[0].shape) or real_mass(*a))
    estimates = (lambda: _omega_per_pair(sp, 2, [2, 3], [10.0], 6, -2.0, 0),
                 lambda: estimate_omega(sp, 2, [2, 3], [10.0], n_samples=6,
                                        N=-2.0, seed=0))
    errors = []
    for estimate in estimates:
        with pytest.raises(InvalidParams, match="ordered and disjoint") as err:
            estimate()
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]
    # with no overlap, the fifth pair's error raises after the groups of the
    # four pairs before it are measured, as one at a time
    overlap[0] = False
    calls.clear()
    with pytest.raises(MarginalMismatch, match="a later pair's own error"):
        estimates[1]()
    assert [c[0] for c in calls] == ([1] * 4 if group_elems == 1 else [4])  # pairs per call


# (space, k, caps): at each M only some of the candidates pass, and at the
# scaled cap 2^(1 - 1/N) M all of them do
_DIVERGING_CAPS = [
    (dict(kind="glued_cos_n", K=-2.0, N=-2.0, J=2, grid_n=256), 2, [1.01, 1.05, 1.2]),
    (dict(kind="cos_n", K=-2.0, N=-2.0, grid_n=256), 1, [1.02]),
]


@pytest.mark.parametrize("spec, k, Ms", _DIVERGING_CAPS,
                         ids=["glued_cos_n", "cos_n"])
def test_omega_over_caps_equals_one_cap_at_a_time(spec, k, Ms):
    sp = build_model_space(ModelSpec(**spec))
    N = -2.0
    caps = [c for M in Ms for c in (Omega_cap(M, N), M)]
    hs = [k + 2, k, k + 1]
    for seed in range(3):
        kw = dict(n_samples=6, N=N, seed=seed)
        for h in (hs, k + 1):
            got = estimate_omega(sp, k, h, caps, **kw)
            assert got == [estimate_omega(sp, k, h, M, **kw) for M in caps]
        assert estimate_omega(sp, k, hs, caps[0], **kw) == \
            estimate_omega(sp, k, hs, caps[:1], **kw)[0]
        # each cap takes its 6 pairs, and they are not the same 6
        takes = np.array([t.tolist() for _, _, t in _pair_sampler(
            sp, N, caps, k, "uniform_block")(np.random.default_rng(seed), 6)])
        assert takes.sum(axis=0).tolist() == [6] * len(caps)
        assert len(takes) > 6
    with pytest.raises(InvalidParams, match="at least one entropy cap"):
        estimate_omega(sp, k, k, [], n_samples=2)


def test_Omega_cap_takes_its_limit_as_N_nears_0():
    # 2^(1 - 1/N) is past the double range for N in (-1/1023, 0)
    assert Omega_cap(10.0, -1e-5) == math.inf
    assert Omega_cap(-10.0, -1e-300) == -math.inf
    assert Omega_cap(0.0, -1e-5) == 0.0
    assert Omega_cap(0.0, -1e-320) == 0.0
    assert Omega_cap(10.0, -2.0) == 2.0 ** 1.5 * 10.0


def test_omega_first_failing_cap_is_named():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    kw = dict(n_samples=5, N=-2.0, seed=1)
    # S_N <= 0.5 fails after the scaled cap 2^1.5 * 0.5 has filled
    assert estimate_omega(sp, 2, 2, Omega_cap(0.5, -2.0), **kw) >= 0.0
    for caps, named in (([Omega_cap(0.5, -2.0), 0.5], "0.5"),
                        ([0.5, 1e-6], "0.5"), ([1e-6, 0.5], "1e-06"),
                        ([10.0, 1e-6, 10.0], "1e-06")):
        with pytest.raises(SamplerEntropyViolation,
                           match=rf"cannot satisfy S_N <= {re.escape(named)} on"):
            estimate_omega(sp, 2, [2, 3], caps, **kw)
    with pytest.raises(SamplerEntropyViolation, match=r"S_N <= 0\.5 on"):
        estimate_omega(sp, 2, [2, 3], 0.5, **kw)


def test_Omega_is_omega_at_the_scaled_cap():
    sp = build_model_space(ModelSpec(kind="glued_cos_n", K=-2.0, N=-2.0, J=2,
                                     grid_n=256))
    hs = [2, 3, 4]
    for N, seed in ((-2.0, 3), (-0.5, 4)):
        kw = dict(n_samples=6, N=N, seed=seed)
        omega = estimate_omega(sp, 2, hs, 2.0 ** (1.0 - 1.0 / N) * 10.0, **kw)
        assert omega[0] > 0
        for delta in (0.0, 0.004, 0.1, 0.2):
            want = [min(1.0, v + 2.0 * delta) for v in omega]
            assert estimate_Omega(sp, 2, hs, 10.0, delta, **kw) == want
            assert estimate_Omega(sp, 2, 3, 10.0, delta, **kw) == want[1]
        for delta in (0.25, 0.3):
            assert estimate_Omega(sp, 2, hs, 10.0, delta, **kw) == [1.0] * 3
            assert estimate_Omega(sp, 2, 3, 10.0, delta, **kw) == 1.0
    with pytest.raises(InvalidParams, match="delta must be nonnegative"):
        estimate_Omega(sp, 2, hs, 10.0, -0.1)
    # the scaled cap is sampled for every delta, and a failing sampler names it
    for delta in (0.1, 0.3):
        with pytest.raises(SamplerEntropyViolation,
                           match=r"S_N <= 2\.8284271247461903e-06 on"):
            estimate_Omega(sp, 2, hs, 1e-6, delta, n_samples=1, seed=1)
