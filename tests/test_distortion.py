"""Distortion coefficients against a high-precision mpmath oracle.

The oracle evaluates the defining sin/sinh ratios at 50 significant digits,
independently of the library's overflow-stable forms.
"""

import math

import mpmath
import numpy as np
import pytest

from cdknlab.distortion import (
    sigma_kappa,
    sigma_kappa_lengths,
    sigma_kappa_vec,
    tau_KN,
    tau_KN_vec,
)
from cdknlab.errors import DomainError

mpmath.mp.dps = 50


def sigma_oracle(kappa, t, theta):
    x = mpmath.mpf(kappa) * mpmath.mpf(theta) ** 2
    if x >= mpmath.pi ** 2:
        return mpmath.inf
    if x == 0:
        return mpmath.mpf(t)
    r = mpmath.sqrt(abs(x))
    if x > 0:
        return mpmath.sin(t * r) / mpmath.sin(r)
    return mpmath.sinh(t * r) / mpmath.sinh(r)


def tau_oracle(K, N, t, theta):
    if theta == 0:
        return mpmath.mpf(t)
    s = sigma_oracle(K / (N - 1.0), t, theta)
    if mpmath.isinf(s):
        return mpmath.inf
    if t == 0:
        return mpmath.mpf(0)
    return mpmath.mpf(t) ** (mpmath.mpf(1) / N) * s ** (mpmath.mpf(N - 1) / N)


def test_sigma_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(120):
        kappa = float(rng.uniform(-30.0, 30.0))
        t = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, 2.5))
        got = sigma_kappa(kappa, t, theta)
        want = sigma_oracle(kappa, t, theta)
        if mpmath.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(float(want), rel=1e-13, abs=1e-300)


def _check_lengths_oracle(kappa, a, b, got):
    theta = mpmath.mpf(a) + mpmath.mpf(b)
    want = sigma_oracle(kappa, mpmath.mpf(a) / theta, theta)
    if mpmath.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(float(want), rel=1e-13, abs=1e-300)


def test_sigma_from_lengths_matches_oracle():
    rng = np.random.default_rng(2)
    pairs = rng.uniform(0.0, 1.25, size=(120, 2))
    for a, b in pairs:
        kappa = float(rng.uniform(-30.0, 30.0))
        got = sigma_kappa_lengths(kappa, float(a), float(b))
        assert isinstance(got, float)
        _check_lengths_oracle(kappa, float(a), float(b), got)
    # the 120 pairs as two arrays in one call, at a kappa of each sign (the
    # positive one past the pi^2 threshold for the longer pairs)
    for kappa in (-23.5, 0.0, 4.0):
        got = sigma_kappa_lengths(kappa, pairs[:, 0], pairs[:, 1])
        assert got.shape == (120,)
        for (a, b), g in zip(pairs, got):
            _check_lengths_oracle(kappa, float(a), float(b), float(g))


def test_sigma_from_lengths_keeps_far_splits():
    # 1 - 1e-150 rounds to 1, where the t form gives sigma = 1
    assert sigma_kappa(-0.5, 1.0 - 1e-150, 1e300) == 1.0
    for a, b in ((1e300, 1e150), (1e150, 1e300)):
        assert sigma_kappa_lengths(-0.5, a, b) == 0.0
    assert sigma_kappa_lengths(0.0, 1e300, 1e150) == 1.0
    for kappa in (-0.5, 0.0, 0.5):
        assert sigma_kappa_lengths(kappa, 0.0, 2.0) == 0.0
        assert sigma_kappa_lengths(kappa, 2.0, 0.0) == 1.0
    # the array path keeps the same exact 0 and 1
    a = np.array([1e300, 1e150, 0.0, 2.0])
    np.testing.assert_array_equal(sigma_kappa_lengths(-0.5, a, a[[1, 0, 3, 2]]),
                                  [0.0, 0.0, 0.0, 1.0])
    for a, b in ((-1e-9, 1.0), (1.0, -1e-9), (0.0, 0.0)):
        with pytest.raises(DomainError):
            sigma_kappa_lengths(-0.5, a, b)
    with pytest.raises(DomainError):
        sigma_kappa_lengths(-0.5, np.array([1.0, 2.0]), np.array([1.0, -1e-9]))
    with pytest.raises(DomainError):
        sigma_kappa_lengths(math.inf, 1.0, 1.0)


def test_sigma_large_negative_kappa_stable():
    # naive sinh ratio overflows around r ~ 710; the stable form must not
    for r in (50.0, 300.0, 800.0, 5000.0):
        kappa = -(r / 1.7) ** 2
        got = sigma_kappa(kappa, 0.3, 1.7)
        want = float(mpmath.sinh(0.3 * r) / mpmath.sinh(r))
        assert got == pytest.approx(want, rel=1e-13)


def test_sigma_infinite_branch_is_exact():
    theta = 1.3
    crit = math.pi ** 2 / theta ** 2
    assert math.isinf(sigma_kappa(crit, 0.5, theta))
    assert math.isinf(sigma_kappa(crit * 1.01, 0.5, theta))
    assert math.isfinite(sigma_kappa(crit * 0.99, 0.5, theta))


def test_sigma_endpoints():
    for kappa in (-4.0, 0.0, 2.0):
        assert sigma_kappa(kappa, 0.0, 1.0) == 0.0
        assert sigma_kappa(kappa, 1.0, 1.0) == 1.0


def test_sigma_zero_kappa_or_theta_is_t():
    for t in np.linspace(0.0, 1.0, 7):
        assert sigma_kappa(0.0, t, 2.2) == t
        assert sigma_kappa(5.0, t, 0.0) == t


def test_sigma_nondecreasing_in_kappa():
    kappas = np.linspace(-20.0, 12.0, 200)
    for t in (0.1, 0.5, 0.9):
        for theta in (0.3, 0.8):
            vals = [sigma_kappa(k, t, theta) for k in kappas]
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_sigma_vec_matches_scalar():
    thetas = np.linspace(0.0, 3.0, 41)
    for kappa in (-7.0, 0.0, 1.0, 9.0):
        vec = sigma_kappa_vec(kappa, 0.37, thetas)
        ref = np.array([sigma_kappa(kappa, 0.37, th) for th in thetas])
        np.testing.assert_allclose(vec, ref, rtol=5e-15)


def test_sigma_domain_checks():
    with pytest.raises(DomainError):
        sigma_kappa(1.0, -0.1, 1.0)
    with pytest.raises(DomainError):
        sigma_kappa(1.0, 1.1, 1.0)
    with pytest.raises(DomainError):
        sigma_kappa(1.0, 0.5, -1.0)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_angles_and_lengths_must_be_finite_and_nonnegative(bad):
    # a NaN angle read as theta = 0, and an infinite one left its slot unset
    for call in (lambda: sigma_kappa(1.0, 0.5, bad),
                 lambda: sigma_kappa_vec(1.0, 0.5, np.array([1.0, bad])),
                 lambda: sigma_kappa_vec(0.0, 0.5, np.array([bad])),
                 lambda: tau_KN(1.0, -2.0, 0.5, bad),
                 lambda: tau_KN_vec(1.0, -2.0, 0.5, np.array([bad])),
                 lambda: tau_KN_vec(0.0, -2.0, 0.5, np.array([bad])),
                 lambda: sigma_kappa_lengths(-1.0, bad, 1.0),
                 lambda: sigma_kappa_lengths(-1.0, 1.0, np.array([1.0, bad]))):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("K, N", [(math.nan, -2.0), (math.inf, -2.0),
                                  (-math.inf, -2.0), (-2.0, math.nan)],
                         ids=["K_nan", "K_inf", "K_neg_inf", "N_nan"])
def test_non_finite_curvature_is_a_domain_error(K, N):
    # a NaN kappa matches no branch of sigma, and a NaN coefficient read as
    # +inf would make every row of a CD check vacuously true
    thetas = np.array([0.0, 0.5, 1.0])
    with pytest.raises(DomainError):
        sigma_kappa_vec(K / N, 0.5, thetas)
    with pytest.raises(DomainError):
        tau_KN_vec(K, N, 0.5, thetas)


def test_tau_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(120):
        K = float(rng.uniform(-10.0, 10.0))
        N = float(-rng.uniform(0.05, 8.0))
        t = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, 2.0))
        got = tau_KN(K, N, t, theta)
        want = tau_oracle(K, N, t, theta)
        if mpmath.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(float(want), rel=1e-12, abs=1e-300)


def test_tau_flat_case_is_t():
    for t in np.linspace(0.0, 1.0, 11):
        for theta in (0.0, 0.5, 2.0):
            for N in (-0.5, -1.0, -3.0):
                assert tau_KN(0.0, N, t, theta) == pytest.approx(t, abs=1e-15)


def test_tau_at_t_zero_follows_sigma():
    # t^(1/N) * sigma^((N-1)/N) -> 0 as t -> 0 when sigma is finite, and the
    # infinite branch wins otherwise
    assert tau_KN(4.0, -2.0, 0.0, 1.0) == 0.0
    theta = 3.0
    K_inf = (-2.0 - 1.0) * math.pi ** 2 / theta ** 2 * 1.0001
    assert math.isinf(sigma_kappa(K_inf / (-2.0 - 1.0), 0.0, theta))
    assert math.isinf(tau_KN(K_inf, -2.0, 0.0, theta))


def test_tau_infinite_iff_sigma_infinite():
    K, N, theta = 9.0, -2.0, 1.9  # kappa = K/(N-1) = -3 < 0, never infinite
    assert math.isfinite(tau_KN(K, N, 0.4, theta))
    K = -40.0  # kappa = 40/3 with kappa theta^2 > pi^2
    assert math.isinf(tau_KN(K, N, 0.4, theta))


def test_tau_vec_matches_scalar():
    thetas = np.linspace(0.0, 2.5, 33)
    for K, N, t in ((3.0, -2.0, 0.31), (-5.0, -0.7, 0.77), (0.0, -4.0, 0.5),
                    (2.0, -1.5, 0.0), (2.0, -1.5, 1.0), (-2.0, -0.001, 0.3)):
        vec = tau_KN_vec(K, N, t, thetas)
        ref = np.array([tau_KN(K, N, t, th) for th in thetas])
        np.testing.assert_allclose(vec, ref, rtol=5e-15)


@pytest.mark.parametrize("K, N", [(-2.0, -1.0), (-7.5, -0.001), (0.0, -2.0),
                                  (3.0, -0.5), (-40.0, -2.0)],
                         ids=["K_neg", "K_neg_N_small", "K_zero", "K_pos",
                              "past_pi2"])
def test_tau_vec_over_times_equals_one_time_at_a_time(K, N):
    # one row per time, each bit-identical to the call with that time alone;
    # K = -40, N = -2 puts kappa theta^2 past pi^2 for theta > 0.86 (inf)
    thetas = np.concatenate([[0.0, 0.0], np.linspace(0.0, 2.5, 41), [1e-9, 3.0]])
    ts = np.array([0.0, 1.0, 0.5, 1e-12, 0.1, 1.0 - 0.1, 0.999, 0.0, 0.37])
    got = tau_KN_vec(K, N, ts, thetas)
    assert got.shape == (ts.size, thetas.size)
    for row, t in zip(got, ts):
        want = tau_KN_vec(K, N, float(t), thetas)
        assert np.array_equal(row, want)
    if K == -40.0:
        assert np.isinf(got).any() and np.isfinite(got).any()
    # theta all zero, and one time passed as a 1-element array
    zeros = np.zeros(5)
    assert np.array_equal(tau_KN_vec(K, N, ts, zeros), np.repeat(ts[:, None], 5, 1))
    assert np.array_equal(tau_KN_vec(K, N, ts[2:3], thetas)[0],
                          tau_KN_vec(K, N, ts[2], thetas))
    with pytest.raises(DomainError):
        tau_KN_vec(K, N, np.array([0.5, 1.5]), thetas)
    with pytest.raises(DomainError):
        tau_KN_vec(K, N, np.array([0.5, math.nan]), thetas)
    with pytest.raises(DomainError):  # K = 0 skips sigma, which raised for it
        tau_KN_vec(K, math.nan, ts, thetas)


def test_sigma_vec_over_times_equals_one_time_at_a_time():
    thetas = np.array([0.0, 0.3, 1.0, 2.9, 3.2, 40.0])
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    for kappa in (-3.0, 0.0, 1.0):
        got = sigma_kappa_vec(kappa, ts, thetas)
        for row, t in zip(got, ts):
            assert np.array_equal(row, sigma_kappa_vec(kappa, float(t), thetas))


def test_tau_vec_keeps_the_one_time_formula():
    # each interior row is exp(math.log(t) / N + (1 - 1/N) log sigma), with
    # the libm log of each time (np.log rounds some times differently)
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.001, 0.999, 2000)
    thetas = np.linspace(0.05, 1.0, 7)
    for K, N in ((-2.0, -0.7), (3.0, -2.5)):
        s = sigma_kappa_vec(K / (N - 1.0), ts, thetas)
        want = np.array([np.exp(math.log(t) / N + (1.0 - 1.0 / N) * np.log(row))
                         for t, row in zip(ts, s)])
        assert np.array_equal(tau_KN_vec(K, N, ts, thetas), want)


def test_one_pass_kernels_equal_the_per_angle_calls():
    # zero, finite, past-threshold and overflowing angles in one call: the
    # patched entries and the computed ones equal each angle's own call
    thetas = np.array([0.0, 0.3, 0.0, 1e-200, 2.9, 3.2, 1e200, 0.86, 40.0, 1.0])
    ts = np.array([0.0, 0.37, 1.0])
    for kappa in (-3.0, 0.0, 1.0, 1e-300):
        got = sigma_kappa_vec(kappa, ts, thetas)
        for k, theta in enumerate(thetas.tolist()):
            for row, t in zip(got, ts.tolist()):
                assert row[k] == sigma_kappa(kappa, t, theta)
    for K, N in ((-40.0, -2.0), (9.0, -2.0), (-2.0, -0.001), (0.0, -1.0)):
        got = tau_KN_vec(K, N, ts, thetas)
        for k, theta in enumerate(thetas.tolist()):
            for row, t in zip(got, ts.tolist()):
                assert row[k] == tau_KN(K, N, t, theta)
        assert got[:, thetas == 0.0].tolist() == [[t, t] for t in ts.tolist()]
    assert np.isinf(sigma_kappa_vec(1.0, 0.5, thetas)[thetas >= math.pi]).all()
    assert np.isinf(tau_KN_vec(-40.0, -2.0, 0.5, thetas)[thetas > 0.86]).all()


def _sigma_over_every_time(kappa, ts, theta):
    """sigma as the ratio of kappa's sign over every time, then the pi^2 and
    kappa theta^2 = 0 patches: the reference for the fills at t = 0, 1."""
    with np.errstate(over="ignore"):
        x = np.maximum(kappa * theta * theta, -np.finfo(float).max)
    tc = ts.reshape(ts.shape + (1,) * x.ndim)
    r = np.sqrt(np.abs(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        if kappa > 0.0:
            out = np.sin(tc * r) / np.sin(r)
        else:
            out = (np.exp((tc - 1.0) * r) * (-np.expm1(-2.0 * tc * r))
                   / (-np.expm1(-2.0 * r)))
    rows = (slice(None),) * ts.ndim
    out[rows + (x >= math.pi * math.pi - 1e-12,)] = np.inf
    out[rows + (x == 0.0,)] = ts[..., None]
    return out


def _tau_over_every_time(K, N, ts, theta):
    """tau as exp(lt + (1 - 1/N) log sigma) on _sigma_over_every_time."""
    s = _sigma_over_every_time(K / (N - 1.0), ts, theta)
    lt = np.array([math.log(v) / N if v > 0.0 else 0.0 for v in ts.flat])
    with np.errstate(over="ignore", divide="ignore"):
        out = np.exp(lt.reshape(ts.shape + (1,)) + (1.0 - 1.0 / N) * np.log(s))
    out[(slice(None),) * ts.ndim + (theta == 0.0,)] = ts[..., None]
    return out


def test_interior_time_fills_equal_the_ratio_over_every_time():
    # t = 0 and t = 1 are filled rather than computed, which must give the
    # bits the ratio gave, also at angles 0, past pi^2 (inf at every time)
    # and with an underflowing kappa theta^2 (= 0, so sigma = t)
    ts = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
    thetas = np.array([0.0, 0.4, 1.3, 2.0, 3.5, 1e-170, 1e200])
    for kappa in (1.0, -1.0):
        with np.errstate(over="ignore"):
            x = kappa * thetas * thetas
        assert (x[5] == 0.0) and (kappa < 0 or x[4] > math.pi ** 2)
        want = _sigma_over_every_time(kappa, ts, thetas)
        got = sigma_kappa_vec(kappa, ts, thetas)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for t in ts.tolist():
            one = sigma_kappa_vec(kappa, t, thetas)
            assert one.tobytes() == _sigma_over_every_time(kappa, np.array(t), thetas).tobytes()
        assert want[:, 5].tolist() == ts.tolist()
        if kappa > 0:
            assert np.isinf(got[:, 4]).all()
    for K, N in ((-3.0, -0.5), (3.0, -0.5)):  # kappa = K / (N - 1) of each sign
        want = _tau_over_every_time(K, N, ts, thetas)
        got = tau_KN_vec(K, N, ts, thetas)
        assert got.tobytes() == want.tobytes()
        for t in ts.tolist():
            assert tau_KN_vec(K, N, t, thetas).tobytes() == \
                _tau_over_every_time(K, N, np.array(t), thetas).tobytes()
        if K < 0:
            assert np.isinf(got[:, 4]).all()


def test_tau_rows_at_the_ends_are_sigmas_rows():
    # the formula runs on the interior rows only; grids with no interior
    # time, repeated ends, a time of -0.0 (whose sigma row is -0.0 but whose
    # tau is exp(-inf) = +0.0 away from theta = 0) and a 2-D array of times
    # give the bits of the formula over every time
    thetas = np.array([0.0, 0.4, 1.3, 2.0, 3.5, 1e-170, 1e200])
    grids = [np.array([0.0, 1.0]), np.array([1.0]), np.array([-0.0, 1.0, 0.0]),
             np.array([0.3, 0.7]), np.array([[0.0, 0.5], [1.0, -0.0]]),
             np.array(-0.0), np.array(0.0), np.array(1.0)]
    for K, N in ((-3.0, -0.5), (3.0, -0.5), (-40.0, -2.0)):
        for ts in grids:
            got = tau_KN_vec(K, N, ts, thetas)
            want = _tau_over_every_time(K, N, ts, thetas)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.signbit(tau_KN_vec(K, N, -0.0, thetas)).tolist() == \
            [True] + [False] * (thetas.size - 1)
