"""Distortion coefficients against a high-precision mpmath oracle.

The oracle evaluates the defining sin/sinh ratios at 50 significant digits,
independently of the library's overflow-stable forms.
"""

import math

import mpmath
import numpy as np
import pytest

from cdknlab.distortion import (
    sigma_KN,
    sigma_kappa,
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
    with pytest.raises(DomainError):
        sigma_KN(1.0, 2.0, 0.5, 1.0)


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
