"""Distortion coefficients for curvature K and negative generalized dimension N.

All values live in [0, +inf]; +inf is IEEE inf.  The kappa-form
coefficient sigma_kappa(t, theta) is

    inf                                 if kappa * theta^2 >= pi^2,
    sin(t theta sqrt(kappa)) / sin(theta sqrt(kappa))    if 0 < kappa theta^2 < pi^2,
    t                                   if kappa * theta^2 = 0,
    sinh(t theta sqrt(-kappa)) / sinh(theta sqrt(-kappa)) if kappa theta^2 < 0,

and tau_KN(t, theta) = t^(1/N) * sigma_{K/(N-1)}(t, theta)^((N-1)/N) for N < 0.
Values within 1e-12 of the pi^2 threshold are treated as infinite.

Endpoint conventions (continuity of the combined exponent): tau at theta = 0
equals t for every t; tau at t = 0 with theta > 0 is 0 when the underlying
sigma is finite and inf when sigma is infinite, matching the fact that the
defining product t^(1/N) * sigma^((N-1)/N) tends to t * const as t -> 0+.
"""

import math

import numpy as np

from .errors import DomainError

_THRESHOLD_TOL = 1e-12
_PI2 = math.pi * math.pi


def _check_t_theta(t: float, theta: float):
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t={t} outside [0, 1]")
    if theta < 0.0:
        raise DomainError(f"theta={theta} must be nonnegative")


def sigma_kappa(kappa: float, t: float, theta: float) -> float:
    """sigma_kappa^(t)(theta), scalar form."""
    _check_t_theta(t, theta)
    return float(sigma_kappa_vec(kappa, t, np.array([theta]))[0])


def sigma_kappa_vec(kappa: float, t: float, theta) -> np.ndarray:
    """sigma_kappa^(t) over an array of angles theta >= 0."""
    if not math.isfinite(kappa):
        raise DomainError(f"kappa={kappa} must be finite")
    theta = np.asarray(theta, dtype=float)
    x = kappa * theta * theta
    out = np.empty_like(x)
    inf_mask = x >= _PI2 - _THRESHOLD_TOL
    zero = x == 0.0
    pos = (x > 0.0) & ~inf_mask
    neg = x < 0.0
    out[inf_mask] = np.inf
    out[zero] = t
    if np.any(pos):
        r = np.sqrt(x[pos])
        out[pos] = np.sin(t * r) / np.sin(r)
    if np.any(neg):
        r = np.sqrt(-x[neg])
        # sinh ratio in a form stable for large arguments
        out[neg] = np.exp((t - 1.0) * r) * (-np.expm1(-2.0 * t * r)) / (-np.expm1(-2.0 * r))
    return out


def sigma_KN(K: float, N: float, t: float, theta: float) -> float:
    """sigma in (K, N) bookkeeping: infinite iff K theta^2 <= N pi^2 (N < 0)."""
    if N >= 0:
        raise DomainError("this laboratory only covers N < 0")
    return sigma_kappa(K / N, t, theta)


def tau_KN(K: float, N: float, t: float, theta: float) -> float:
    """tau_{K,N}^(t)(theta) = t^(1/N) sigma_{K/(N-1)}^(t)(theta)^((N-1)/N)."""
    _check_t_theta(t, theta)
    return float(tau_KN_vec(K, N, t, np.array([theta]))[0])


def tau_KN_vec(K: float, N: float, t: float, theta) -> np.ndarray:
    """tau_{K,N}^(t) over an array of angles."""
    if N >= 0:
        raise DomainError("tau_KN requires N < 0")
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t={t} outside [0, 1]")
    theta = np.asarray(theta, dtype=float)
    out = np.full(theta.shape, t, dtype=float)
    pos = theta > 0.0
    if not np.any(pos):
        return out
    s = sigma_kappa_vec(K / (N - 1.0), t, theta[pos])
    vals = np.empty_like(s)
    inf_mask = np.isinf(s)
    vals[inf_mask] = np.inf
    fin = ~inf_mask
    if t == 0.0:
        vals[fin] = 0.0
    elif t == 1.0:
        vals[fin] = 1.0
    elif K == 0.0:
        vals[fin] = t
    else:
        with np.errstate(over="ignore", divide="ignore"):
            vals[fin] = np.exp(math.log(t) / N + (1.0 - 1.0 / N) * np.log(s[fin]))
    out[pos] = vals
    return out
