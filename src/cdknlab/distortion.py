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
_XMAX = np.finfo(float).max


def _check_t_theta(t: float, theta: float):
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t={t} outside [0, 1]")
    if theta < 0.0:
        raise DomainError(f"theta={theta} must be nonnegative")


def sigma_kappa(kappa: float, t: float, theta: float) -> float:
    """sigma_kappa^(t)(theta), scalar form."""
    _check_t_theta(t, theta)
    return float(sigma_kappa_vec(kappa, t, np.array([theta]))[0])


def sigma_kappa_vec(kappa: float, t, theta) -> np.ndarray:
    """sigma_kappa^(t) over an array of angles theta >= 0.  A 1-D array of
    times t gives one row per time."""
    if not math.isfinite(kappa):
        raise DomainError(f"kappa={kappa} must be finite")
    ts = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore"):
        # an overflowed -inf is held at the most negative double, where the
        # sinh ratio below already has its limit and t = 0, 1 stay exact
        # (+inf needs nothing: it lies past the pi^2 threshold)
        x = np.maximum(kappa * theta * theta, -_XMAX)
    tc = ts[..., None]  # the times as a column against the angles
    rows = (slice(None),) * ts.ndim  # every row, ahead of an angle mask
    out = np.empty(ts.shape + x.shape)
    inf_mask = x >= _PI2 - _THRESHOLD_TOL
    zero = x == 0.0
    pos = (x > 0.0) & ~inf_mask
    neg = x < 0.0
    out[rows + (inf_mask,)] = np.inf
    out[rows + (zero,)] = tc
    if pos.any():
        r = np.sqrt(x[pos])
        out[rows + (pos,)] = np.sin(tc * r) / np.sin(r)
    if neg.any():
        r = np.sqrt(-x[neg])
        # sinh ratio in a form stable for large arguments
        out[rows + (neg,)] = (np.exp((tc - 1.0) * r) * (-np.expm1(-2.0 * tc * r))
                              / (-np.expm1(-2.0 * r)))
    return out


def sigma_kappa_lengths(kappa: float, a: float, b: float) -> float:
    """sigma_kappa^(t)(theta) for theta = a + b > 0 and t = a / theta, from
    the two lengths a, b >= 0 themselves.  Neither t nor 1 - t is formed, so
    a point 1e150 from one end of a 1e300 segment keeps the ~0 coefficient
    that 1 - 1e-150, rounded to 1, would turn into 1."""
    if not math.isfinite(kappa):
        raise DomainError(f"kappa={kappa} must be finite")
    if not (a >= 0.0 and b >= 0.0):
        raise DomainError(f"lengths a={a}, b={b} must be nonnegative")
    theta = a + b
    x = kappa * theta * theta
    if x >= _PI2 - _THRESHOLD_TOL:
        return math.inf
    if x == 0.0:
        return a / theta
    if x > 0.0:
        r = math.sqrt(kappa)
        return math.sin(a * r) / math.sin(theta * r)
    r = math.sqrt(-kappa)
    # the sinh ratio in the stable form of sigma_kappa_vec, with b theta
    # standing for (1 - t) theta
    return math.exp(-b * r) * -math.expm1(-2.0 * a * r) / -math.expm1(-2.0 * theta * r)


def tau_KN(K: float, N: float, t: float, theta: float) -> float:
    """tau_{K,N}^(t)(theta) = t^(1/N) sigma_{K/(N-1)}^(t)(theta)^((N-1)/N)."""
    _check_t_theta(t, theta)
    return float(tau_KN_vec(K, N, t, np.array([theta]))[0])


def tau_KN_vec(K: float, N: float, t, theta) -> np.ndarray:
    """tau_{K,N}^(t) over an array of angles.  A 1-D array of times t gives
    one row per time, each equal to the call with that time alone."""
    if not N < 0:  # NaN too: with K = 0 nothing below would see it
        raise DomainError("tau_KN requires N < 0")
    ts = np.asarray(t, dtype=float)
    ok = (ts >= 0.0) & (ts <= 1.0)
    if not ok.all():
        raise DomainError(f"t={ts[~ok].flat[0]} outside [0, 1]")
    theta = np.asarray(theta, dtype=float)
    # tau = t at theta = 0, and everywhere when K = 0 (sigma is then t)
    out = np.empty(ts.shape + theta.shape)
    out[...] = ts.reshape(ts.shape + (1,) * theta.ndim)
    pos = theta > 0.0
    if K != 0.0 and pos.any():
        s = sigma_kappa_vec(K / (N - 1.0), ts, theta[pos])
        # libm's log of each time; at t = 0 the -inf of log sigma gives 0,
        # and at t = 1 sigma is 1, so both ends come out exact
        lt = np.array([math.log(v) / N if v > 0.0 else 0.0 for v in ts.flat])
        rows = (slice(None),) * ts.ndim
        with np.errstate(over="ignore", divide="ignore"):
            out[rows + (pos,)] = np.exp(lt.reshape(ts.shape + (1,))
                                        + (1.0 - 1.0 / N) * np.log(s))
    return out
