"""Distortion coefficients for curvature K and negative generalized dimension N.

All values live in [0, +inf]; +inf is IEEE inf.  The kappa-form
coefficient sigma_kappa(t, theta) is

    inf                                 if kappa * theta^2 >= pi^2,
    sin(t theta sqrt(kappa)) / sin(theta sqrt(kappa))    if 0 < kappa theta^2 < pi^2,
    t                                   if kappa * theta^2 = 0,
    sinh(t theta sqrt(-kappa)) / sinh(theta sqrt(-kappa)) if kappa theta^2 < 0,

and tau_KN(t, theta) = t^(1/N) * sigma_{K/(N-1)}(t, theta)^((N-1)/N) for N < 0.
Values within 1e-12 of the pi^2 threshold are treated as infinite.  Every
angle theta (and every length) must be finite and >= 0, else DomainError.

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


def _times(t) -> np.ndarray:
    """t as a float array; DomainError unless every time lies in [0, 1]."""
    ts = np.asarray(t, dtype=float)
    ok = (ts >= 0.0) & (ts <= 1.0)
    if not ok.all():
        raise DomainError(f"t={ts[~ok].flat[0]} outside [0, 1]")
    return ts


def _lengths(name: str, x) -> np.ndarray:
    """x as a float array; DomainError unless every entry is finite and >= 0."""
    x = np.asarray(x, dtype=float)
    if x.size and not (x.min() >= 0.0 and x.max() < math.inf):
        raise DomainError(f"{name} must be finite and >= 0")
    return x


def sigma_kappa(kappa: float, t: float, theta: float) -> float:
    """sigma_kappa^(t)(theta), scalar form."""
    return float(sigma_kappa_vec(kappa, t, np.array([theta]))[0])


def sigma_kappa_vec(kappa: float, t, theta) -> np.ndarray:
    """sigma_kappa^(t) over an array of angles theta >= 0.  A 1-D array of
    times t gives one row per time.

    The ratio of kappa's sign is evaluated at the times 0 < t < 1 only; t = 0
    and t = 1 keep their time, which is what the ratio gives there.  The
    angles past the pi^2 threshold are then set to inf and those with
    kappa theta^2 = 0 to t, so each entry equals the call with that time and
    angle alone."""
    return _sigma(kappa, _times(t), _lengths("theta", theta))


def _sigma(kappa: float, ts: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sigma_kappa_vec on checked times and angles."""
    if not math.isfinite(kappa):
        raise DomainError(f"kappa={kappa} must be finite")
    with np.errstate(over="ignore"):
        # an overflowed -inf is held at the most negative double, where the
        # sinh ratio below already has its limit
        # (+inf needs nothing: it lies past the pi^2 threshold)
        x = np.maximum(kappa * theta * theta, -_XMAX)
    r = np.sqrt(np.abs(x))
    out = np.empty(ts.shape + x.shape)
    out[...] = ts.reshape(ts.shape + (1,) * x.ndim)
    inner = (ts > 0.0) & (ts < 1.0)
    tc = ts[inner].reshape((-1,) + (1,) * x.ndim)  # the times against the angles
    # the angles patched below give 0/0 or sin of inf here
    with np.errstate(divide="ignore", invalid="ignore"):
        if kappa > 0.0:
            v = np.multiply(tc, r)
            np.sin(v, out=v)
            v /= np.sin(r)
        else:  # sinh ratio in a form stable for large arguments, with the
            # signs of its two expm1 factors cancelled
            v = np.multiply(tc - 1.0, r)
            np.exp(v, out=v)
            e = np.multiply(-2.0 * tc, r)
            v *= np.expm1(e, out=e)
            v /= np.expm1(-2.0 * r)
    out[inner] = v
    rows = (slice(None),) * ts.ndim  # every row, ahead of an angle mask
    out[rows + (x >= _PI2 - _THRESHOLD_TOL,)] = np.inf
    out[rows + (x == 0.0,)] = ts[..., None]
    return out


def sigma_kappa_lengths(kappa: float, a, b):
    """sigma_kappa^(t)(theta) for theta = a + b > 0 and t = a / theta, from
    the two lengths a, b >= 0 themselves: floats (a float is returned) or
    arrays of one shape.  Neither t nor 1 - t is formed, so a point 1e150
    from one end of a 1e300 segment keeps the ~0 coefficient that
    1 - 1e-150, rounded to 1, would turn into 1."""
    if not math.isfinite(kappa):
        raise DomainError(f"kappa={kappa} must be finite")
    a, b = _lengths("a", a), _lengths("b", b)
    theta = a + b
    if not (theta > 0.0).all():
        raise DomainError("lengths a, b must have a + b > 0")
    out = np.full(theta.shape, np.inf)
    with np.errstate(over="ignore"):  # a product past the doubles is +-inf
        x = kappa * theta * theta
        zero = x == 0.0
        pos = (x > 0.0) & (x < _PI2 - _THRESHOLD_TOL)
        neg = x < 0.0
        out[zero] = a[zero] / theta[zero]
        r = math.sqrt(abs(kappa))
        out[pos] = np.sin(a[pos] * r) / np.sin(theta[pos] * r)
        # the sinh ratio in the stable form of sigma_kappa_vec, with b theta
        # standing for (1 - t) theta
        out[neg] = (np.exp(-b[neg] * r) * -np.expm1(-2.0 * a[neg] * r)
                    / -np.expm1(-2.0 * theta[neg] * r))
    return float(out) if out.ndim == 0 else out


def tau_KN(K: float, N: float, t: float, theta: float) -> float:
    """tau_{K,N}^(t)(theta) = t^(1/N) sigma_{K/(N-1)}^(t)(theta)^((N-1)/N)."""
    return float(tau_KN_vec(K, N, t, np.array([theta]))[0])


def tau_KN_vec(K: float, N: float, t, theta) -> np.ndarray:
    """tau_{K,N}^(t) over an array of angles.  A 1-D array of times t gives
    one row per time, each equal to the call with that time alone."""
    if not N < 0:  # NaN too: with K = 0 nothing below would see it
        raise DomainError("tau_KN requires N < 0")
    ts = _times(t)
    theta = _lengths("theta", theta)
    tc = ts.reshape(ts.shape + (1,) * theta.ndim)
    if K == 0.0:  # sigma is t, and so is tau
        return np.broadcast_to(tc, ts.shape + theta.shape).copy()
    s = _sigma(K / (N - 1.0), ts, theta)
    # libm's log of each time; at t = 0 the -inf of log sigma gives 0,
    # and at t = 1 sigma is 1, so both ends come out exact
    lt = np.array([math.log(v) / N if v > 0.0 else 0.0 for v in ts.ravel().tolist()])
    # exp(lt + (1 - 1/N) log sigma), in place on sigma's array
    with np.errstate(over="ignore", divide="ignore"):
        np.log(s, out=s)
        s *= 1.0 - 1.0 / N
        s += lt.reshape(tc.shape)
        np.exp(s, out=s)
    # tau = t at theta = 0, where sigma = t gives it only to rounding
    s[(slice(None),) * ts.ndim + (theta == 0.0,)] = ts[..., None]
    return s
