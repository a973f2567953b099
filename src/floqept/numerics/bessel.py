"""Bessel functions of the first kind, integer order.

Two regimes, both dependency-free:

* ``|x| <= 12``: ascending power series, summed to machine precision.
* ``12 < |x| <= 50``: Miller's backward recurrence with sum-rule
  normalization ``J0 + 2*sum(J_{2k}) = 1``.

The switchover is validated against the series in the overlap region by the
test suite.  Negative arguments go through the exact reflection
``J_m(-x) = (-1)**m * J_m(x)``.
"""

from __future__ import annotations

import math

__all__ = ["bessel_j"]

SUPPORTED_RANGE = 50.0
_SERIES_CUTOVER = 12.0


def _series(m: int, x: float) -> float:
    # J_m(x) = sum_k (-1)^k (x/2)^(m+2k) / (k! (m+k)!)
    half = 0.5 * x
    if half == 0.0:  # x = 0, or the smallest subnormal, which halves to 0
        return 1.0 if m == 0 else 0.0
    term = math.exp(m * math.log(half) - math.lgamma(m + 1))
    total = term
    hh = half * half
    for k in range(1, 400):
        term *= -hh / (k * (m + k))
        total += term
        if abs(term) <= 1e-18 * (abs(total) + 1e-300):
            break
    return total


def _miller(m: int, x: float) -> float:
    # Backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, seeded high above
    # both m and x where J decays super-exponentially, then normalized with
    # the even-order sum rule.
    start = max(m, int(math.ceil(x))) + 40
    if start % 2:
        start += 1
    jp = 0.0  # J_{k+1} (unnormalized)
    jc = 1e-300  # J_k
    norm = 0.0
    wanted = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        if abs(jc) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            norm *= 1e-250
            wanted *= 1e-250
        if k - 1 == m:
            wanted = jc
        if (k - 1) % 2 == 0 and k - 1 > 0:
            norm += 2.0 * jc
    norm += jc  # J_0 term
    if m == 0:
        wanted = jc
    return wanted / norm


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for integer order m >= 0, absolute error <= 1e-10 on |x| <= 50.

    Raises
    ------
    ValueError
        If ``m`` is negative or ``|x|`` exceeds the supported range.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    x = float(x)
    if not abs(x) <= SUPPORTED_RANGE:
        raise ValueError(f"|x| = {abs(x)} outside supported range [0, {SUPPORTED_RANGE}]")
    sign = 1.0
    if x < 0.0:
        x = -x
        if m % 2:
            sign = -1.0
    if x <= _SERIES_CUTOVER:
        return sign * _series(m, x)
    return sign * _miller(m, x)
