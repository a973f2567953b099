"""Bessel functions of the first kind, integer order, dependency-free.

:func:`bessel_j` sums the ascending power series for ``|x| <= 12`` and reads
its order off :func:`bessel_ladder` above.  :func:`bessel_ladder` returns
every order ``J_0 .. J_top`` of one Miller pass, the backward recurrence
normalized by the sum rule ``J0 + 2*sum(J_{2k}) = 1``; the test suite holds
it to the series order by order.  Negative arguments of :func:`bessel_j` go
through the exact reflection ``J_m(-x) = (-1)**m * J_m(x)``.
"""

from __future__ import annotations

import math

__all__ = ["bessel_j", "bessel_ladder"]

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


def bessel_ladder(x: float, top: int) -> list:
    """``[J_0(x), ..., J_top(x)]``, ``0 <= x <= 50``: Miller's recurrence ``J_{k-1} = (2k/x)
    J_k - J_{k+1}`` seeded 40 orders above ``top`` and ``x``, where J decays
    super-exponentially, normalized by the sum rule.  Below 1e-30, where ``2k/x`` would
    overflow the rescaled recurrence, each order comes from the series."""
    if x < 1e-30:
        return [_series(m, x) for m in range(top + 1)]
    start = max(top, math.ceil(x)) + 40
    start += start % 2
    ladder = [0.0] * start  # unnormalized J_0 .. J_(start-1)
    jp, jc = 0.0, 1e-300  # J_(k+1), J_k
    for k in range(start, 0, -1):
        jp, jc = jc, (2.0 * k / x) * jc - jp
        if abs(jc) > 1e250:
            jp, jc = jp * 1e-250, jc * 1e-250
            ladder[k:] = [v * 1e-250 for v in ladder[k:]]
        ladder[k - 1] = jc
    norm = ladder[0] + 2.0 * sum(ladder[2::2])
    return [v / norm for v in ladder[:top + 1]]


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
    return sign * (_series(m, x) if x <= _SERIES_CUTOVER else bessel_ladder(x, m)[m])
