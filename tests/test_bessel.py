import math

import numpy as np
import pytest

from floqept.numerics.bessel import SUPPORTED_RANGE, _miller, _series, bessel_j


def series_oracle(m: int, x: float, terms: int = 400) -> float:
    """Independent ascending-series evaluation, summed to machine precision.

    Each term is built from log-gamma directly (no recurrence shared with the
    implementation under test).
    """
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    total = 0.0
    for k in range(terms):
        log_mag = (m + 2 * k) * math.log(x / 2.0) - math.lgamma(k + 1) - math.lgamma(m + k + 1)
        if log_mag < -700.0 and k > x:
            break
        total += (-1.0) ** k * math.exp(log_mag)
    return total


def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_j1_at_zero():
    assert bessel_j(1, 0.0) == 0.0


def test_smallest_subnormal_argument():
    # 5e-324 halves to 0, where the series' log(x/2) has no value
    assert bessel_j(0, 5e-324) == 1.0
    assert bessel_j(1, 5e-324) == 0.0


def test_j0_at_one_frozen():
    # frozen from the series oracle above
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-12)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
@pytest.mark.parametrize("x", [0.1, 0.5, 1.4333333, 3.0, 7.5])
def test_matches_series_oracle(m, x):
    # beyond x ~ 8 the alternating-series oracle itself loses digits to
    # cancellation; the large-argument branch is pinned by frozen references
    assert bessel_j(m, x) == pytest.approx(series_oracle(m, x), abs=1e-12)


@pytest.mark.parametrize("m", [0, 1, 2, 4])
@pytest.mark.parametrize("x", [8.0, 10.0, 12.0])
def test_miller_agrees_with_series_in_overlap(m, x):
    assert _miller(m, x) == pytest.approx(_series(m, x), abs=1e-12)


# frozen from a 40-digit reference evaluation
_REFERENCE = {
    (0, 11.0): -0.17119030040719608835,
    (1, 11.0): -0.17678529895672150114,
    (3, 11.0): 0.22734803305806741749,
    (0, 15.0): -0.014224472826780773234,
    (1, 15.0): 0.20510403861352276115,
    (3, 15.0): -0.19401825782012263456,
    (0, 25.0): 0.096266783275958116174,
    (1, 25.0): -0.12535024958028990465,
    (3, 25.0): 0.10834308106150889528,
    (0, 40.0): 0.0073668905842372895535,
    (2, 40.0): -0.0010649746823580395933,
    (0, 50.0): 0.055812327669251815005,
    (1, 50.0): -0.097511828125175137661,
    (5, 50.0): -0.081400247696569639644,
}


@pytest.mark.parametrize("key", sorted(_REFERENCE))
def test_against_frozen_references(key):
    m, x = key
    assert bessel_j(m, x) == pytest.approx(_REFERENCE[key], abs=1e-10)


def test_very_large_argument_recurrence_consistency():
    # J_{m-1}(x) + J_{m+1}(x) = (2m/x) J_m(x) holds for the Miller branch
    for x in (35.0, 50.0):
        for m in (1, 2, 5):
            lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
            rhs = (2.0 * m / x) * bessel_j(m, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_symmetry_exact():
    for m in range(6):
        for x in (0.3, 1.7, 4.2, 9.9, 20.0):
            assert bessel_j(m, -x) == (-1.0) ** m * bessel_j(m, x)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.5, 5.0])
def test_sum_rule(x):
    total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(m, x) ** 2 for m in range(1, 31))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        bessel_j(0, SUPPORTED_RANGE + 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -SUPPORTED_RANGE - 0.5)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)


def test_precision_against_numpy_reference():
    # numpy's C library Bessel via np.special is absent; use the well-known
    # identity J0^2' relation instead: J0'(x) = -J1(x), checked by finite
    # differences of the implementation itself.
    h = 1e-6
    for x in (0.7, 2.3, 6.1, 14.0):
        deriv = (bessel_j(0, x + h) - bessel_j(0, x - h)) / (2 * h)
        assert deriv == pytest.approx(-bessel_j(1, x), abs=1e-8)
