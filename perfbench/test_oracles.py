"""The benchmark's oracles against values worked out by hand.

4x4x4: per dimension the mean distance over all 16 coordinate pairs
is (4*4 - 1) / (3*4) = 1.25, so 3.75 over all 64*64 node pairs and
3.75 * 64/63 = 80/21 over distinct pairs.  8x8x8: (64 - 1) / 24 =
2.625 per dimension, 7.875 over all pairs, 7.875 * 512/511 over
distinct ones.  Eccentricities: a corner of k x k x k is 3(k-1) hops
from the opposite corner; node (1, 1, 1) of 4x4x4 is 2 + 2 + 2.
"""

import math

import pytest

from oracles import (
    broadcast_floor,
    eccentricity,
    mean_distance,
    worm_latency,
    zero_load_unicast,
)

TS, BETA = 1.5, 0.003


def test_mean_distance_by_hand():
    assert mean_distance((4, 4, 4)) == pytest.approx(80 / 21, rel=1e-12)
    assert mean_distance((8, 8, 8)) == pytest.approx(7.875 * 512 / 511, rel=1e-12)


def test_mean_distance_matches_brute_force_on_a_small_mesh():
    dims = (2, 3, 4)
    nodes = [(a, b, c) for a in range(2) for b in range(3) for c in range(4)]
    pairs = [
        sum(abs(x - y) for x, y in zip(u, v))
        for u in nodes
        for v in nodes
        if u != v
    ]
    assert mean_distance(dims) == pytest.approx(sum(pairs) / len(pairs), rel=1e-12)


@pytest.mark.parametrize(
    "dims, source, ecc",
    [
        ((4, 4, 4), (0, 0, 0), 9),
        ((4, 4, 4), (3, 0, 3), 9),
        ((4, 4, 4), (1, 1, 1), 6),
        ((4, 4, 4), (1, 2, 3), 7),
        ((8, 8, 8), (0, 0, 0), 21),
        ((8, 8, 8), (3, 4, 3), 12),
    ],
)
def test_eccentricity_by_hand(dims, source, ecc):
    assert eccentricity(dims, source) == ecc


def test_worm_latency_by_hand():
    # One hop, L = 32: 1.5 + 0.003 + 31*0.003 = 1.596 us.
    assert worm_latency(1, TS, BETA, 32) == pytest.approx(1.596)


def test_broadcast_floor_by_hand():
    # 4x4x4 corner, L = 100: 1.5 + 9*0.003 + 99*0.003 = 1.824 us.
    assert broadcast_floor((4, 4, 4), (0, 0, 0), TS, BETA, 100) == pytest.approx(1.824)
    # 8x8x8 node (3, 4, 3), L = 64: 1.5 + 12*0.003 + 63*0.003 = 1.725 us.
    assert broadcast_floor((8, 8, 8), (3, 4, 3), TS, BETA, 64) == pytest.approx(1.725)


def test_zero_load_unicast_by_hand():
    # 4x4x4, L = 32: 1.5 + (80/21)*0.003 + 31*0.003.
    assert zero_load_unicast((4, 4, 4), TS, BETA, 32) == pytest.approx(
        1.5 + 0.24 / 21 + 0.093, rel=1e-12
    )
    # 8x8x8, L = 32 (the Fig. 3 mesh): 1.6166712... us.
    expected = 1.5 + 7.875 * 512 / 511 * 0.003 + 0.093
    assert zero_load_unicast((8, 8, 8), TS, BETA, 32) == pytest.approx(expected, rel=1e-12)
    assert math.isclose(expected, 1.61667, abs_tol=1e-5)
