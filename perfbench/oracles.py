"""Closed-form latency floors, computed apart from the program.

Both functions take only the mesh dimensions and the paper's wormhole
timing constants -- start-up ``Ts``, flit time ``beta`` and message
length ``L`` -- and deliberately import nothing from ``repro``: they
are the yardsticks the benchmark checks the simulator's outputs
against, so they must not share code with it.

* :func:`broadcast_floor` -- no broadcast from ``source`` can finish
  before its farthest node has been reached: one start-up, a header
  walk of the source's eccentricity, and one body pipeline.
* :func:`zero_load_unicast` -- a unicast to a uniformly random other
  node on an idle mesh costs one start-up, a header walk of the mesh's
  mean distance, and one body pipeline.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

__all__ = [
    "eccentricity",
    "mean_distance",
    "worm_latency",
    "broadcast_floor",
    "zero_load_unicast",
]


def eccentricity(dims: Sequence[int], source: Sequence[int]) -> int:
    """Hop distance from ``source`` to the farthest node of the mesh."""
    return sum(max(s, k - 1 - s) for s, k in zip(source, dims))


def mean_distance(dims: Sequence[int]) -> float:
    """Mean hop distance over ordered pairs of *distinct* nodes.

    Along one dimension of size ``k`` the distances of all ``k * k``
    ordered coordinate pairs sum to ``(k**3 - k) / 3``; each such pair
    recurs ``(N / k)**2`` times among the ``N * N`` node pairs.  The
    ``N`` self-pairs add no distance, so dividing by ``N * (N - 1)``
    gives the mean over distinct pairs (uniform unicast destinations
    never pick the source itself).
    """
    n = prod(dims)
    total = sum((n // k) ** 2 * (k**3 - k) / 3 for k in dims)
    return total / (n * (n - 1))


def worm_latency(hops: float, ts: float, beta: float, length_flits: int) -> float:
    """Uncontended worm: start-up, header walk, body pipeline."""
    return ts + hops * beta + (length_flits - 1) * beta


def broadcast_floor(
    dims: Sequence[int],
    source: Sequence[int],
    ts: float,
    beta: float,
    length_flits: int,
) -> float:
    """Contention-free broadcast bound ``Ts + ecc(source)*beta + (L-1)*beta``."""
    return worm_latency(eccentricity(dims, source), ts, beta, length_flits)


def zero_load_unicast(
    dims: Sequence[int], ts: float, beta: float, length_flits: int
) -> float:
    """Zero-load unicast latency ``Ts + mean_distance*beta + (L-1)*beta``."""
    return worm_latency(mean_distance(dims), ts, beta, length_flits)
