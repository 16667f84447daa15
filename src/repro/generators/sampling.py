"""Dynamic weighted sampling for the generation engine.

Every degree-based generator in :mod:`repro.generators` draws nodes with
probability proportional to a per-node weight (degree, degree-minus-beta,
remaining stub count, ...) via inverse-CDF sampling: draw ``u = rng.random()``,
set ``target = u * total_weight``, and pick the first node whose cumulative
weight reaches ``target``.  The seed implementations realized that with an
O(n) linear scan per draw, which made topology *generation* quadratic and the
dominant cost of every experiment once the analysis kernels were compiled.

This module provides the shared O(log n) replacements:

* :class:`FenwickSampler` — a Fenwick (binary indexed) tree over per-index
  weights with O(log n) draw and O(log n) weight update.  Its selection
  predicate is exactly the linear scan's (*smallest index whose cumulative
  weight is >= target*), so a draw maps the same ``rng.random()`` value to the
  same index.  With integer weights (Inet's remaining-degree preference) the
  prefix sums are exact and selection is *provably* bit-identical to the scan;
  with float weights (GLP's ``degree - beta``) prefix sums can differ from the
  sequential scan's by ULPs, which is verified empirically by the seed-hash
  regression tests in ``tests/generators/test_seed_stability.py``.
* :class:`MultisetSampler` — the Barabási–Albert "repeated targets" idiom
  (one list entry per unit of weight, uniform O(1) draws via
  ``rng.randrange``) behind the same small API, so BA participates in the
  shared engine without changing a single random draw.

The seed's linear scan stays in ``tests/oracles.py`` as the executable
specification the Fenwick sampler is property-tested against.

All samplers count their operations in
:data:`repro.topology.compiled.KERNEL_COUNTERS` (``sampler_draws`` /
``sampler_updates``) so benchmarks can assert the O(log n) claim.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, List, Tuple

from ..topology.compiled import KERNEL_COUNTERS

__all__ = [
    "FenwickSampler",
    "MultisetSampler",
    "skip_sampled_indices",
    "skip_sampled_pairs",
]


def skip_sampled_indices(count: int, probability: float, rng: random.Random) -> Iterator[int]:
    """Indices of successes in ``count`` Bernoulli(probability) trials.

    The Batagelj–Brandes geometric-jump technique: instead of one uniform
    draw per trial, jump straight to the next success, so the expected cost
    is ``O(count * probability)`` draws.  The per-index success distribution
    is exactly Bernoulli — only the random stream differs from a naive
    per-trial loop.
    """
    if probability <= 0.0 or count <= 0:
        return
    if probability >= 1.0:
        yield from range(count)
        return
    log_fail = math.log1p(-probability)
    position = -1
    while True:
        u = rng.random()
        position += 1 + int(math.log(1.0 - u) / log_fail)
        if position >= count:
            return
        yield position


def skip_sampled_pairs(
    count: int, probability: float, rng: random.Random, min_gap: int = 1
) -> Iterator[Tuple[int, int]]:
    """Skip-sampled index pairs ``(i, j)`` with ``i < j`` and ``j - i >= min_gap``.

    Pairs are enumerated row-major (all partners of 0, then of 1, ...), each
    kept independently with ``probability`` — the O(pairs * probability)
    replacement for the generators' nested ``for u: for v`` Bernoulli loops.
    ``min_gap=2`` skips path-adjacent pairs (the transit-stub chord loops).
    """
    if min_gap < 1:
        raise ValueError("min_gap must be >= 1")
    rows = count - min_gap
    if rows <= 0:
        return
    total_pairs = rows * (rows + 1) // 2
    row = 0
    row_start = 0  # flat index of the first pair in the current row
    for flat in skip_sampled_indices(total_pairs, probability, rng):
        while flat >= row_start + (count - min_gap - row):
            row_start += count - min_gap - row
            row += 1
        yield row, row + min_gap + (flat - row_start)


class FenwickSampler:
    """Dynamic weighted sampler over indices ``0..capacity-1``.

    Weights default to zero; an index with zero weight is never selected.
    Integer weights are kept as Python ints throughout (exact prefix sums);
    float weights follow the tree's summation order.

    Example:
        >>> sampler = FenwickSampler(4)
        >>> sampler.set_weight(1, 3)
        >>> sampler.set_weight(3, 1)
        >>> sampler.total()
        4
        >>> sampler.select(3.5)
        3
    """

    __slots__ = ("_size", "_tree", "_weights", "_top", "active_count")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._size = capacity
        self._tree: List[float] = [0] * (capacity + 1)
        self._weights: List[float] = [0] * capacity
        top = 1
        while top * 2 <= capacity:
            top *= 2
        self._top = top
        #: Number of indices with a positive weight.
        self.active_count = 0

    def weight(self, index: int) -> float:
        """Current weight of ``index``."""
        return self._weights[index]

    def set_weight(self, index: int, weight: float) -> None:
        """Set the weight of ``index`` (O(log n))."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")
        if weight < 0:
            raise ValueError(f"weights must be non-negative, got {weight}")
        old = self._weights[index]
        if weight == old:
            return
        if (old > 0) != (weight > 0):
            self.active_count += 1 if weight > 0 else -1
        self._weights[index] = weight
        delta = weight - old
        tree = self._tree
        position = index + 1
        size = self._size
        while position <= size:
            tree[position] += delta
            position += position & -position
        KERNEL_COUNTERS.sampler_updates += 1

    def total(self):
        """Sum of all weights (O(log n), summed in tree order)."""
        return self._prefix(self._size)

    def _prefix(self, count: int):
        """Sum of the first ``count`` weights."""
        tree = self._tree
        acc = 0
        while count > 0:
            acc += tree[count]
            count -= count & -count
        return acc

    def select(self, target: float) -> int:
        """Smallest index whose cumulative weight is >= ``target``.

        Matches the seed's linear inverse-CDF scan over the positive-weight
        entries: the returned index always has a positive weight (zero-weight
        indices contribute nothing to the cumulative sum and can never be
        first to reach a positive ``target``; a ``target <= 0`` — e.g. from a
        ``rng.random()`` draw of exactly 0.0 — selects the first active
        index, as a scan over only the active entries would).  If ``target``
        exceeds the total, the last positive-weight index is returned,
        mirroring the scan's fall-through.
        """
        if target <= 0:
            KERNEL_COUNTERS.sampler_draws += 1
            return self._first_active()
        tree = self._tree
        size = self._size
        position = 0
        acc = 0
        step = self._top
        while step:
            candidate = position + step
            if candidate <= size:
                reached = acc + tree[candidate]
                if reached < target:
                    acc = reached
                    position = candidate
            step >>= 1
        KERNEL_COUNTERS.sampler_draws += 1
        if position >= size:  # target beyond total: fall back like the scan
            position = self._last_active()
        return position

    def sample(self, rng: random.Random) -> int:
        """Draw one index with probability proportional to its weight.

        Consumes exactly one ``rng.random()`` call, multiplied by the current
        total — the same draw-to-target mapping as the seed generators.
        """
        if self.active_count == 0:
            raise ValueError("cannot sample from an all-zero sampler")
        return self.select(rng.random() * self.total())

    def _first_active(self) -> int:
        weights = self._weights
        for index in range(self._size):
            if weights[index] > 0:
                return index
        raise ValueError("cannot select from an all-zero sampler")

    def _last_active(self) -> int:
        weights = self._weights
        for index in range(self._size - 1, -1, -1):
            if weights[index] > 0:
                return index
        raise ValueError("cannot select from an all-zero sampler")


class MultisetSampler:
    """Uniform sampler over a growable multiset (the BA repeated-targets idiom).

    Each item appears once per unit of weight; a uniform O(1) draw over the
    backing list is then a draw proportional to weight.  Item order is
    preserved exactly, so the ``rng.randrange(len)`` index-to-item mapping of
    the seed Barabási–Albert implementation is unchanged.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[int] = ()) -> None:
        self._items: List[int] = list(items)

    def __len__(self) -> int:
        return len(self._items)

    def add(self, item: int, count: int = 1) -> None:
        """Append ``count`` copies of ``item`` (O(count))."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 1:
            self._items.append(item)
        else:
            self._items.extend([item] * count)
        KERNEL_COUNTERS.sampler_updates += 1

    def sample(self, rng: random.Random) -> int:
        """Draw one item uniformly (one ``rng.randrange(len)`` call)."""
        if not self._items:
            raise ValueError("cannot sample from an empty multiset")
        KERNEL_COUNTERS.sampler_draws += 1
        return self._items[rng.randrange(len(self._items))]
