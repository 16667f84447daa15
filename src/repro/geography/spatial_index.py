"""Uniform spatial grid index for the generation engine.

Two geometric access patterns dominate topology generation:

* The FKP growth model attaches each arriving node to the existing node
  minimizing ``alpha * d(i, j) + h(j)`` — a nearest-neighbour query with an
  additive per-point penalty.  :class:`SpatialGridIndex` answers it *exactly*
  via ring expansion over the occupied cells of a uniform grid: a cell is
  skipped when even its best case ``alpha * d_min(cell) + min_h(cell)``
  strictly exceeds the best objective found so far, and ties between
  surviving candidates break toward the lowest id, so the pruned argmin
  returns the identical node the seed's full O(n) scan returned.
* The Waxman model connects node pairs with a distance-decaying probability.
  :class:`GridBuckets` partitions the points into cells so the pair loop can
  run per cell pair with a probability upper bound derived from the minimum
  inter-cell distance (see ``repro.generators.waxman``).

Exactness notes for the argmin: cell rectangles are expanded by a small
epsilon before computing ``d_min`` so float rounding in the point-to-cell
assignment can never make the lower bound exceed a member's true distance.
The border cells' rectangles extend to infinity on their outer sides, since a
point outside the region is clamped into a border cell; for a query inside
the region this leaves every bound unchanged.  Pruning uses a strict ``>`` so
an equal-objective candidate with a lower id is never discarded.  Both
bounds use monotone correctly-rounded operations (``math.hypot``, one
multiply, one add), so ``bound <= objective`` holds in float arithmetic, not
just in exact arithmetic.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Container, Dict, List, Optional, Sequence, Tuple

from ..topology.compiled import KERNEL_COUNTERS
from .regions import Region

__all__ = ["SpatialGridIndex", "GridBuckets"]

#: Merge keys of a ring walk: a bucket's grid column and row.
_COLUMN = itemgetter(6)
_ROW = itemgetter(7)


def _cell_coordinate(value: float, origin: float, cell_size: float, cells: int) -> int:
    """Grid coordinate of ``value`` along one axis, clamped to the grid."""
    index = int((value - origin) / cell_size)
    if index < 0:
        return 0
    if index >= cells:
        return cells - 1
    return index


class SpatialGridIndex:
    """Uniform grid over a region answering exact penalized-nearest queries.

    Points are inserted with an id, a location, and a static ``score`` (the
    penalty term ``h(j)``).  :meth:`argmin` then returns the id minimizing
    ``alpha * d(query, point) + score`` with ties broken toward the lowest id
    — exactly the answer of a full scan in ascending-id order.

    Each occupied cell holds one bucket, ``[min_score, x_lo, x_hi, y_lo, y_hi,
    entries, column, row]``: the lowest score in the cell, its rectangle
    (epsilon-expanded, and open to infinity on the grid's outer sides so a
    point outside the region still lies inside its cell's rectangle), its
    ``(id, x, y, score)`` entries in insertion order, and its grid coordinates.
    The buckets sit in two flat lists, ``None`` for an empty cell: one in
    row-major order and one in column-major order.  Each side of a ring is
    then one list slice whose empty cells ``filter`` drops in C, so the
    Python loop of a query visits only occupied cells.

    The grid resizes itself (rebuilding in O(n)) whenever average occupancy
    exceeds ~2 points per cell.  A query walks Chebyshev rings outward until
    no farther ring can beat the incumbent, so its cost grows with the number
    of rings that takes, not with the number of points.
    """

    def __init__(self, region: Region, expected_points: int = 64) -> None:
        self._region = region
        self._points: List[Tuple[int, float, float, float]] = []
        self._min_score = math.inf
        self._build(max(1, expected_points))

    def _build(self, capacity: int) -> None:
        side = max(1, int(math.sqrt(capacity)))
        self._nx = side
        self._ny = side
        ox, oy = self._region.origin
        self._ox = ox
        self._oy = oy
        self._cell_w = self._region.width / side
        self._cell_h = self._region.height / side
        # Slack added around each cell rectangle before computing d_min, so
        # rounding in the point-to-cell assignment cannot break the bound.
        self._eps = (self._cell_w + self._cell_h) * 1e-9
        # Cell (ix, iy) is _rows[iy * nx + ix] and _cols[ix * ny + iy].
        self._rows: List[Optional[list]] = [None] * (side * side)
        self._cols: List[Optional[list]] = [None] * (side * side)
        for entry in self._points:
            self._place(entry)

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (
            _cell_coordinate(x, self._ox, self._cell_w, self._nx),
            _cell_coordinate(y, self._oy, self._cell_h, self._ny),
        )

    def _place(self, entry: Tuple[int, float, float, float]) -> None:
        ix, iy = self._cell_of(entry[1], entry[2])
        bucket = self._rows[iy * self._nx + ix]
        if bucket is None:
            eps = self._eps
            inf = math.inf
            x_lo = self._ox + ix * self._cell_w - eps if ix > 0 else -inf
            x_hi = self._ox + (ix + 1) * self._cell_w + eps if ix < self._nx - 1 else inf
            y_lo = self._oy + iy * self._cell_h - eps if iy > 0 else -inf
            y_hi = self._oy + (iy + 1) * self._cell_h + eps if iy < self._ny - 1 else inf
            bucket = [entry[3], x_lo, x_hi, y_lo, y_hi, [entry], ix, iy]
            self._rows[iy * self._nx + ix] = bucket
            self._cols[ix * self._ny + iy] = bucket
        else:
            bucket[5].append(entry)
            if entry[3] < bucket[0]:
                bucket[0] = entry[3]

    def __len__(self) -> int:
        return len(self._points)

    def insert(self, item_id: int, point: Tuple[float, float], score: float = 0.0) -> None:
        """Insert a point with a static penalty ``score``."""
        entry = (item_id, point[0], point[1], score)
        self._points.append(entry)
        if score < self._min_score:
            self._min_score = score
        if len(self._points) > 2 * self._nx * self._ny:
            self._build(2 * len(self._points))
        else:
            self._place(entry)

    def argmin(
        self,
        query: Tuple[float, float],
        alpha: float,
        stop_above: float = math.inf,
        exclude: Optional[Container[int]] = None,
    ) -> Tuple[Optional[int], float]:
        """Return ``(best_id, best_objective)`` for ``alpha*d + score``.

        Exact: identical to scanning every point in ascending-id order with
        ``objective < best`` replacement (first minimum wins ties).

        ``stop_above`` is an external incumbent objective: cells that cannot
        strictly beat it are skipped (a cell whose bound *equals* it is still
        scanned, so equal-objective ties survive for the caller's id
        comparison).  With a finite ``stop_above`` the result may be ``(None,
        inf)`` when every cell is pruned; any candidate the pruning discards
        is guaranteed to have an objective strictly above ``stop_above``.

        ``exclude`` removes ids from consideration (infeasible attachment
        targets, e.g. nodes at their degree limit).  Exactness is preserved:
        excluded points still contribute to cell lower bounds, which only
        makes pruning more conservative, never wrong.
        """
        if not self._points:
            raise ValueError("cannot query an empty spatial index")
        KERNEL_COUNTERS.spatial_queries += 1
        qx, qy = query
        nx, ny = self._nx, self._ny
        rows, cols = self._rows, self._cols
        hypot = math.hypot
        inf = math.inf
        eps = self._eps
        lowest_score = self._min_score
        qix, qiy = self._cell_of(qx, qy)
        best_obj = inf
        best_id: Optional[int] = None
        limit = stop_above
        ring_step = min(self._cell_w, self._cell_h)
        max_ring = max(qix, nx - 1 - qix, qiy, ny - 1 - qiy)
        scanned = 0
        for ring in range(max_ring + 1):
            if ring > 1 and limit < inf:
                # No cell at Chebyshev ring r can hold a point closer than
                # (r-1) cell sides; once even that plus the global best score
                # cannot beat the incumbent, no farther ring can either.
                ring_gap = (ring - 1) * ring_step - eps
                if alpha * ring_gap + lowest_score > limit:
                    break
            if ring == 0:
                center = rows[qiy * nx + qix]
                ring_cells = [] if center is None else [center]
            else:
                # The ring's occupied cells, in the order of a walk over its
                # bottom and top rows by column (bottom first on a shared
                # column), then over its left and right columns by row.
                left, right = qix - ring, qix + ring
                bottom, top = qiy - ring, qiy + ring
                first = left if left > 0 else 0
                stop = right + 1 if right < nx else nx
                ring_cells = []
                if bottom >= 0:
                    ring_cells = list(filter(None, rows[bottom * nx + first : bottom * nx + stop]))
                if top < ny:
                    top_cells = list(filter(None, rows[top * nx + first : top * nx + stop]))
                    if top_cells:
                        ring_cells = sorted(ring_cells + top_cells, key=_COLUMN)
                first = bottom + 1 if bottom >= 0 else 0
                stop = top if top < ny else ny
                column_cells = []
                if left >= 0:
                    column_cells = list(filter(None, cols[left * ny + first : left * ny + stop]))
                if right < nx:
                    right_cells = list(filter(None, cols[right * ny + first : right * ny + stop]))
                    if right_cells:
                        column_cells = sorted(column_cells + right_cells, key=_ROW)
                ring_cells += column_cells
            for min_score, x_lo, x_hi, y_lo, y_hi, entries, _, _ in ring_cells:
                dx = x_lo - qx if qx < x_lo else (qx - x_hi if qx > x_hi else 0.0)
                dy = y_lo - qy if qy < y_lo else (qy - y_hi if qy > y_hi else 0.0)
                if alpha * hypot(dx, dy) + min_score > limit:
                    continue
                for item_id, x, y, score in entries:
                    if exclude is not None and item_id in exclude:
                        continue
                    objective = alpha * hypot(qx - x, qy - y) + score
                    if objective < best_obj or (objective == best_obj and item_id < best_id):
                        best_obj = objective
                        best_id = item_id
                scanned += len(entries)
                if best_obj < limit:
                    limit = best_obj
        KERNEL_COUNTERS.spatial_candidates += scanned
        return best_id, best_obj


class GridBuckets:
    """Static cell decomposition of a point set (for grid-bucketed pair loops).

    Cells are iterated in sorted key order so any consumer drawing random
    numbers per cell pair stays deterministic for a fixed seed.
    """

    def __init__(
        self,
        points: Sequence[Tuple[float, float]],
        region: Region,
        cells_per_side: int,
    ) -> None:
        if cells_per_side < 1:
            raise ValueError("cells_per_side must be >= 1")
        self._nx = cells_per_side
        ox, oy = region.origin
        self._ox = ox
        self._oy = oy
        self._cell_w = region.width / cells_per_side
        self._cell_h = region.height / cells_per_side
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for index, (x, y) in enumerate(points):
            ix = _cell_coordinate(x, ox, self._cell_w, cells_per_side)
            iy = _cell_coordinate(y, oy, self._cell_h, cells_per_side)
            buckets.setdefault((ix, iy), []).append(index)
        #: ``(cell_key, member point indices)`` in sorted key order.
        self.cells: List[Tuple[Tuple[int, int], List[int]]] = sorted(buckets.items())

    def min_distance(self, key_a: Tuple[int, int], key_b: Tuple[int, int]) -> float:
        """Lower bound on the distance between points of two cells."""
        gap_x = max(0, abs(key_a[0] - key_b[0]) - 1) * self._cell_w
        gap_y = max(0, abs(key_a[1] - key_b[1]) - 1) * self._cell_h
        if gap_x == 0.0 and gap_y == 0.0:
            return 0.0
        return math.hypot(gap_x, gap_y)
