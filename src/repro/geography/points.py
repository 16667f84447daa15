"""Geometric primitives: distances and random point placement.

The optimization-driven generators place customers, routers, and population
centers in a two-dimensional region; this module provides the geometric
substrate they share.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple


def euclidean(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Euclidean distance between two ``(x, y)`` tuples."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def random_points(
    n: int,
    rng: Optional[random.Random] = None,
    width: float = 1.0,
    height: float = 1.0,
    origin: Tuple[float, float] = (0.0, 0.0),
) -> List[Tuple[float, float]]:
    """Draw ``n`` points uniformly at random from a rectangle.

    Args:
        n: Number of points to draw.
        rng: Random source (a fresh unseeded one is used when omitted).
        width: Rectangle width.
        height: Rectangle height.
        origin: Lower-left corner of the rectangle.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = rng or random.Random()
    ox, oy = origin
    return [(ox + rng.random() * width, oy + rng.random() * height) for _ in range(n)]


def clustered_points(
    n: int,
    num_clusters: int,
    rng: Optional[random.Random] = None,
    width: float = 1.0,
    height: float = 1.0,
    spread: float = 0.05,
    origin: Tuple[float, float] = (0.0, 0.0),
) -> List[Tuple[float, float]]:
    """Draw ``n`` points from Gaussian clusters with random centers.

    Used to model customers concentrated around population centers (paper
    Section 2.1: "most customers reside in the big cities").  Points falling
    outside the rectangle are clamped to its boundary.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    rng = rng or random.Random()
    ox, oy = origin
    centers = random_points(num_clusters, rng, width, height, origin)
    points: List[Tuple[float, float]] = []
    for _ in range(n):
        cx, cy = centers[rng.randrange(num_clusters)]
        x = min(ox + width, max(ox, rng.gauss(cx, spread * width)))
        y = min(oy + height, max(oy, rng.gauss(cy, spread * height)))
        points.append((x, y))
    return points
