"""Geographic regions: rectangles with named extents and grid decomposition.

A :class:`Region` models the service footprint of an ISP — a metro area for
the access-design problem (paper Section 4) or a national footprint for the
backbone-design problem (Section 2.2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .points import clustered_points, random_points


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangular service region.

    Attributes:
        name: Human-readable name.
        width: Extent in the x direction (e.g. kilometres).
        height: Extent in the y direction.
        origin: Lower-left corner coordinates.
    """

    name: str = "region"
    width: float = 1.0
    height: float = 1.0
    origin: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN compares false.
        if not 0 < self.width < math.inf:
            raise ValueError(f"region width must be finite and positive, got {self.width}")
        if not 0 < self.height < math.inf:
            raise ValueError(f"region height must be finite and positive, got {self.height}")
        ox, oy = self.origin
        if not (-math.inf < ox < math.inf and -math.inf < oy < math.inf):
            raise ValueError(f"region origin must be finite, got {self.origin}")

    @property
    def center(self) -> Tuple[float, float]:
        """Center point of the region."""
        ox, oy = self.origin
        return (ox + self.width / 2.0, oy + self.height / 2.0)

    @property
    def diagonal(self) -> float:
        """Length of the region's diagonal (the maximum possible distance)."""
        return (self.width**2 + self.height**2) ** 0.5

    def contains(self, point: Tuple[float, float]) -> bool:
        """True if ``point`` lies inside (or on the boundary of) the region."""
        ox, oy = self.origin
        x, y = point
        return ox <= x <= ox + self.width and oy <= y <= oy + self.height

    def sample_uniform(
        self, n: int, rng: Optional[random.Random] = None
    ) -> List[Tuple[float, float]]:
        """Draw ``n`` points uniformly at random inside the region."""
        return random_points(n, rng, self.width, self.height, self.origin)

    def sample_clustered(
        self,
        n: int,
        num_clusters: int,
        rng: Optional[random.Random] = None,
        spread: float = 0.05,
    ) -> List[Tuple[float, float]]:
        """Draw ``n`` points clustered around random centers inside the region."""
        return clustered_points(n, num_clusters, rng, self.width, self.height, spread, self.origin)


def unit_square(name: str = "unit-square") -> Region:
    """The unit square, the canonical region for the FKP model."""
    return Region(name=name, width=1.0, height=1.0)


def metro_region(name: str = "metro", size_km: float = 50.0) -> Region:
    """A metropolitan-scale square region (default 50 km x 50 km).

    This is the natural scale for the access network design problem the paper
    studies in Section 4 ("Typically, this design problem occurs at the level
    of the metropolitan area").
    """
    return Region(name=name, width=size_km, height=size_km)


def national_region(
    name: str = "national", width_km: float = 4200.0, height_km: float = 2500.0
) -> Region:
    """A continental-scale region sized like the contiguous United States."""
    return Region(name=name, width=width_km, height=height_km)


def bounding_region(points: Sequence[Tuple[float, float]], name: str = "bounding-box") -> Region:
    """The axis-aligned bounding box of a point set, as a :class:`Region`.

    Both sides are set to the larger span (square cells suit the ring
    expansion of :class:`~repro.geography.spatial_index.SpatialGridIndex`),
    with a small positive floor so degenerate point sets (collinear or
    identical) stay valid.
    """
    if not points:
        raise ValueError("bounding_region requires at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    min_x, min_y = min(xs), min(ys)
    extent = max(max(xs) - min_x, max(ys) - min_y, 1e-9)
    return Region(name=name, width=extent, height=extent, origin=(min_x, min_y))
