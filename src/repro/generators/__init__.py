"""Descriptive baseline generators (degree-based and structural).

These are the comparators the paper critiques: they match chosen statistics
(degree distributions, imposed hierarchy) rather than modeling the economic
and technical forces that produce them.  Experiment E5 runs all of them
against the optimization-driven generators through the common
:class:`~repro.generators.base.TopologyGenerator` interface.
"""

from .base import (
    TopologyGenerator,
    available_generators,
    ensure_connected,
    make_generator,
    register_generator,
)
from .sampling import (
    FenwickSampler,
    MultisetSampler,
    skip_sampled_indices,
    skip_sampled_pairs,
)
from .erdos_renyi import ErdosRenyiGenerator
from .waxman import WaxmanGenerator
from .barabasi_albert import BarabasiAlbertGenerator
from .glp import GLPGenerator
from .plrg import PLRGGenerator, power_law_degree_sequence
from .inet import InetGenerator
from .transit_stub import TransitStubGenerator

# Register the default-configured generators so callers (and the comparison
# harness) can instantiate them by name.
register_generator("erdos-renyi", ErdosRenyiGenerator)
register_generator("waxman", WaxmanGenerator)
register_generator("barabasi-albert", BarabasiAlbertGenerator)
register_generator("glp", GLPGenerator)
register_generator("plrg", PLRGGenerator)
register_generator("inet", InetGenerator)
register_generator("transit-stub", TransitStubGenerator)

__all__ = [
    "FenwickSampler",
    "MultisetSampler",
    "skip_sampled_indices",
    "skip_sampled_pairs",
    "TopologyGenerator",
    "available_generators",
    "ensure_connected",
    "make_generator",
    "register_generator",
    "ErdosRenyiGenerator",
    "WaxmanGenerator",
    "BarabasiAlbertGenerator",
    "GLPGenerator",
    "PLRGGenerator",
    "power_law_degree_sequence",
    "InetGenerator",
    "TransitStubGenerator",
]
