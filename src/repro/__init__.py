"""repro — optimization-driven (HOT) Internet topology design and generation.

Reproduction of Alderson, Doyle, Govindan, Willinger, "Toward an
Optimization-Driven Framework for Designing and Generating Realistic Internet
Topologies" (HotNets-II, 2003).

Subpackages:

* :mod:`repro.core` — the paper's contribution: FKP tradeoff model,
  buy-at-bulk access design (Meyerson-style incremental + baselines), single-
  ISP generator, peering / AS-graph construction.
* :mod:`repro.topology` — annotated topology substrate.
* :mod:`repro.geography` — regions, population centers, gravity demand.
* :mod:`repro.economics` — cable catalogs, provisioning.
* :mod:`repro.optimization` — MST, facility location, local search,
  incremental moves.
* :mod:`repro.generators` — descriptive baselines (BA, GLP, PLRG, Inet,
  Waxman, transit-stub, Erdős–Rényi).
* :mod:`repro.metrics` — degree/tail/clustering/hierarchy/expansion/
  resilience/distortion/spectrum metrics and the comparison harness.
* :mod:`repro.routing` — shortest-path demand routing, utilization.
* :mod:`repro.workloads` — reference cities and demand matrices.
* :mod:`repro.experiments` — the experiments (E1–E13): each suite's claim,
  sweep grid and gates, and the runner that executes them.
"""

from .core.fkp import generate_fkp_tree
from .core.buyatbulk import random_instance
from .core.meyerson import solve_meyerson
from .core.isp import generate_isp
from .core.peering import generate_internet
from .topology import Topology, NodeRole

__version__ = "0.1.0"

__all__ = [
    "generate_fkp_tree",
    "random_instance",
    "solve_meyerson",
    "generate_isp",
    "generate_internet",
    "Topology",
    "NodeRole",
    "__version__",
]
