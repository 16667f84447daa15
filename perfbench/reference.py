"""A fixed reference work, timed beside every measurement to track machine speed.

The shared 2-CPU host the benchmark was tuned on runs in phases of seconds to
minutes in which all code, a pure-Python loop included, runs up to 1.6x
slower, with no steal time recorded and CPU time slowing exactly as wall
time does. An operation's wall seconds divided by the seconds of this work,
timed just before and just after it, cancels most of that drift; so does a
set-up's, divided by one sample timed in the same process right after it.

The work uses none of the library, so a change to the library moves the
operation's time and not the reference's. It mixes the kinds of work the
workloads do: a heap-based Dijkstra in Python over dict/list adjacency,
integer arithmetic in an interpreted loop, and scipy's compiled Dijkstra.
"""

import heapq
import random
import time

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: ``wall_ref_s`` and ``setup_s`` are wall seconds rescaled to a machine on
#: which one ``seconds()`` sample takes this long (about its fast-phase time
#: on the 2.1 GHz Xeon the benchmark was tuned on).
REFERENCE_S = 0.1

_NODES = 3000
_DEGREE = 4
_PYTHON_SOURCES = 6
_SCIPY_SOURCES = 40
_LOOP = 300_000


class Reference:
    def __init__(self, seed: int = 0) -> None:
        rng = random.Random(seed)
        self.adjacency = [[] for _ in range(_NODES)]
        rows, cols, weights = [], [], []
        for u in range(1, _NODES):
            for _ in range(_DEGREE):
                v, w = rng.randrange(u), rng.random()
                self.adjacency[u].append((v, w))
                self.adjacency[v].append((u, w))
                rows += [u, v]
                cols += [v, u]
                weights += [w, w]
        self.matrix = csr_matrix((weights, (rows, cols)), shape=(_NODES, _NODES))

    def _python_dijkstra(self) -> float:
        total = 0.0
        for source in range(_PYTHON_SOURCES):
            dist = {source: 0.0}
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in self.adjacency[u]:
                    nd = d + w
                    if nd < dist.get(v, float("inf")):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
            total += sum(dist.values())
        return total

    @staticmethod
    def _loop() -> int:
        s = 0
        for i in range(_LOOP):
            s += i * i % 7
        return s

    def _scipy_dijkstra(self) -> float:
        return float(dijkstra(self.matrix, indices=list(range(_SCIPY_SOURCES))).sum())

    def seconds(self) -> float:
        """Wall seconds of one pass of the reference work."""
        start = time.perf_counter()
        self._python_dijkstra()
        self._loop()
        self._scipy_dijkstra()
        return time.perf_counter() - start
