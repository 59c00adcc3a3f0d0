"""ALT landmarks: network-metric lower bounds for A*.

The paper declines to use Euclidean bounds because they may be absent
(P2P graphs) or invalid (travel-time weights).  The ALT technique
(Goldberg & Harrelson) sidesteps both objections: pick a few landmark
nodes, precompute exact network distances from each landmark to every
node, and bound any remaining distance with the triangle inequality::

    d(u, v) >= |d(L, u) - d(L, v)|   for every landmark L.

The bound is admissible *by construction of the network metric*, so it
works on any graph the paper considers.  Preprocessing costs one full
Dijkstra per landmark and ``O(|landmarks| * |V|)`` storage -- the same
partial-materialization trade-off as the paper's Section 4.1 (K-NN
lists) applied to path search instead of RkNN search.

There is one ALT implementation, :class:`~repro.oracle.oracle.DistanceOracle`
with :func:`~repro.oracle.build.select_landmarks`; :class:`LandmarkIndex`
is that oracle built over an in-memory adjacency, plus the A*
heuristic adapter ``repro path --search alt`` uses.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.oracle.build import select_landmarks, store_landmark_distances
from repro.oracle.oracle import DistanceOracle
from repro.paths.astar import Heuristic
from repro.paths.dijkstra import Adjacency


class LandmarkIndex(DistanceOracle):
    """A :class:`~repro.oracle.oracle.DistanceOracle` guiding A* searches.

    ``tables`` may be dense (``tables[i][v]``, ``inf`` when unreachable)
    or sparse ``{node: distance}`` maps such as
    :func:`~repro.paths.dijkstra.single_source_distances` returns, in
    which an absent node is unreachable from that landmark.
    """

    def __init__(
        self,
        landmarks: Sequence[int],
        tables: Sequence[Sequence[float] | Mapping[int, float]],
    ):
        size = max((_table_size(table) for table in tables), default=0)
        super().__init__(landmarks, [_dense(table, size) for table in tables])

    @classmethod
    def build(
        cls,
        graph: Adjacency,
        num_nodes: int,
        count: int = 4,
        seed: int = 0,
        strategy: str = "farthest",
    ) -> "LandmarkIndex":
        """Select ``count`` landmarks and label every node of ``graph``.

        ``strategy="farthest"`` grows the set greedily (each new
        landmark is the node farthest from the current set), which
        spreads landmarks to the periphery where their bounds are
        tight; ``"random"`` is the cheap baseline.
        """
        landmarks, tables = select_landmarks(
            lambda source: store_landmark_distances(graph, num_nodes, source),
            num_nodes, count, seed=seed, strategy=strategy,
        )
        return cls(landmarks, tables)

    def lower_bound(self, u: int, v: int) -> float:
        """``max_L |d(L, u) - d(L, v)|``: an admissible bound on d(u, v).

        A node beyond every sparse table was reached by no landmark, so
        no bound can be derived for it.
        """
        if u >= self.num_nodes or v >= self.num_nodes:
            return 0.0
        return super().lower_bound(u, v)

    def heuristic(self, target: int) -> Heuristic:
        """A* heuristic callable bounding distances to ``target``."""
        return lambda node: self.lower_bound(node, target)


def _table_size(table: Sequence[float] | Mapping[int, float]) -> int:
    """Node-id range a dense or sparse distance table covers."""
    if isinstance(table, Mapping):
        return 1 + max(table, default=-1)
    return len(table)


def _dense(table: Sequence[float] | Mapping[int, float], size: int) -> Sequence[float]:
    """``table`` as a dense list of ``size`` distances (``inf`` = unreachable)."""
    if isinstance(table, Mapping):
        return [table.get(node, float("inf")) for node in range(size)]
    return table
