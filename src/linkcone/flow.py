"""Integer max-flow kernel shared by the graph, hypergraph and link min-cuts.

Every model builds one `CutNetwork` on its first query: graphs and
hypergraphs in `hypergraphs._cut_entropy`, pair-atom links in
`links._pair_network`.  Weights are scaled by one common denominator
(`core.scale_of`), so capacities are `int`s and flows exact.  Each
terminal has two slots, source -> entry and exit -> sink, built closed; a
query copies the capacities, opens its terminals' slots and runs the max
flow on the copy, so no arc is added after the build.

Arcs come in pairs: arc `e` and its reverse `e ^ 1`, whose residual
capacities always sum to the pair's total.  An undirected edge is one
pair with the same capacity both ways.  Max flow is Edmonds-Karp
(shortest augmenting paths); `solve` returns the query's residual
capacities with the flow, so a caller can search them with `reach`, open
more slots and keep going.
"""

from __future__ import annotations

from .core import scale_of, scaled


class CutNetwork:
    """A model's cut network on nodes `0..nodes-1`, `source` and `sink`, built once.

    `capacities` are the `weights` scaled by `scale`; `big` exceeds their sum.
    """

    def __init__(self, nodes: int, weights: list) -> None:
        self.source, self.sink = nodes, nodes + 1
        self.scale = scale_of(weights)
        self.capacities = [scaled(w, self.scale) for w in weights]
        self.big = sum(self.capacities) + 1
        self.head: list[int] = []
        self.cap: list[int] = []  # capacity of each arc, every slot closed
        self.adj: list[list[int]] = [[] for _ in range(nodes + 2)]
        self.slots: dict[int, tuple[int, int]] = {}  # terminal -> its arcs source -> entry, exit -> sink

    def add(self, u: int, v: int, cap: int, back: int = 0) -> int:
        """Add arc u -> v of capacity `cap` (reverse capacity `back`); return its index."""
        e = len(self.head)
        self.head += (v, u)
        self.cap += (cap, back)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def slot(self, terminal: int, entry: int, exit: int) -> None:
        """Give `terminal` its two closed slots, source -> entry and exit -> sink."""
        self.slots[terminal] = (self.add(self.source, entry, 0), self.add(exit, self.sink, 0))

    def reach(self, cap: list[int], starts, stop: int) -> list[int]:
        """BFS on residual `cap` from `starts` until `stop`: each node's first arc in (-2 a start, -1 unreached)."""
        head, adj = self.head, self.adj
        via = [-1] * len(adj)
        for u in starts:
            via[u] = -2
        frontier = list(starts)
        while frontier and via[stop] == -1:
            following = []
            for u in frontier:
                for e in adj[u]:
                    v = head[e]
                    if cap[e] and via[v] == -1:
                        via[v] = e
                        following.append(v)
            frontier = following
        return via

    def solve(self, inside, outside) -> tuple[int, list[int]]:
        """Max flow from the `inside` terminals to the `outside` ones, and its residual capacities."""
        head, source, sink = self.head, self.source, self.sink
        cap = self.cap.copy()
        for terminal in inside:
            cap[self.slots[terminal][0]] = self.big
        for terminal in outside:
            cap[self.slots[terminal][1]] = self.big
        total = 0
        while True:
            via = self.reach(cap, (source,), sink)
            if via[sink] == -1:
                return total, cap
            path = []
            v = sink
            while v != source:
                path.append(via[v])
                v = head[via[v] ^ 1]
            push = min(cap[e] for e in path)
            for e in path:
                cap[e] -= push
                cap[e ^ 1] += push
            total += push
