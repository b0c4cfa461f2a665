"""Integer max-flow kernel shared by the graph, hypergraph and link min-cuts.

Callers scale their rational weights by one common denominator
(`core.scale_of`), so every capacity is a Python `int` and flows are
exact.  Graph and hypergraph cuts build their network in one place
(`hypergraphs._cut_entropy`); pair-atom link cuts build the node-split
network in `links`.

Arcs come in pairs: arc `e` and its reverse `e ^ 1`, whose residual
capacities always sum to the pair's total.  An undirected edge is one
pair with the same capacity both ways.  Max flow is Edmonds-Karp
(shortest augmenting paths) on the residual capacities, which it leaves
in place, so a caller can read residual reachability afterwards, add
arcs and keep going.
"""

from __future__ import annotations


class Network:
    """Directed flow network on nodes `0..size-1` with integer capacities."""

    def __init__(self, size: int) -> None:
        self.head: list[int] = []  # target node of each arc
        self.cap: list[int] = []  # residual capacity of each arc
        self.adj: list[list[int]] = [[] for _ in range(size)]

    def add(self, u: int, v: int, cap: int, back: int = 0) -> int:
        """Add arc u -> v of capacity `cap` (reverse capacity `back`); return its index."""
        e = len(self.head)
        self.head += (v, u)
        self.cap += (cap, back)
        self.adj[u].append(e)
        self.adj[v].append(e + 1)
        return e

    def max_flow(self, source: int, sink: int) -> int:
        """Augment along shortest residual paths until the sink is cut off; return the flow added."""
        head, cap, adj = self.head, self.cap, self.adj
        total = 0
        while True:
            via = [-1] * len(adj)  # arc that first reached each node
            via[source] = -2
            frontier = [source]
            while frontier and via[sink] == -1:
                following = []
                for u in frontier:
                    for e in adj[u]:
                        v = head[e]
                        if cap[e] and via[v] == -1:
                            via[v] = e
                            following.append(v)
                frontier = following
            if via[sink] == -1:
                return total
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

    def reachable(self, *starts: int) -> bytearray:
        """Nodes reachable from any of `starts` along arcs with residual capacity (1 = reached)."""
        seen = bytearray(len(self.adj))
        stack = list(starts)
        for u in stack:
            seen[u] = 1
        head, cap, adj = self.head, self.cap, self.adj
        while stack:
            for e in adj[stack.pop()]:
                v = head[e]
                if cap[e] and not seen[v]:
                    seen[v] = 1
                    stack.append(v)
        return seen
