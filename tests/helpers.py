"""Shared test utilities: seeded generators and independent reference
implementations used to cross-check the package."""

from __future__ import annotations

from collections import deque
from math import gcd

from domprod import Graph, ProductSpec, is_dominating


def random_graph(rng, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.uniform(0.1, 0.7)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(adj)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of h are shifted by |V(g)|."""
    return Graph(list(g.adj) + [row << g.n for row in h.adj])


def random_bipartite_graph(rng, n: int, p: float | None = None) -> Graph:
    if p is None:
        p = rng.uniform(0.2, 0.8)
    adj = [0] * n
    half = n // 2
    for u in range(half):
        for v in range(half, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(adj)


def random_spec(rng, max_vertices: int, max_t: int = 4) -> ProductSpec:
    pairs = []
    room = max_vertices
    for _ in range(rng.randint(1, max_t)):
        b = rng.randint(2, 5)
        if b > room:
            break
        a = rng.randint(1, max(1, room // b))
        if a * b > room:
            a = 1
        pairs.append((a, b))
        room //= a * b
        if room < 2:
            break
    if not pairs:
        pairs = [(1, 2)]
    return ProductSpec.from_pairs(pairs).canonical()


def two_coloring(g: Graph) -> tuple[int, int] | None:
    """Reference bipartition: each component colored by the parity of
    its BFS distance from its smallest vertex, one edge at a time.
    Returns (color-0 mask, color-1 mask), or None when an edge joins two
    vertices of the same color."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in range(g.n):
                if g.has_edge(v, u) and color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
    for v in range(g.n):
        for u in range(v + 1, g.n):
            if g.has_edge(u, v) and color[u] == color[v]:
                return None
    sides = [0, 0]
    for v in range(g.n):
        sides[color[v]] |= 1 << v
    return sides[0], sides[1]


def minimality_by_deletion(g: Graph, d: tuple[int, ...]) -> bool:
    """Reference minimality check: dominating, and removing any single
    member breaks domination."""
    if not is_dominating(g, d):
        return False
    members = list(d)
    for i in range(len(members)):
        if is_dominating(g, members[:i] + members[i + 1:]):
            return False
    return True


def windowed_jacobsthal(n: int) -> int:
    """Independent Jacobsthal oracle: grow m until no window of m
    consecutive integers avoids the coprimes of n.  Window contents only
    depend on the start mod n, so scanning n starts is exhaustive."""
    m = 1
    while True:
        for start in range(n):
            if all(gcd(start + i, n) > 1 for i in range(m)):
                break
        else:
            return m
        m += 1
