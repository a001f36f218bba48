"""Shared test utilities: seeded generators and independent reference
implementations used to cross-check the package, among them the
brute-force oracle gamma_oracle."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Iterable

from domprod import (
    Graph,
    NoTotalDominationError,
    ProductSpec,
    SolveResult,
    is_dominating,
    is_minimal_dominating,
    is_total_dominating,
    product_spec_graph,
)

ORACLE_CAP = {"gamma": 20, "gamma_total": 20, "upper": 16}

_ORACLE_CHECK = {
    "gamma": is_dominating,
    "gamma_total": is_total_dominating,
    "upper": is_minimal_dominating,
}


class OracleCapError(ValueError):
    """Graph too large for the brute-force oracle."""


def gamma_oracle(g: Graph, kind: str = "gamma") -> SolveResult:
    """Independent ground truth: subsets by increasing size for gamma and
    gamma_total, decreasing size with a minimality check for upper.  It
    shares nothing with the package's searches; it calls only the public
    checkers."""
    if kind not in ORACLE_CAP:
        raise ValueError(f"unknown oracle kind {kind!r}")
    if g.n > ORACLE_CAP[kind]:
        raise OracleCapError(f"{g.n} vertices exceeds oracle cap {ORACLE_CAP[kind]}")
    if kind == "gamma_total" and any(a == 0 for a in g.adj):
        raise NoTotalDominationError("graph has an isolated vertex")
    check = _ORACLE_CHECK[kind]
    for k in range(g.n, 0, -1) if kind == "upper" else range(1, g.n + 1):
        for combo in combinations(range(g.n), k):
            if check(g, combo):
                return SolveResult(kind, k, combo, True, "oracle", lo=k, hi=k)
    # every graph has a minimal dominating set, and without isolated
    # vertices V itself totally dominates
    raise AssertionError("unreachable")


def orbit_key(factors, fixed: Iterable[int]):
    """Key function whose equal values are vertices in one orbit of the
    pointwise stabilizer of `fixed` in the factor symmetry group, or
    None when that stabilizer is trivial (every orbit is one vertex); an
    oracle for solvers._stabilizer, which gives each orbit as a mask.

    Per factor, each residue has an entry: the first member of `fixed`
    with that residue and the first in its partite set, -1 for none.
    The factor's pattern is the entries of the members' residues, in
    member order.  An element of the group fixes every member iff it
    maps each factor's members' residues onto theirs in the image
    factor; that needs equal patterns, and then a residue can go to any
    residue of the same entry.  So v and w lie in one orbit iff per
    class of equal (size, b) factors the multisets of their (pattern,
    entry) pairs agree; the key is those multisets, sorted.
    """
    fixed = list(fixed)
    patterns: dict[tuple, int] = {}  # pattern -> small int
    classes: dict[tuple[int, int], list] = {}  # (size, b) -> its factors
    for stride, size, b in factors:
        column = [v // stride % size for v in fixed]
        first, first_set = {}, {}  # residue, partite set -> first member in it
        for m, r in enumerate(column):
            first.setdefault(r, m)
            first_set.setdefault(r % b, m)
        table = [(first.get(r, -1), first_set.get(r % b, -1)) for r in range(size)]
        pid = patterns.setdefault(tuple(table[r] for r in column), len(patterns))
        classes.setdefault((size, b), []).append((stride, size, pid, table))
    groups = list(classes.values())
    if all(len({pid for _, _, pid, _ in g}) == len(g)
           and all(len(set(table)) == size for _, size, _, table in g) for g in groups):
        return None

    def key(v: int) -> tuple:
        return tuple(
            tuple(sorted([(pid, table[v // stride % size])
                          for stride, size, pid, table in group]))
            for group in groups
        )

    return key


def generating_involutions(factors, n: int) -> list[list[tuple[int, int]]]:
    """A reference for solvers._lex_generators: only involutions that
    generate the factor symmetry group, in its format (each the ascending
    pairs (j, image of j) it moves, j < image, listed by first j): per
    factor, the swaps of two neighbouring partite sets and of two
    neighbouring residues within one partite set; and the swaps of two
    neighbouring factors with equal (size, b).  _lex_generators also
    lists products of one partite swap over several factors, which the
    lex-leader test checks on top of these."""
    residues = [tuple(v // stride % size for stride, size, _ in factors) for v in range(n)]
    vertex = {c: v for v, c in enumerate(residues)}
    images = []
    last: dict[tuple[int, int], int] = {}  # (size, b) -> latest factor seen
    for i, (_, size, b) in enumerate(factors):
        swaps = [[r + 1 if r % b == p else r - 1 if r % b == p + 1 else r
                  for r in range(size)] for p in range(b - 1)]
        for r in range(size - b):
            swaps.append(list(range(size)))
            swaps[-1][r], swaps[-1][r + b] = r + b, r
        for image in swaps:
            images.append([vertex[c[:i] + (image[c[i]],) + c[i + 1:]] for c in residues])
        k = last.get((size, b))
        if k is not None:
            images.append([vertex[c[:k] + (c[i],) + c[k + 1:i] + (c[k],) + c[i + 1:]]
                           for c in residues])
        last[size, b] = i
    gens = [[(v, w) for v, w in enumerate(image) if v < w] for image in images]
    gens.sort(key=lambda pairs: pairs[0][0])
    return gens


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


def multipartite(a: int, b: int) -> Graph:
    """K[a,b] on vertices 0..ab-1, with its Graph.factors; x ~ y iff x
    and y differ mod b, so the partite sets are the residue classes mod b."""
    return product_spec_graph(ProductSpec.from_pairs([(a, b)]))


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
                if g.adj[v] >> u & 1 and color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
    for v in range(g.n):
        for u in range(v + 1, g.n):
            if g.adj[u] >> v & 1 and color[u] == color[v]:
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


def shrink_to_minimal(g: Graph, d) -> tuple[int, ...]:
    """Drop removable vertices (smallest first) until the set is minimal."""
    members = sorted(set(d))
    if not is_dominating(g, members):
        raise ValueError("set is not dominating")
    for v in list(members):
        trial = [u for u in members if u != v]
        if is_dominating(g, trial):
            members = trial
    return tuple(members)


@dataclass(frozen=True)
class CliquePartition:
    """Partition of a product's vertices into cliques of size b_1."""

    spec: ProductSpec
    cliques: tuple[tuple[int, ...], ...]

    def validate(self, graph: Graph) -> None:
        """Checks disjointness, coverage, clique property, and sizes."""
        b1 = self.spec.factors[0].b
        seen = 0
        for c in self.cliques:
            if len(c) != b1:
                raise ValueError(f"clique size {len(c)} != b_1 = {b1}")
            cmask = 0
            for v in c:
                cmask |= 1 << v
            if seen & cmask:
                raise ValueError("cliques are not disjoint")
            seen |= cmask
            for v in c:
                if cmask & ~graph.closed(v):
                    raise ValueError(f"set {c} is not a clique")
        if seen != graph.full_mask():
            raise ValueError("cliques do not cover the vertex set")


def clique_partition(spec: ProductSpec) -> CliquePartition:
    """Partition prod K[a_i,b_i] into n/b_1 cliques of size b_1 >= 2:
    the proof behind gamma_upper_exact's n/2 cap, which the solver
    applies without building it.

    Built factor by factor on coordinate tuples: consecutive blocks of
    b_1 residues partition the first factor; appending a factor of size s
    turns each clique C into s shifted copies {(u_j, (l+j) mod s)}.
    Requires canonical order so that b_1 is minimal.
    """
    if not spec.canonical_order:
        raise ValueError("clique partition needs canonical factor order")
    b1 = spec.factors[0].b
    cliques = [
        [(c,) for c in range(m * b1, (m + 1) * b1)] for m in range(spec.factors[0].a)
    ]
    for f in spec.factors[1:]:
        s = f.size
        cliques = [
            [u + ((shift + j) % s,) for j, u in enumerate(c)]
            for c in cliques
            for shift in range(s)
        ]
    return CliquePartition(
        spec, tuple(tuple(spec.index(u) for u in c) for c in cliques)
    )


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
