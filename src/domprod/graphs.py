"""Graph families: balanced complete multipartite factors, their direct
products, disjoint unions, and unitary Cayley graphs.

Vertices are always indices 0..n-1.  Adjacency is stored as one dense
bit-vector (a Python int) per vertex, which is the representation the
solvers consume.  Labels track the mathematical identity of a vertex: an
integer residue for single factors and unitary Cayley graphs, a tuple of
per-factor residues for products.

The descriptor mini-language used by the CLI and the result cache lives
here too: `K[a,b]` for one factor, `x`-separated products, and `ucg:<n>`
for unitary Cayley graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .numbertheory import factorize

DEFAULT_VERTEX_CAP = 2_000_000


class CapExceededError(ValueError):
    """A construction would exceed the configured vertex cap."""


class DescriptorError(ValueError):
    """A graph descriptor string failed to parse."""


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ==== core graph type ====


class Graph:
    """Immutable simple graph with dense bit-vector adjacency.

    adj[v] is an int whose bit u is set iff u ~ v.  Labels, when present,
    are pairwise distinct and positional.

    transitive is a promise that the graph is vertex-transitive, which
    lets the exact solvers assume vertex 0 is in an optimal set.  Only
    builders whose output is vertex-transitive by construction set it;
    it is never inferred, and a false promise gives wrong answers.
    """

    __slots__ = ("n", "adj", "labels", "transitive")

    def __init__(
        self, adj: list[int] | tuple[int, ...], labels=None, *, transitive: bool = False
    ):
        self.n = len(adj)
        self.adj = tuple(adj)
        self.labels = None if labels is None else tuple(labels)
        self.transitive = transitive
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("label list length must equal vertex count")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def validate(self) -> None:
        """Full invariant scan: symmetry, irreflexivity, distinct labels."""
        for v in range(self.n):
            if self.adj[v] >> v & 1:
                raise ValueError(f"loop at vertex {v}")
            if self.adj[v] >> self.n:
                raise ValueError(f"adjacency bits beyond vertex range at {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}->{u}")
        if self.labels is not None and len(set(self.labels)) != self.n:
            raise ValueError("labels not pairwise distinct")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


# ==== factors and product specs ====


@dataclass(frozen=True)
class Factor:
    """One balanced complete multipartite factor K[a,b]: b partite sets
    of size a, so K[1,b] is the complete graph K_b."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"partite-set size must be >= 1, got {self.a}")
        if self.b < 2:
            raise ValueError(f"need at least 2 partite sets, got {self.b}")

    @property
    def size(self) -> int:
        return self.a * self.b


@dataclass(frozen=True)
class ProductSpec:
    """Ordered factor list describing a direct product of K[a_i,b_i]."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a product spec needs at least one factor")

    @classmethod
    def from_pairs(cls, pairs) -> "ProductSpec":
        return cls(tuple(Factor(a, b) for a, b in pairs))

    @property
    def t(self) -> int:
        return len(self.factors)

    @property
    def n_vertices(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.size
        return out

    @property
    def canonical_order(self) -> bool:
        keys = [(f.b, f.a) for f in self.factors]
        return keys == sorted(keys)

    def canonical(self) -> "ProductSpec":
        return ProductSpec(tuple(sorted(self.factors, key=lambda f: (f.b, f.a))))

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((f.a, f.b) for f in self.factors)

    def descriptor(self) -> str:
        """Descriptor text with the factors in stored order, e.g.
        K[1,2]xK[2,3]."""
        return "x".join(f"K[{f.a},{f.b}]" for f in self.factors)

    @property
    def b1(self) -> int:
        return min(f.b for f in self.factors)


# ==== constructions ====


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(f"graph with {n} vertices exceeds cap {cap}")


def multipartite(a: int, b: int, *, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """K[a,b] on vertices 0..ab-1; x ~ y iff x and y differ mod b.

    The partite sets are the residue classes mod b.
    """
    f = Factor(a, b)  # validates a >= 1, b >= 2
    n = f.size
    _check_cap(n, cap)
    class_mask = [0] * b
    for v in range(n):
        class_mask[v % b] |= 1 << v
    full = (1 << n) - 1
    adj = [full & ~class_mask[v % b] for v in range(n)]
    return Graph(adj, labels=range(n), transitive=True)


def complete_graph(n: int, *, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """K_n; n = 1 gives the single vertex with no edges."""
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    _check_cap(n, cap)
    full = (1 << n) - 1
    return Graph([full ^ (1 << v) for v in range(n)], labels=range(n), transitive=True)


def direct_product(g: Graph, h: Graph, *, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Direct (tensor) product: (u1,u2) ~ (v1,v2) iff u1~v1 and u2~v2.

    Vertex order is row-major: index = u1 * |V(h)| + u2.  Labels are
    coordinate pairs.  A product of vertex-transitive graphs is
    vertex-transitive.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("direct product factors must be nonempty")
    n = g.n * h.n
    _check_cap(n, cap)
    adj = []
    for ug in range(g.n):
        # the h-row pattern repeats at each g-neighbor's block
        for uh in range(h.n):
            row = 0
            hrow = h.adj[uh]
            for vg in iter_bits(g.adj[ug]):
                row |= hrow << (vg * h.n)
            adj.append(row)
    glab = g.labels if g.labels is not None else tuple(range(g.n))
    hlab = h.labels if h.labels is not None else tuple(range(h.n))
    labels = [(glab[ug], hlab[uh]) for ug in range(g.n) for uh in range(h.n)]
    return Graph(adj, labels=labels, transitive=g.transitive and h.transitive)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; vertices of h are shifted by |V(g)|."""
    shift = g.n
    adj = list(g.adj) + [row << shift for row in h.adj]
    labels = None
    if g.labels is not None and h.labels is not None:
        labels = [(0, lab) for lab in g.labels] + [(1, lab) for lab in h.labels]
    return Graph(adj, labels=labels)


def unitary_cayley(n: int, *, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """X_n on residues 0..n-1; x ~ y iff gcd(x - y, n) = 1.

    Dense adjacency costs n^2/8 bytes; callers needing very large n
    should use implicit gcd adjacency instead of materializing.
    """
    if n < 2:
        raise ValueError(f"unitary Cayley graph needs n >= 2, got {n}")
    _check_cap(n, cap)
    full = (1 << n) - 1
    base = 0
    for d in range(1, n):
        if gcd(d, n) == 1:
            base |= 1 << d
    adj = []
    for v in range(n):
        rot = ((base << v) | (base >> (n - v))) & full if v else base
        adj.append(rot)
    return Graph(adj, labels=range(n), transitive=True)


def product_spec_graph(spec: ProductSpec, *, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Iterated direct product of the spec's multipartite factors.

    Labels are flat t-tuples of factor residues; vertex order is
    row-major in the given factor order.
    """
    _check_cap(spec.n_vertices, cap)
    graph = multipartite(spec.factors[0].a, spec.factors[0].b, cap=cap)
    for f in spec.factors[1:]:
        graph = direct_product(graph, multipartite(f.a, f.b, cap=cap), cap=cap)
    sizes = [f.size for f in spec.factors]
    labels = []
    for v in range(spec.n_vertices):
        digits = []
        rest = v
        for size in reversed(sizes):
            digits.append(rest % size)
            rest //= size
        labels.append(tuple(reversed(digits)))
    return Graph(graph.adj, labels=labels, transitive=graph.transitive)


def ucg_product_spec(n: int) -> ProductSpec:
    """The product form of X_n: one factor K[p^(e-1), p] per prime power.

    Factors come out sorted by p, which is already canonical order.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return ProductSpec.from_pairs(
        [(p ** (e - 1), p) for p, e in factorize(n)]
    )


# ==== CRT isomorphism ====


@dataclass(frozen=True)
class CrtIsomorphism:
    """The residue <-> coordinate bijection behind X_n = prod K[p^(e-1), p].

    to_tuple[x] is (x mod p_1^e_1, ..., x mod p_k^e_k); to_index[x] is the
    row-major vertex index of that tuple in product_spec_graph(spec).
    """

    n: int
    spec: ProductSpec
    to_tuple: tuple[tuple[int, ...], ...]
    to_index: tuple[int, ...]

    def index_of(self, residue: int) -> int:
        return self.to_index[residue % self.n]

    def tuple_of(self, residue: int) -> tuple[int, ...]:
        return self.to_tuple[residue % self.n]


def crt_isomorphism(n: int) -> CrtIsomorphism:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    spec = ucg_product_spec(n)
    moduli = [f.size for f in spec.factors]
    strides = []
    acc = 1
    for size in reversed(moduli):
        strides.append(acc)
        acc *= size
    strides.reverse()
    tuples = []
    indices = []
    for x in range(n):
        coords = tuple(x % m for m in moduli)
        tuples.append(coords)
        indices.append(sum(c * s for c, s in zip(coords, strides)))
    return CrtIsomorphism(n, spec, tuple(tuples), tuple(indices))


# ==== clique partition and K_2 reduction ====


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
    """Partition prod K[a_i,b_i] into n/b_1 cliques of size b_1.

    Built factor by factor: consecutive blocks of b_1 vertices partition
    the first factor; appending a factor of size s turns each clique C
    into s shifted copies {(u_j, (l+j) mod s)}.  Requires canonical order
    so that b_1 is minimal.
    """
    if not spec.canonical_order:
        raise ValueError("clique partition needs canonical factor order")
    b1 = spec.factors[0].b
    cliques: list[tuple[int, ...]] = [
        tuple(range(m * b1, (m + 1) * b1)) for m in range(spec.factors[0].a)
    ]
    for f in spec.factors[1:]:
        s = f.size
        cliques = [
            tuple(u * s + (shift + j) % s for j, u in enumerate(c))
            for c in cliques
            for shift in range(s)
        ]
    return CliquePartition(spec, tuple(cliques))


def k2_reduction(spec: ProductSpec) -> tuple[int, ProductSpec | None]:
    """Split off the K_2 factors: returns (s, rest).

    s counts factors equal to K[1,2]; rest is the spec of the remaining
    factors, or None when every factor is a K_2.  When s >= 1 the
    domination number satisfies gamma(spec) = 2^(s-1) * gamma(K_2 x rest).
    """
    k2 = Factor(1, 2)
    s = sum(1 for f in spec.factors if f == k2)
    rest = tuple(f for f in spec.factors if f != k2)
    if s == 0:
        return 0, spec
    if not rest:
        return s, None
    return s, ProductSpec(rest)


# ==== descriptor mini-language ====

_FACTOR_RE = re.compile(r"^[Kk]\[(\d+),(\d+)\]$")
_UCG_RE = re.compile(r"^ucg:(\d+)$", re.IGNORECASE)


@dataclass(frozen=True)
class Descriptor:
    """Parsed graph descriptor: either a product spec or ucg:<n>."""

    kind: str  # "spec" | "ucg"
    spec: ProductSpec | None = None
    ucg_n: int | None = None

    @staticmethod
    def parse(text: str) -> "Descriptor":
        compact = re.sub(r"\s+", "", text)
        if not compact:
            raise DescriptorError("empty descriptor")
        m = _UCG_RE.match(compact)
        if m:
            n = int(m.group(1))
            if n < 2:
                raise DescriptorError(f"ucg needs n >= 2, got {n}")
            return Descriptor("ucg", ucg_n=n)
        factors = []
        for token in re.split(r"[xX]", compact):
            fm = _FACTOR_RE.match(token)
            if not fm:
                raise DescriptorError(f"bad factor token {token!r} in {text!r}")
            try:
                factors.append(Factor(int(fm.group(1)), int(fm.group(2))))
            except ValueError as exc:
                raise DescriptorError(f"bad factor {token!r}: {exc}") from exc
        return Descriptor("spec", spec=ProductSpec(tuple(factors)))

    def canonical(self) -> str:
        """Bit-exact canonical rendering used as the cache key."""
        if self.kind == "ucg":
            return f"ucg:{self.ucg_n}"
        return self.spec.canonical().descriptor()

    @property
    def n_vertices(self) -> int:
        return self.ucg_n if self.kind == "ucg" else self.spec.n_vertices

    def build(self, *, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
        """Materialize the graph; specs are built in canonical order so
        witnesses always refer to the canonical vertex numbering."""
        if self.kind == "ucg":
            return unitary_cayley(self.ucg_n, cap=cap)
        return product_spec_graph(self.spec.canonical(), cap=cap)

    def clique_size(self) -> int:
        """Size b_1 of the cliques in the graph's clique partition.

        For ucg:n this is the smallest prime factor, via the CRT product
        form; the partition transfers through the isomorphism.
        """
        if self.kind == "ucg":
            return factorize(self.ucg_n)[0][0]
        return self.spec.canonical().factors[0].b
