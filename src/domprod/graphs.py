"""Graph families: balanced complete multipartite factors, their direct
products, and unitary Cayley graphs.

Vertices are always indices 0..n-1.  Adjacency is stored as one dense
bit-vector (a Python int) per vertex, which is the representation the
solvers consume.  Each family has one source of rows, spec_rows for
products and ucg_rows for X_n: the builders take every row from it,
Descriptor.rows only the rows asked for.  A vertex of a product is
numbered row-major in the spec's factor order: ProductSpec.coords(v)
gives its tuple of per-factor residues, and ProductSpec.index maps the
tuple back.  A vertex of a single factor or of a unitary Cayley graph
is its own residue.

The descriptor mini-language used by the CLI and the result cache lives
here too: `K[a,b]` for one factor, `x`-separated products, and `ucg:<n>`
for unitary Cayley graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Iterator

from .numbertheory import crt_solve, factorize, unit_mask

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

    adj[v] is an int whose bit u is set iff u ~ v.

    factors, when not None, is a promise that the graph is a direct
    product of balanced complete multipartite factors, given as one
    (stride, size, b) triple per factor: vertex v has residue
    (v // stride) % size in that factor, its partite set is that residue
    mod b, and u ~ v iff their partite sets differ in every factor.  So
    every product of per-factor permutations that map partite sets to
    partite sets is an automorphism, and so is every swap of two factors
    with equal (size, b); the exact solvers use that symmetry.  Every
    factor has b >= 2, so such a graph has n >= 2.  When exactly one
    factor has b = 2 the graph is connected and bipartite, with the
    partite sets of that factor as its sides, and the solvers' bipartite
    searches use the symmetry too.  Only the builders set it, whose
    output has this form by construction: product_spec_graph, its
    one-factor case multipartite (K[1,n] is K_n), and unitary_cayley.
    It is never inferred, and a false promise gives wrong answers.
    """

    __slots__ = ("n", "adj", "factors")

    def __init__(
        self,
        adj: list[int] | tuple[int, ...],
        *,
        factors: tuple[tuple[int, int, int], ...] | None = None,
    ):
        self.n = len(adj)
        self.adj = tuple(adj)
        self.factors = factors

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def closed(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={sum(a.bit_count() for a in self.adj) // 2})"


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

    def descriptor(self) -> str:
        """Descriptor text with the factors in stored order, e.g.
        K[1,2]xK[2,3]."""
        return "x".join(f"K[{f.a},{f.b}]" for f in self.factors)

    def index(self, coords) -> int:
        """Row-major vertex number of a tuple of per-factor residues, in
        stored factor order: the last factor varies fastest."""
        idx = 0
        for f, c in zip(self.factors, coords):
            idx = idx * f.size + c
        return idx

    def coords(self, v: int) -> tuple[int, ...]:
        """Per-factor residues of vertex v; the inverse of index."""
        out = [0] * len(self.factors)
        rest = v
        for i in range(len(out) - 1, -1, -1):
            rest, out[i] = divmod(rest, self.factors[i].size)
        if rest:  # v < 0 or v >= n_vertices
            raise ValueError(f"vertex {v} out of range for {self.descriptor()}")
        return tuple(out)


# ==== constructions ====


def _check_cap(n: int) -> None:
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceededError(f"graph with {n} vertices exceeds cap {DEFAULT_VERTEX_CAP}")


def multipartite(a: int, b: int) -> Graph:
    """K[a,b] on vertices 0..ab-1; x ~ y iff x and y differ mod b.

    The partite sets are the residue classes mod b.
    """
    return product_spec_graph(ProductSpec.from_pairs([(a, b)]))


def ucg_rows(n: int, residues) -> Iterator[int]:
    """The neighbourhood in X_n of each residue (taken mod n), as a mask
    whose bit u is set iff gcd(u - v, n) = 1.

    This is the one implementation of X_n adjacency: row v is the unit
    mask of numbertheory.unit_mask, built once, rotated by v.
    """
    full = (1 << n) - 1
    units = unit_mask(n)
    for v in residues:
        v %= n
        yield ((units << v) | (units >> (n - v))) & full


def unitary_cayley(n: int) -> Graph:
    """X_n on residues 0..n-1; x ~ y iff gcd(x - y, n) = 1.

    Dense adjacency costs n^2/8 bytes; to check a vertex set, use
    theorems.certifies, which builds only the rows of the set.
    """
    if n < 2:
        raise ValueError(f"unitary Cayley graph needs n >= 2, got {n}")
    _check_cap(n)
    # by CRT, residue x is the vertex (x mod p^e)_p of prod K[p^(e-1), p]
    factors = tuple((1, p**e, p) for p, e in factorize(n))
    return Graph(list(ucg_rows(n, range(n))), factors=factors)


def spec_rows(spec: ProductSpec, vertices) -> Iterator[int]:
    """The neighbourhood in the product of each vertex, numbered by
    spec.coords, as a mask: u ~ v iff in every factor their residues lie
    in different partite sets.

    This is the one implementation of product adjacency.  A row is
    everything outside the vertices that share a partite set with v in
    some factor; each such class mask is built when a row first needs
    it, so the rows of a few vertices cost a few masks.
    """
    full = (1 << spec.n_vertices) - 1
    layout = _layout(spec)

    @cache
    def same(i: int, r: int) -> int:
        # the vertices whose residue in factor i lies in partite set r,
        # i.e. is r mod b_i.  In row-major order, residue c of factor i
        # fills bits c*stride..(c+1)*stride-1 of every period-bit period.
        stride, size, b = layout[i]
        repeat = full // ((1 << stride * size) - 1)  # a 1 at the start of each period
        block = (1 << stride) - 1
        return repeat * sum(block << (c * stride) for c in range(r, size, b))

    for v in vertices:
        blocked = 0
        for i, (c, f) in enumerate(zip(spec.coords(v), spec.factors)):
            blocked |= same(i, c % f.b)
        yield full & ~blocked


def _layout(spec: ProductSpec) -> tuple[tuple[int, int, int], ...]:
    """Graph.factors of the product: (stride, size, b) per factor, where
    the stride is the product of the sizes of the factors after it."""
    out, stride = [], spec.n_vertices
    for f in spec.factors:
        stride //= f.size
        out.append((stride, f.size, f.b))
    return tuple(out)


def product_spec_graph(spec: ProductSpec) -> Graph:
    """Direct product of the spec's multipartite factors, with its rows
    from spec_rows and its vertices numbered by spec.coords."""
    n = spec.n_vertices
    _check_cap(n)
    return Graph(list(spec_rows(spec, range(n))), factors=_layout(spec))


def ucg_product_spec(n: int) -> ProductSpec:
    """The product form of X_n: one factor K[p^(e-1), p] per prime power.

    Factors come out sorted by p, which is already canonical order.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return ProductSpec.from_pairs(
        [(p ** (e - 1), p) for p, e in factorize(n)]
    )


def ucg_residues(n: int, vertices) -> tuple[int, ...]:
    """The residues mod n of vertices of ucg_product_spec(n), sorted.

    This is the one map from the product form to X_n: by the CRT, vertex
    v is the residue x with x = coords(v)[i] (mod p_i^e_i) for every
    factor, and it keeps adjacency, so a dominating, total dominating or
    minimal dominating set of the product form is one of X_n.
    """
    spec = ucg_product_spec(n)
    moduli = [f.size for f in spec.factors]
    return tuple(sorted(crt_solve(zip(spec.coords(v), moduli)).residue for v in vertices))


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
        """Vertex count; raises CapExceededError where build() would."""
        n = self.ucg_n if self.kind == "ucg" else self.spec.n_vertices
        _check_cap(n)
        return n

    def rows(self, vertices) -> Iterator[int]:
        """The neighbourhood masks of the given vertices in the numbering
        of build(), without building the graph."""
        n = self.n_vertices
        if self.kind == "ucg":
            return ucg_rows(n, vertices)
        return spec_rows(self.spec.canonical(), vertices)

    def build(self) -> Graph:
        """Materialize the graph; specs are built in canonical order so
        witnesses always refer to the canonical vertex numbering."""
        if self.kind == "ucg":
            return unitary_cayley(self.ucg_n)
        return product_spec_graph(self.spec.canonical())
