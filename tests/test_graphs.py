import random
import time
from math import gcd

import pytest

from domprod import (
    CapExceededError,
    Descriptor,
    DescriptorError,
    Factor,
    Graph,
    ProductSpec,
    factorize,
    multipartite,
    product_spec_graph,
    ucg_product_spec,
    unitary_cayley,
)
from domprod.cli import _enum_small_specs
from domprod.graphs import iter_bits, ucg_residues

from helpers import (
    clique_partition,
    disjoint_union,
    random_bipartite_graph,
    random_graph,
    random_spec,
)


# ==== BASIC GRAPH TYPE ====


def test_graph_accessors():
    g = multipartite(1, 4)
    assert g.n == 4
    assert g.adj == (0b1110, 0b1101, 0b1011, 0b0111)
    assert sum(a.bit_count() for a in g.adj) // 2 == 6
    assert list(iter_bits(g.adj[0])) == [1, 2, 3]
    assert g.closed(1) == g.full_mask()


def test_disjoint_union():
    g = disjoint_union(multipartite(1, 3), multipartite(1, 2))
    assert g.n == 5
    assert g.adj == (0b00110, 0b00101, 0b00011, 0b10000, 0b01000)


# ==== MULTIPARTITE AND PRODUCTS ====


def test_multipartite_structure():
    g = multipartite(2, 3)  # 6 vertices, classes {0,3},{1,4},{2,5}
    assert g.n == 6
    for v in range(6):
        assert g.adj[v] == 0b111111 & ~(1 << v | 1 << (v + 3) % 6)


def test_multipartite_k1b_is_complete():
    for b in (2, 3, 5):
        g = multipartite(1, b)
        assert sum(a.bit_count() for a in g.adj) // 2 == b * (b - 1) // 2


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor(0, 3)
    with pytest.raises(ValueError):
        Factor(1, 1)


def test_product_spec_graph_adjacency_rule():
    # u ~ v iff, in every factor, their residues lie in different
    # partite sets; stored and reversed factor orders both follow it
    for pairs in _enum_small_specs(40, 4):
        for order in (pairs, pairs[::-1]):
            spec = ProductSpec.from_pairs(order)
            g = product_spec_graph(spec)
            assert g.n == spec.n_vertices
            coords = [spec.coords(v) for v in range(g.n)]
            for u in range(g.n):
                # the whole row: symmetric, loop-free, no bit past n
                assert g.adj[u] == sum(
                    1 << v
                    for v in range(g.n)
                    if all(
                        (x - y) % f.b != 0
                        for x, y, f in zip(coords[u], coords[v], spec.factors)
                    )
                )


def test_product_spec_coords_index_roundtrip():
    spec = ProductSpec.from_pairs([(1, 2), (1, 3)])
    assert [spec.coords(v) for v in range(6)] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
    ]
    for v in (-1, 6):
        with pytest.raises(ValueError):
            spec.coords(v)
    rng = random.Random(37)
    for _ in range(50):
        spec = random_spec(rng, 500)
        for v in range(spec.n_vertices):
            c = spec.coords(v)
            assert all(0 <= x < f.size for x, f in zip(c, spec.factors))
            assert spec.index(c) == v


def test_large_product_build_matches_unitary_cayley():
    # 30,030 vertices: one pass takes well under a second, while a chain
    # of pairwise products with a relabel pass takes over 10 s
    start = time.perf_counter()
    h = product_spec_graph(ucg_product_spec(30030))
    assert time.perf_counter() - start < 3.0
    g = unitary_cayley(30030)
    spec = ucg_product_spec(30030)

    def crt(x):
        return spec.index(tuple(x % f.size for f in spec.factors))

    rng = random.Random(41)
    for _ in range(2000):
        u, v = rng.randrange(30030), rng.randrange(30030)
        assert g.adj[u] >> v & 1 == h.adj[crt(u)] >> crt(v) & 1
    phi = 1 * 2 * 4 * 6 * 10 * 12  # 30030 = 2 * 3 * 5 * 7 * 11 * 13
    assert h.adj[crt(1)].bit_count() == g.adj[1].bit_count() == phi


def test_transitive_flag_only_by_construction():
    # products of multipartite factors by construction: the solvers may
    # root at vertex 0 and prune orbits of the factor symmetry
    assert multipartite(2, 3).factors == ((1, 6, 3),)
    assert multipartite(1, 4).factors == ((1, 4, 4),)
    assert unitary_cayley(12).factors == ((1, 4, 2), (1, 3, 3))
    assert product_spec_graph(ProductSpec.from_pairs([(2, 2), (1, 3)])).factors == (
        (3, 4, 2), (1, 3, 3))
    assert Descriptor.parse("ucg:30").build().factors == ((1, 2, 2), (1, 3, 3), (1, 5, 5))
    assert Descriptor.parse("K[1,3]xK[2,2]").build().factors == ((3, 4, 2), (1, 3, 3))
    # raw adjacency and anything built from it is never assumed transitive
    k3 = multipartite(1, 3)
    assert Graph(k3.adj).factors is None
    assert disjoint_union(k3, k3).factors is None
    rng = random.Random(31)
    assert random_graph(rng, 6).factors is None
    assert random_bipartite_graph(rng, 6).factors is None
    with pytest.raises(TypeError):
        Graph(k3.adj, transitive=True)  # one promise, made through factors


def test_factors_give_each_vertex_its_coordinates():
    # residue (v // stride) % size is the spec coordinate of a product,
    # and x mod p^e for X_n
    for pairs in [[(2, 2), (1, 3)], [(1, 2), (3, 2), (1, 5)], [(4, 3)]]:
        spec = ProductSpec.from_pairs(pairs)
        g = product_spec_graph(spec)
        for v in range(g.n):
            assert tuple(v // s % m for s, m, _ in g.factors) == spec.coords(v)
        assert tuple(b for _, _, b in g.factors) == tuple(f.b for f in spec.factors)
    for n in (12, 30, 72, 105):
        g = unitary_cayley(n)
        for x in range(n):
            assert tuple(x // s % m for s, m, _ in g.factors) == tuple(
                x % p**e for p, e in factorize(n))


def test_spec_canonical_order():
    spec = ProductSpec.from_pairs([(1, 5), (2, 2), (1, 3)])
    canon = spec.canonical()
    assert canon == ProductSpec.from_pairs([(2, 2), (1, 3), (1, 5)])
    assert canon.canonical_order and not spec.canonical_order
    assert canon.n_vertices == 60
    assert canon.t == 3


def test_vertex_cap():
    with pytest.raises(CapExceededError):
        unitary_cayley(3_000_000)
    with pytest.raises(CapExceededError):
        product_spec_graph(ProductSpec.from_pairs([(1, 2)] * 21))


# ==== UNITARY CAYLEY GRAPHS ====


def test_unitary_cayley_regular_and_symmetric():
    for n in (2, 5, 12, 30, 31):
        g = unitary_cayley(n)
        phi = sum(1 for x in range(n) if gcd(x, n) == 1)
        for v in range(n):
            assert g.adj[v].bit_count() == phi
            assert all(g.adj[u] >> v & 1 for u in iter_bits(g.adj[v]))


def test_unitary_cayley_adjacency_rule():
    for n in range(2, 151):
        g = unitary_cayley(n)
        for u in range(n):
            # the whole row: symmetric, loop-free, no bit past n
            assert g.adj[u] == sum(1 << v for v in range(n) if gcd(u - v, n) == 1), (n, u)
    # prime powers: the unit mask must clear every multiple of p
    rng = random.Random(29)
    for n in (2048, 2187, 3125):
        g = unitary_cayley(n)
        for _ in range(200):
            u, v = rng.randrange(n), rng.randrange(n)
            assert g.adj[u] >> v & 1 == (gcd(u - v, n) == 1), (n, u, v)


def test_ucg_product_spec():
    assert ucg_product_spec(30) == ProductSpec.from_pairs([(1, 2), (1, 3), (1, 5)])
    assert ucg_product_spec(12) == ProductSpec.from_pairs([(2, 2), (1, 3)])
    assert ucg_product_spec(8) == ProductSpec.from_pairs([(4, 2)])
    assert ucg_product_spec(45) == ProductSpec.from_pairs([(3, 3), (1, 5)])


@pytest.mark.parametrize("n", [6, 8, 12, 30, 45, 60])
def test_crt_isomorphism_is_edge_exact(n):
    # x -> (x mod p^e)_p is an isomorphism of X_n onto its product form
    spec = ucg_product_spec(n)
    g = unitary_cayley(n)
    h = product_spec_graph(spec)
    assert spec.n_vertices == n
    crt = [spec.index(tuple(x % f.size for f in spec.factors)) for x in range(n)]
    assert sorted(crt) == list(range(n))
    for u in range(n):
        for v in range(n):
            assert g.adj[u] >> v & 1 == h.adj[crt[u]] >> crt[v] & 1


def test_ucg_residues_inverts_the_crt_map():
    # the one map from the product form to residues; sorted, like a witness
    for n in (2, 6, 8, 12, 30, 45, 60, 210, 1001):
        spec = ucg_product_spec(n)
        vertex = [spec.index(tuple(x % f.size for f in spec.factors)) for x in range(n)]
        assert all(ucg_residues(n, [vertex[x]]) == (x,) for x in range(n)), n
        assert ucg_residues(n, vertex[::-1]) == tuple(range(n))
    with pytest.raises(ValueError):
        ucg_residues(30, [30])


# ==== CLIQUE PARTITIONS ====


def test_clique_partition_examples():
    cp = clique_partition(ProductSpec.from_pairs([(1, 2)]))
    assert cp.cliques == ((0, 1),)
    cp = clique_partition(ProductSpec.from_pairs([(1, 3), (1, 3)]))
    assert len(cp.cliques) == 3
    cp.validate(product_spec_graph(ProductSpec.from_pairs([(1, 3), (1, 3)])))
    cp = clique_partition(ProductSpec.from_pairs([(2, 2), (1, 3)]))
    assert len(cp.cliques) == 6
    cp.validate(product_spec_graph(ProductSpec.from_pairs([(2, 2), (1, 3)])))


def test_clique_partition_random_specs():
    rng = random.Random(31)
    done = 0
    while done < 25:
        spec = random_spec(rng, 500)
        if spec.n_vertices > 500:
            continue
        cp = clique_partition(spec)
        cp.validate(product_spec_graph(spec))
        assert len(cp.cliques) == spec.n_vertices // spec.factors[0].b
        done += 1


# ==== DESCRIPTORS ====


def test_descriptor_parse_and_canonical():
    d = Descriptor.parse("K[1,3] x k[1,2]")
    assert d.kind == "spec"
    assert d.canonical() == "K[1,2]xK[1,3]"
    assert Descriptor.parse(d.canonical()).canonical() == d.canonical()
    u = Descriptor.parse("UCG:30")
    assert u.kind == "ucg" and u.ucg_n == 30
    assert u.canonical() == "ucg:30"


def test_descriptor_build():
    g = Descriptor.parse("K[1,2]xK[1,3]").build()
    assert g.n == 6
    assert Descriptor.parse("ucg:12").build().n == 12


def test_descriptor_errors():
    for bad in ("", "K[0,3]", "K[1,1]", "ucg:1", "K[1,2]+K[1,3]", "spam"):
        with pytest.raises(DescriptorError):
            Descriptor.parse(bad)


def test_iter_bits():
    assert list(iter_bits(0b101001)) == [0, 3, 5]
    assert list(iter_bits(0)) == []
