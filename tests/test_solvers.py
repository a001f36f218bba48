import random
import time
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_

import pytest

from domprod import (
    Budget,
    Descriptor,
    NoTotalDominationError,
    ProductSpec,
    factorize,
    gamma_exact,
    gamma_total_exact,
    gamma_upper_exact,
    is_dominating,
    is_minimal_dominating,
    is_total_dominating,
    product_spec_graph,
    unitary_cayley,
)
from domprod import solvers
from domprod.cli import _enum_small_specs
from domprod.graphs import Graph, iter_bits
from domprod.solvers import (
    _bipartite_gamma_refuter,
    _CoverInstance,
    _exchange,
    _greedy_cover,
    _greedy_independent,
    _halves,
    _join,
    _later_mates,
    _lex_generators,
    _max_cover_atleast,
    _SearchState,
    _stabilizer,
    _unaddable,
    bipartition,
)

from helpers import (
    ORACLE_CAP,
    OracleCapError,
    disjoint_union,
    gamma_oracle,
    generating_involutions,
    minimality_by_deletion,
    multipartite,
    orbit_key,
    random_bipartite_graph,
    random_graph,
    shrink_to_minimal,
    two_coloring,
)


# ==== CHECKERS ====


def test_is_dominating_basics():
    g = multipartite(1, 4)
    assert is_dominating(g, (0,))
    assert not is_dominating(g, ())
    path = Graph([0b010, 0b101, 0b010])
    assert is_dominating(path, (1,))
    assert not is_dominating(path, (0,))
    assert is_total_dominating(path, (1, 0))
    assert not is_total_dominating(path, (1,))  # 1 itself has no neighbor in D


def test_checkers_reject_out_of_range():
    g = multipartite(1, 3)
    with pytest.raises(ValueError):
        is_dominating(g, (3,))


def test_minimal_dominating_with_lonely_members():
    # star K_{1,3}: center 0; every member of both sets is lonely
    g = Graph([0b1110, 0b0001, 0b0001, 0b0001])
    assert is_minimal_dominating(g, (0,))
    assert is_minimal_dominating(g, (1, 2, 3))
    assert not is_minimal_dominating(g, (1, 2))  # not dominating
    assert not is_minimal_dominating(g, (0, 1))  # 1 has no private neighbor


def test_minimal_dominating_with_social_members():
    # P4 0-1-2-3: the social members 1 and 2 keep private neighbors 0
    # and 3; adding either end takes its neighbour's away
    p4 = Graph([0b0010, 0b0101, 0b1010, 0b0100])
    assert is_minimal_dominating(p4, (1, 2))
    assert not is_minimal_dominating(p4, (0, 1, 2))
    assert not is_minimal_dominating(p4, (1, 2, 3))
    assert is_minimal_dominating(p4, (0, 3)) and is_minimal_dominating(p4, (0, 2))


def test_minimal_dominating_rejects_redundant_member():
    # K4: in any set of two, each member dominates alone
    g = multipartite(1, 4)
    assert is_minimal_dominating(g, (0,))
    assert not is_minimal_dominating(g, (0, 1))
    assert not is_minimal_dominating(g, range(4))


def test_minimality_matches_deletion_rule_500_pairs():
    # random sets, and independent ones: a seeded greedy maximal
    # independent set (dominating, every member lonely) and a random
    # subset of it, which may not dominate, so a checker that calls an
    # independent set minimal without the domination test fails
    rng, pick = random.Random(41), random.Random(43)
    undominated = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        d = tuple(v for v in range(n) if rng.random() < 0.45)
        assert is_minimal_dominating(g, d) == minimality_by_deletion(g, d)
        independent = 0
        for v in pick.sample(range(n), n):
            if not g.adj[v] & independent:
                independent |= 1 << v
        for sub in (independent, independent & pick.getrandbits(n)):
            d = tuple(iter_bits(sub))
            assert is_minimal_dominating(g, d) == minimality_by_deletion(g, d), (g.adj, d)
            undominated += not is_dominating(g, d)
    assert undominated > 100


# ==== BIPARTITION ====


def _cycle(n):
    return Graph([(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)])


def test_bipartition_fixed_cases():
    c4, c5, k1 = _cycle(4), _cycle(5), Graph([0])
    assert bipartition(c4) == (0b0101, 0b1010)
    assert bipartition(c5) is None
    assert bipartition(disjoint_union(c4, c5)) is None
    assert bipartition(disjoint_union(c5, c4)) is None
    # isolated vertices sit on side 0; each component starts at its
    # smallest vertex on side 0
    g = disjoint_union(disjoint_union(k1, c4), disjoint_union(k1, k1))
    assert bipartition(g) == (0b1101011, 0b0010100)


def test_bipartition_matches_reference_coloring():
    rng = random.Random(97)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 16)
        side = [rng.random() < 0.5 for _ in range(n)]
        p = rng.uniform(0.05, 0.5)
        odd = rng.random() < 0.3  # allow edges inside a side
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if (side[u] != side[v] or odd) and rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        g = Graph(adj)
        want = two_coloring(g)
        assert bipartition(g) == want
        outcomes.add((want is None, any(a == 0 for a in adj)))
    assert len(outcomes) == 4  # bipartite or not, with or without isolated


def test_halves_are_the_two_one_sided_covers():
    # None exactly on an odd cycle; else side B covered by side A's rows,
    # then A by B's, carrying the factors exactly when one factor has
    # b = 2, and then x -> x + stride maps side A onto side B, which is
    # what gamma_total_exact's mirror relies on
    rng = random.Random(113)
    graphs = [random_graph(rng, rng.randint(1, 14)) for _ in range(100)]
    graphs += [random_bipartite_graph(rng, rng.randint(2, 14)) for _ in range(100)]
    graphs += _orbit_graphs(48)
    odd = split = mirrored = 0
    for g in graphs:
        halves = _halves(g)
        if two_coloring(g) is None:
            assert halves is None, g.adj
            odd += 1
            continue
        a, b = bipartition(g)
        assert [(h.universe, h.allowed, h.covers) for h in halves] == [
            (b, a, g.adj), (a, b, g.adj)], g.adj
        split += 1
        one = g.factors is not None and sum(f[2] == 2 for f in g.factors) == 1
        assert all(h.factors is (g.factors if one else None) for h in halves), g.factors
        if one:
            (stride, _, _), = [f for f in g.factors if f[2] == 2]
            assert {v + stride for v in iter_bits(a)} == set(iter_bits(b)), g.factors
            mirrored += 1
    assert odd > 200 and split > 300 and mirrored > 100


# ==== ORACLE ====


def test_oracle_small_known_values():
    assert gamma_oracle(multipartite(1, 5), "gamma").value == 1
    assert gamma_oracle(multipartite(1, 5), "gamma_total").value == 2
    assert gamma_oracle(multipartite(1, 5), "upper").value == 1
    c4 = unitary_cayley(4)
    assert gamma_oracle(c4, "gamma").value == 2
    assert gamma_oracle(c4, "upper").value == 2


def test_oracle_cap_enforced():
    with pytest.raises(OracleCapError):
        gamma_oracle(unitary_cayley(30), "gamma")
    with pytest.raises(OracleCapError):
        gamma_oracle(multipartite(1, 17), "upper")


def test_oracle_total_rejects_isolated():
    g = Graph([0b010, 0b001, 0b000])
    with pytest.raises(NoTotalDominationError):
        gamma_oracle(g, "gamma_total")
    with pytest.raises(NoTotalDominationError):
        gamma_total_exact(g)


# ==== SOLVER VS ORACLE ====


def test_gamma_matches_oracle_random():
    rng = random.Random(47)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 13))
        want = gamma_oracle(g, "gamma")
        got = gamma_exact(g)
        assert got.value == want.value
        assert got.optimal and got.lo == got.hi == got.value
        assert is_dominating(g, got.witness)


def test_gamma_total_matches_oracle_random():
    rng = random.Random(53)
    done = 0
    while done < 60:
        g = random_graph(rng, rng.randint(2, 13), rng.uniform(0.3, 0.8))
        if any(g.adj[v] == 0 for v in range(g.n)):
            continue
        want = gamma_oracle(g, "gamma_total")
        got = gamma_total_exact(g)
        assert got.value == want.value
        assert is_total_dominating(g, got.witness)
        done += 1


def test_gamma_total_bipartite_reduction():
    rng = random.Random(59)
    done = 0
    while done < 40:
        g = random_bipartite_graph(rng, rng.randint(4, 13))
        if any(g.adj[v] == 0 for v in range(g.n)):
            continue
        assert bipartition(g) is not None
        got = gamma_total_exact(g)
        assert got.method == "reduction"
        assert got.value == gamma_oracle(g, "gamma_total").value
        done += 1


def test_upper_matches_oracle_random():
    rng = random.Random(61)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 13))
        want = gamma_oracle(g, "upper")
        got = gamma_upper_exact(g)
        assert got.value == want.value
        assert is_minimal_dominating(g, got.witness)


def test_upper_matches_oracle_without_an_incumbent(monkeypatch):
    # From an empty incumbent every set is the search's own.  A later
    # member's private neighbour lies outside N[IN], not merely among the
    # undecided vertices: bounding by the undecided ones left undominated
    # gives 4 and 5 on the first two graphs, whose values are 5 and 6
    rows = [
        [31478, 27597, 13307, 27430, 645, 5837, 9511, 10039, 29902, 29887,
         11232, 25611, 25381, 24527, 15115],
        [12812, 12224, 5233, 16513, 14180, 148, 16406, 5418, 29330, 21779,
         10902, 29698, 2965, 19731, 11080],
    ]
    rng = random.Random(131)
    graphs = [Graph(adj) for adj in rows] + [
        random_graph(rng, rng.randint(13, 16)) for _ in range(6)
    ]
    monkeypatch.setattr(solvers, "_greedy_independent", lambda g: 0)
    values = []
    for g in graphs:
        got = gamma_upper_exact(g)
        want = gamma_oracle(g, "upper")
        assert got.optimal and got.value == want.value, g.adj
        assert is_minimal_dominating(g, got.witness), g.adj
        values.append(got.value)
    assert values[:2] == [5, 6]


def test_solver_matches_oracle_on_small_specs():
    # every graph here has factors, so each solver runs rooted at 0
    descs = [Descriptor("ucg", ucg_n=n) for n in range(2, 21)] + [
        Descriptor("spec", spec=ProductSpec.from_pairs(pairs))
        for pairs in _enum_small_specs(20, 4)
    ]
    checks = disconnected = 0
    for desc in descs:
        g = desc.build()
        assert g.factors is not None
        got = gamma_exact(g)
        assert got.optimal and got.value == gamma_oracle(g, "gamma").value, desc
        assert 0 in got.witness and is_dominating(g, got.witness)
        got = gamma_total_exact(g)
        assert got.optimal and got.value == gamma_oracle(g, "gamma_total").value, desc
        assert is_total_dominating(g, got.witness)
        # a guarded bipartite split is rooted at vertex 0 on side 0
        if got.method != "reduction" or _halves(g)[0].factors is not None:
            assert 0 in got.witness, desc
        if sum(b == 2 for _, _, b in g.factors) >= 2:
            # two b = 2 factors make the product disconnected, so the
            # guard refuses it and both bipartite searches run unrooted
            assert got.method == "reduction" and _halves(g)[0].factors is None, desc
            reach, frontier = 0, 1
            while frontier:
                reach |= frontier
                nxt = 0
                for v in iter_bits(frontier):
                    nxt |= g.adj[v]
                frontier = nxt & ~reach
            assert reach != g.full_mask(), desc
            disconnected += 1
        checks += 2
        if g.n <= ORACLE_CAP["upper"]:
            got = gamma_upper_exact(g)
            assert got.optimal and got.value == gamma_oracle(g, "upper").value, desc
            assert 0 in got.witness and is_minimal_dominating(g, got.witness)
            checks += 1
    assert len(descs) == 101 and checks == 275 and disconnected >= 5


def test_root_fixing_cuts_the_search():
    # searches that do not fix vertex 0 need over 130,000 and 490,000 nodes
    got = gamma_total_exact(unitary_cayley(165))
    assert got.optimal and got.value == 5 and got.nodes < 10_000
    k3 = product_spec_graph(ProductSpec.from_pairs([(1, 3)] * 3))
    got = gamma_upper_exact(k3)
    assert got.optimal and got.value == 9 and got.nodes < 200_000


def _partite_bijection(size, b, links):
    """A bijection from the residues 0..size-1 of a K[size/b, b] factor
    onto those of an equal factor that maps partite sets onto partite
    sets and u to v for each (u, v) in links, or None if there is none."""
    image, sets = {}, {}
    for u, v in links:
        if image.setdefault(u, v) != v or sets.setdefault(u % b, v % b) != v % b:
            return None
    if len(set(image.values())) < len(image) or len(set(sets.values())) < len(sets):
        return None
    spare = [s for s in range(b) if s not in sets.values()]
    for s in range(b):
        if s not in sets:
            sets[s] = spare.pop()
    perm = [None] * size
    for s in range(b):
        free = [r for r in range(sets[s], size, b) if r not in image.values()]
        for r in range(s, size, b):
            perm[r] = image[r] if r in image else free.pop()
    return perm


def _residues(g):
    return [tuple(v // stride % size for stride, size, _ in g.factors)
            for v in range(g.n)]


def _automorphism(g, residues, vertex, fixed, u, v):
    """(sigma, image): a permutation sigma of equal factors and the
    vertex map of an element with that sigma and one partite-preserving
    residue bijection per factor, which fixes every vertex of `fixed` and
    maps u to v; None when no sigma admits such bijections."""
    t = len(g.factors)
    for sigma in permutations(range(t)):
        if any(g.factors[i][1:] != g.factors[sigma[i]][1:] for i in range(t)):
            continue
        perms = []
        for i, (_, size, b) in enumerate(g.factors):
            j = sigma[i]
            links = [(residues[x][i], residues[x][j]) for x in fixed]
            links.append((residues[u][i], residues[v][j]))
            perms.append(_partite_bijection(size, b, links))
        if None in perms:
            continue
        image = []
        for x in range(g.n):
            out = [0] * t
            for i, perm in enumerate(perms):
                out[sigma[i]] = perm[residues[x][i]]
            image.append(vertex[tuple(out)])
        return sigma, image
    return None


def test_orbit_key_is_sound():
    # equal keys must mean one orbit of the pointwise stabilizer of
    # `fixed`: build the automorphism explicitly and check it
    graphs = _orbit_graphs(36)
    rng = random.Random(101)
    pairs_checked = swapped = 0
    for g in graphs:
        residues = _residues(g)
        vertex = {r: v for v, r in enumerate(residues)}
        assert len(vertex) == g.n
        for _ in range(4):
            fixed = rng.sample(range(g.n), rng.randint(0, min(3, g.n)))
            key = orbit_key(g.factors, fixed)
            if key is None:  # a trivial stabilizer: nothing to check
                continue
            u = rng.randrange(g.n)
            v = rng.choice([v for v in range(g.n) if key(v) == key(u)])
            found = _automorphism(g, residues, vertex, fixed, u, v)
            assert found is not None, (g, fixed, u, v)
            perm, sigma = found
            assert sigma[u] == v
            assert all(sigma[x] == x for x in fixed), (g, fixed, u, v)
            for x in range(g.n):
                image = sum(1 << sigma[y] for y in iter_bits(g.adj[x]))
                assert g.adj[sigma[x]] == image, (g, fixed, u, v)
            pairs_checked += u != v
            swapped += perm != tuple(range(len(perm)))
    assert pairs_checked > 500 and swapped > 0


def _orbit_graphs(max_vertices):
    return [unitary_cayley(n) for n in range(2, 61)] + [multipartite(1, 5)] + [
        product_spec_graph(ProductSpec.from_pairs(pairs))
        for pairs in _enum_small_specs(max_vertices, 4)
    ]


def test_upper_later_mates_are_images_under_the_prefix_stabilizer():
    # the rule gamma_upper_exact applies: each later mate w of idx is the
    # image of idx under an automorphism fixing 0..idx-1 pointwise; build
    # that permutation explicitly and check it on 0..idx for every mate,
    # and on every adj row for the first mate of each graph
    mates_checked = 0
    for g in _orbit_graphs(36):
        residues = _residues(g)
        vertex = {r: v for v, r in enumerate(residues)}
        whole = True
        for idx in range(1, g.n):
            for w in iter_bits(_later_mates(g, idx)):
                assert w > idx
                found = _automorphism(g, residues, vertex, range(idx), idx, w)
                assert found is not None, (g, idx, w)
                image = found[1]
                assert image[idx] == w
                assert all(image[x] == x for x in range(idx)), (g, idx, w)
                if whole:
                    for x in range(g.n):
                        row = sum(1 << image[y] for y in iter_bits(g.adj[x]))
                        assert g.adj[image[x]] == row, (g, idx, w)
                    whole = False
                mates_checked += 1
    assert mates_checked == 27470


def test_lex_generators_are_automorphisms():
    # each generator is a set of disjoint transpositions (j, w), j < w,
    # listed by ascending j, whose vertex map carries every adj row onto
    # the row of the image; together they reach every vertex from 0
    gens_checked = 0
    for g in _orbit_graphs(36):
        gens = _lex_generators(g.factors, g.n)
        reach = 1
        for pairs in gens:
            assert pairs and all(j < w for j, w in pairs)
            assert [j for j, _ in pairs] == sorted(j for j, _ in pairs)
            image = list(range(g.n))
            for j, w in pairs:
                assert image[j] == j and image[w] == w, (g, pairs)
                image[j], image[w] = w, j
            for x in range(g.n):
                row = sum(1 << image[y] for y in iter_bits(g.adj[x]))
                assert g.adj[image[x]] == row, (g, pairs)
            gens_checked += 1
        while True:
            grown = reach
            for pairs in gens:
                for j, w in pairs:
                    if (grown >> j ^ grown >> w) & 1:
                        grown |= 1 << j | 1 << w
            if grown == reach:
                break
            reach = grown
        assert reach == g.full_mask(), g
    assert gens_checked > 1_000
    # the products of one partite swap over several factors are listed
    # too: on K3^3, the swap of partite sets 0 and 1 in its last two
    # factors at once
    k3 = product_spec_graph(ProductSpec.from_pairs([(1, 3)] * 3))
    swap = [1, 0, 2]
    images = [v // 9 * 9 + swap[v // 3 % 3] * 3 + swap[v % 3] for v in range(27)]
    assert [(v, w) for v, w in enumerate(images) if v < w] in _lex_generators(k3.factors, 27)


def test_orbit_pruning_cuts_the_search():
    # searches rooted at vertex 0 with no orbit pruning need 35,133,
    # 3,601 and 131,581 nodes; without the factor swaps K3^3 needs
    # 62,870, and without the bipartite rules the other two need 21,881
    # and 64,687.  Without the addable filter and its count bound, Gamma
    # needs 32,901 nodes on K3^3, 237,663 on K3xK3xK4 and 113,501 on
    # X_63, and X_99 is unfinished after 2,000,000.  Without the
    # lex-leader test it needs 4,818 on K3^3 and 16,763 on K3xK3xK4,
    # and with it 995 and 2,512.  The private-neighbour room bound takes
    # those to 313 and 468, and X_63 from 54 nodes to 6; going straight
    # to the next undecided vertex takes K3^3 to 287, and the products of
    # one partite swap over several factors to 229
    got = gamma_exact(unitary_cayley(483))
    assert got.optimal and got.value == 4 and got.nodes < 1_000
    got = gamma_total_exact(unitary_cayley(165))
    assert got.optimal and got.value == 5 and got.nodes < 100
    k3 = product_spec_graph(ProductSpec.from_pairs([(1, 3)] * 3))
    got = gamma_upper_exact(k3)
    assert got.optimal and got.value == 9 and got.nodes < 400
    k334 = product_spec_graph(ProductSpec.from_pairs([(1, 3), (1, 3), (1, 4)]))
    got = gamma_upper_exact(k334)
    assert got.optimal and got.value == 12 and got.nodes < 600
    got = gamma_upper_exact(unitary_cayley(63))
    assert got.optimal and got.value == 21 and got.nodes < 10
    got = gamma_upper_exact(unitary_cayley(99))
    assert got.optimal and got.value == 33
    g = product_spec_graph(ProductSpec.from_pairs([(1, 2), (1, 3), (1, 5), (1, 7)]))
    got = gamma_exact(g)
    assert got.optimal and got.value == 8 and got.nodes < 1_000
    got = gamma_total_exact(unitary_cayley(210))
    assert got.optimal and got.value == 10 and got.nodes < 1_000


def test_node_counts_are_pinned():
    # exact counts, so a change that moves one fails here, not only in
    # CI's benchmark step; the first four sum to 291, the pinned
    # search_nodes of perfbench's search-hard workload.  The four after
    # them take the bipartite paths: the gamma refuter with and without
    # the factor symmetry, and the gamma_t split, mirrored and in two parts.
    # The last two are gamma searches whose exchanged incumbents skip
    # probes: 29 and 56 nodes from the plain greedy cover
    cases = [
        (gamma_upper_exact, "K[1,3]xK[1,3]xK[1,3]", 9, 229, is_minimal_dominating),
        (gamma_exact, "ucg:483", 4, 21, is_dominating),
        (gamma_exact, "K[1,2]xK[1,3]xK[1,5]xK[1,7]", 8, 29, is_dominating),
        (gamma_total_exact, "ucg:165", 5, 12, is_total_dominating),
        (gamma_exact, "ucg:1260", 10, 116, is_dominating),
        (gamma_total_exact, "ucg:1260", 10, 41, is_total_dominating),
        (gamma_exact, "K[1,2]xK[1,2]xK[1,2]xK[2,3]", 16, 11_017, is_dominating),
        (gamma_total_exact, "K[1,2]xK[1,2]xK[1,2]xK[2,3]", 16, 58, is_total_dominating),
        (gamma_upper_exact, "ucg:105", 35, 405, is_minimal_dominating),
        (gamma_upper_exact, "K[2,3]xK[1,3]xK[1,3]", 18, 1_301, is_minimal_dominating),
        (gamma_exact, "ucg:462", 8, 13, is_dominating),
        (gamma_exact, "K[1,2]xK[1,3]xK[1,4]xK[1,7]", 8, 8, is_dominating),
    ]
    for solver, desc, value, nodes, check in cases:
        g = Descriptor.parse(desc).build()
        got = solver(g, Budget(max_nodes=10**6, time_limit=None))
        assert (got.optimal, got.value, got.nodes) == (True, value, nodes), desc
        assert len(got.witness) == value and check(g, got.witness), desc


def test_upper_settles_k3_4():
    # the paper's conjecture gives n/b_1 = 27; at [27, 40] after 2,000,000
    # nodes before the private-neighbour room bound, 326,986 with it,
    # 302,751 once a popped frame goes straight to its next undecided
    # vertex, and 198,201 once the lex-leader test also checks the
    # products of one partite swap over several factors
    g = product_spec_graph(ProductSpec.from_pairs([(1, 3)] * 4))
    got = gamma_upper_exact(g, Budget(max_nodes=250_000, time_limit=None))
    assert got.optimal and got.value == 27 and got.nodes < 250_000
    assert is_minimal_dominating(g, got.witness)


def _partite_permutations(size, b):
    """Every permutation of the residues of K[size/b, b] that keeps
    partite sets together, by brute force over all permutations."""
    return [p for p in permutations(range(size))
            if all(p[r] % b == p[r % b] % b for r in range(size))]


def test_orbit_key_matches_exact_stabilizer_orbits():
    # The whole group: every permutation sigma of equal factors with every
    # choice of one partite-preserving bijection per factor.  An element
    # fixes a vertex iff each bijection maps the vertex's residue in
    # factor i to its residue in factor sigma[i], so the stabilizer of a
    # set is enumerated factor by factor, and so are its orbits.
    rng = random.Random(103)
    cases = swapped = 0
    small = [pairs for pairs in _enum_small_specs(36, 4) if all(a * b <= 6 for a, b in pairs)]
    # past the enumeration: three and four equal factors
    larger = [((1, 3),) * 4, ((1, 2),) + ((1, 3),) * 3, ((1, 2),) * 3 + ((1, 5),)]
    for pairs in small + larger:
        g = product_spec_graph(ProductSpec.from_pairs(pairs))
        t = len(g.factors)
        residues = _residues(g)
        vertex = {r: v for v, r in enumerate(residues)}
        group = [_partite_permutations(size, b) for _, size, b in g.factors]
        sigmas = [sigma for sigma in permutations(range(t))
                  if all(g.factors[i][1:] == g.factors[sigma[i]][1:] for i in range(t))]
        fixed_sets = [rng.sample(range(g.n), rng.randint(0, min(4, g.n)))
                      for _ in range(4)]
        fixed_sets += [range(rng.randrange(g.n)) for _ in range(2)]
        for sigma in sigmas[1:]:
            # vertices that the bare factor permutation sigma fixes
            still = [x for x in range(g.n)
                     if all(residues[x][sigma[i]] == residues[x][i] for i in range(t))]
            fixed_sets.append(rng.sample(still, rng.randint(1, min(3, len(still)))))
        for fixed in fixed_sets:
            orbit = [set() for _ in range(g.n)]
            for sigma in sigmas:
                maps = [[p for p in group[i]
                         if all(p[residues[x][i]] == residues[x][sigma[i]] for x in fixed)]
                        for i in range(t)]
                if not all(maps):
                    continue
                swapped += sigma != sigmas[0]
                for x in range(g.n):
                    reach = [None] * t
                    for i in range(t):
                        reach[sigma[i]] = {p[residues[x][i]] for p in maps[i]}
                    orbit[x].update(vertex[c] for c in product(*reach))
            key = orbit_key(g.factors, fixed)
            if key is None:
                assert all(orbit[x] == {x} for x in range(g.n)), (pairs, fixed)
            else:
                keys = [key(x) for x in range(g.n)]
                for x in range(g.n):
                    mates = {y for y in range(g.n) if keys[y] == keys[x]}
                    assert mates == orbit[x], (pairs, list(fixed), x)
            stabilizer = _stabilizer(g.factors, fixed)
            for x in range(g.n):
                got = {x} if stabilizer is None else set(iter_bits(stabilizer(x)))
                assert got == orbit[x], (pairs, list(fixed), x)
            cases += 1
    assert cases > 450 and swapped > 500
    # X_n has one factor per prime, so no two are equal
    for n in range(2, 241):
        shapes = [f[1:] for f in unitary_cayley(n).factors]
        assert len(set(shapes)) == len(shapes), n


def test_stabilizer_matches_the_key_oracle():
    # one stabilizer per fixed set, asked for every vertex as a search
    # node asks it for each refuted sibling: each mask is v's class under
    # tests/helpers' orbit_key, and the stabilizer is None exactly when
    # the key reports it trivial; the fixed sets are random samples and
    # prefixes 0..idx-1, as the searches fix them
    rng = random.Random(107)
    graphs = _orbit_graphs(36) + [
        product_spec_graph(ProductSpec.from_pairs(pairs))
        for pairs in [((1, 3),) * 4, ((1, 2),) + ((1, 3),) * 3,
                      ((1, 2),) * 3 + ((2, 3),), ((1, 2),) * 2 + ((2, 2), (1, 3))]
    ]
    masks = trivial = shared = 0
    for g in graphs:
        sizes = [f[1:] for f in g.factors]
        equal = len(set(sizes)) < len(sizes)
        fixed_sets = [rng.sample(range(g.n), rng.randint(0, min(5, g.n)))
                      for _ in range(4)] + [range(rng.randrange(g.n))]
        for fixed in fixed_sets:
            key = orbit_key(g.factors, fixed)
            stabilizer = _stabilizer(g.factors, fixed)
            if key is None:
                assert stabilizer is None, (g.factors, list(fixed))
                trivial += g.n  # one question per vertex, as masks counts
                continue
            keys = [key(w) for w in range(g.n)]
            for v in range(g.n):
                want = sum(1 << w for w in range(g.n) if keys[w] == keys[v])
                assert stabilizer(v) == want, (g.factors, list(fixed), v)
                masks += 1
                shared += equal
    assert masks > 5_000 and trivial > 500 and shared > 500


def test_gamma_on_k2_heavy_blowups_finishes():
    # K_2-heavy products give many candidates that cover a subset of what
    # a refuted sibling covered; without the rule that bans them, the
    # first took 9,155,435 nodes and the second was unfinished after
    # 2,000,000; now 11,017 and 30,672
    for desc in ["K[1,2]xK[1,2]xK[1,2]xK[2,3]", "K[1,2]xK[1,2]xK[2,2]xK[1,3]"]:
        g = Descriptor.parse(desc).build()
        got = gamma_exact(g)
        assert got.optimal and got.value == 16 and got.nodes < 100_000, desc
        assert is_dominating(g, got.witness), desc


def test_cover_dominance_matches_oracle_on_raw_graphs():
    # graphs without factors get no symmetry rule, but a probe still
    # bans a candidate that covers a subset of what a refuted sibling
    # covered; pendant vertices and sparse rows make such pairs common
    rng = random.Random(109)
    checked = 0
    for trial in range(120):
        n = rng.randint(6, 16)
        if trial % 3 == 0:
            g = random_bipartite_graph(rng, n, rng.uniform(0.2, 0.5))
        else:
            g = random_graph(rng, n, rng.uniform(0.1, 0.4))
        adj = list(g.adj)
        for _ in range(rng.randint(0, 3)):  # pendant vertices
            u = rng.randrange(len(adj))
            adj[u] |= 1 << len(adj)
            adj.append(1 << u)
        g = Graph(adj)
        if g.n > ORACLE_CAP["gamma"]:
            continue
        got = gamma_exact(g)
        assert got.optimal and got.value == gamma_oracle(g, "gamma").value, adj
        assert is_dominating(g, got.witness), adj
        if all(adj):
            got = gamma_total_exact(g)
            assert got.optimal and got.value == gamma_oracle(g, "gamma_total").value, adj
            assert is_total_dominating(g, got.witness), adj
        checked += 1
    assert checked > 100


def test_orbit_pruned_max_cover_matches_unpruned():
    # under the guard the sides are the partite sets of the one b = 2
    # factor, and the search that bans orbits at every depth gives every
    # verdict of the search without symmetry, in no more nodes
    checked = 0
    for g in _orbit_graphs(36):
        halves = _halves(g)
        if halves is None or halves[0].factors is None:
            continue
        (stride, size, _), = [f for f in g.factors if f[2] == 2]
        side0 = sum(1 << v for v in range(g.n) if v // stride % size % 2 == 0)
        sides = bipartition(g)
        assert sides == (side0, g.full_mask() ^ side0)
        for inst in halves:
            bare = _CoverInstance(inst.universe, inst.covers, inst.allowed)
            for count in range(inst.allowed.bit_count() + 1):
                for target in range(inst.universe.bit_count() + 2):
                    plain = _SearchState(Budget(max_nodes=10**9, time_limit=None))
                    pruned = _SearchState(Budget(max_nodes=10**9, time_limit=None))
                    want = _max_cover_atleast(bare, count, target, plain)
                    got = _max_cover_atleast(inst, count, target, pruned)
                    assert got == want, (g, count, target)
                    assert pruned.nodes <= plain.nodes, (g, count, target)
                    checked += 1
    assert checked > 1_000


def _refute_side0_first(g, sides, k):
    """The refuter's answer for k, asking each split's side-0 question
    first, by plain max-coverage searches: no memo and no symmetry."""
    def reaches(mine, other, count, short):
        state = _SearchState(Budget(max_nodes=10**9, time_limit=None))
        return _max_cover_atleast(_CoverInstance(other, g.adj, mine), count,
                                  other.bit_count() - short, state)

    a, b = sides
    return not any(reaches(a, b, i, k - i) and reaches(b, a, k - i, i)
                   for i in range(k + 1))


def test_refuter_asking_fewer_sets_first_keeps_every_answer():
    # the refuter asks each split's question with fewer sets first, and
    # with the factor symmetry shares answers between the sides; asked for
    # every k, largest first as the probes ask, it must answer as the
    # plain search that asks side 0 first
    rng = random.Random(127)
    graphs = [random_bipartite_graph(rng, rng.randint(2, 14)) for _ in range(80)]
    graphs += [g for g in _orbit_graphs(48)
               if _halves(g) is not None and _halves(g)[0].factors is not None]
    refuted = inconclusive = 0
    for g in graphs:
        sides = bipartition(g)
        refute = _bipartite_gamma_refuter(
            _halves(g), _SearchState(Budget(max_nodes=10**9, time_limit=None)))
        for k in reversed(range(g.n + 1)):
            got = refute(k)
            assert got == _refute_side0_first(g, sides, k), (g.adj, k)
            refuted += got
            inconclusive += not got
    assert refuted > 600 and inconclusive > 4_000


def test_gamma_on_even_x_n_is_decided_by_the_refuter():
    # each is bipartite with one b = 2 factor, and the refuter proves
    # gamma > 9; asking each max-coverage question once and banning
    # orbits at every depth take 86, 178, 92 and 146 nodes, where the
    # root-only rule took 57,590, 101,734, 145,314 and 186,182, and
    # asking each split's question with fewer sets first 56, 148, 62
    # and 116
    for n in (630, 840, 990, 1260):
        got = gamma_exact(unitary_cayley(n), Budget(max_nodes=2_000))
        assert got.optimal and got.value == 10, n


def test_exchange_keeps_a_cover():
    # on the greedy cover and on the cover by every allowed position, the
    # exchange leaves a cover, no larger, that admits no drop and no
    # 2-for-1 move (checked here by brute force), and keeps the root
    def covered(inst, chosen):
        return reduce(or_, (inst.covers[v] for v in chosen), 0) & inst.universe

    rng = random.Random(311)
    instances = []
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 14))
        full = g.full_mask()
        instances.append(_CoverInstance(full, [g.closed(v) for v in range(g.n)], full))
        if all(g.adj):
            instances.append(_CoverInstance(full, g.adj, full))
    for pairs in _enum_small_specs(20, 4):
        g = product_spec_graph(ProductSpec.from_pairs(pairs))
        full = g.full_mask()
        instances.append(
            _CoverInstance(full, [g.closed(v) for v in range(g.n)], full, g.factors))
        instances.append(_CoverInstance(full, g.adj, full, g.factors))
        instances.extend(_halves(g) or ())
    rooted = 0
    for inst in instances:
        state = _SearchState(Budget(max_nodes=10**9, time_limit=None))
        for start in (_greedy_cover(inst, state), list(iter_bits(inst.allowed))):
            got = _exchange(inst, start, state)
            assert covered(inst, got) == inst.universe
            assert len(got) <= len(start) and len(set(got)) == len(got)
            assert all(inst.allowed >> v & 1 for v in got)
            root = inst.positions[0] if inst.factors is not None else -1
            rooted += root in got
            assert root < 0 or root in got
            movable = [v for v in got if v != root]
            for v in movable:
                assert covered(inst, [u for u in got if u != v]) != inst.universe
            for a, b in combinations(movable, 2):
                rest = covered(inst, [u for u in got if u not in (a, b)])
                assert all(rest | inst.covers[c] & inst.universe != inst.universe
                           for c in iter_bits(inst.allowed))
    assert len(instances) > 250 and rooted > 250
    # past the deadline the cover comes back as it was
    inst = instances[-1]
    expired = _SearchState(Budget(time_limit=0.0))
    time.sleep(0.001)
    everything = list(iter_bits(inst.allowed))
    assert _exchange(inst, everything, expired) == everything


def test_max_cover_excludes_without_recursing():
    # each set skipped is a loop step, not a frame: 1,500 equal sets
    # would go past Python's default limit of 1,000 frames
    state = _SearchState(Budget(max_nodes=10**9, time_limit=None))
    everything = (1 << 1500) - 1
    inst = _CoverInstance(everything, [0b11] * 1500, everything)
    assert not _max_cover_atleast(inst, 2, 3, state)


def test_upper_search_on_a_long_path_returns_under_a_budget():
    # the in/out search keeps its frames on a list, so its depth is not
    # bounded by Python's default limit of 1,000 frames
    n = 1500
    path = Graph([(1 << v - 1 if v else 0) | (1 << v + 1 if v < n - 1 else 0)
                  for v in range(n)])
    r = gamma_upper_exact(path, Budget(max_nodes=5000, time_limit=None))
    assert not r.optimal and r.nodes == 5001
    assert r.value == len(r.witness) >= 500 and is_minimal_dominating(path, r.witness)


def test_orbit_pruning_matches_unpruned_search(monkeypatch):
    # With every stabilizer reported trivial and no lex-leader generators
    # the searches keep their roots (and the bipartite rules keep theirs)
    # and prune nothing else: the orbit rules must find the same sets as
    # that search, in no more nodes.  Graph(g.adj) carries no factors, so
    # its search is unrooted, prunes no orbits and has no n/2 cap: same
    # values.
    descs = [Descriptor("ucg", ucg_n=n) for n in range(2, 121)] + [
        Descriptor("spec", spec=ProductSpec.from_pairs(pairs))
        for pairs in _enum_small_specs(40, 4)
    ]
    graphs = [desc.build() for desc in descs]

    def solve_all(g, upper_cap):
        out = [gamma_exact(g), gamma_total_exact(g)]
        if g.n <= upper_cap:
            out.append(gamma_upper_exact(g))
        return out

    pruned = [solve_all(g, 30) for g in graphs]
    with monkeypatch.context() as m:
        m.setattr(solvers, "_stabilizer", lambda factors, fixed: None)
        m.setattr(solvers, "_lex_generators", lambda factors, n: [])
        rooted = [solve_all(g, 30) for g in graphs]
    for desc, g, got_all, want_all in zip(descs, graphs, pruned, rooted):
        assert g.factors is not None
        for got, want in zip(got_all, want_all):
            assert got.optimal and want.optimal
            assert (got.value, got.witness, got.method) == (
                want.value, want.witness, want.method), desc
            assert got.nodes <= want.nodes, desc
        plain = solve_all(Graph(g.adj), 24)
        assert [r.value for r in plain] == [r.value for r in got_all[:len(plain)]], desc


def test_lex_leader_test_keeps_witnesses_on_larger_specs(monkeypatch):
    # K[2,3] has two residues per partite set, so the first spec uses the
    # within-set swaps; without the lex-leader test these need 134,485
    # and 35,562 nodes
    specs = ["K[2,3]xK[1,3]xK[1,3]", "K[1,3]xK[1,3]xK[1,5]"]
    graphs = [Descriptor.parse(d).build() for d in specs]
    got_all = [gamma_upper_exact(g) for g in graphs]
    with monkeypatch.context() as m:
        m.setattr(solvers, "_lex_generators", lambda factors, n: [])
        want_all = [gamma_upper_exact(g) for g in graphs]
    for desc, got, want in zip(specs, got_all, want_all):
        assert got.optimal and want.optimal
        assert (got.value, got.witness, got.method) == (
            want.value, want.witness, want.method), desc
        assert got.nodes <= want.nodes, desc
    assert [r.value for r in got_all] == [18, 15]


def test_partite_swap_products_only_cut_nodes(monkeypatch):
    # the lex-leader test against the products of one partite swap over
    # several factors must record the same sets as the test against
    # generating_involutions, the generators alone, in no more nodes.
    # From an empty incumbent the search records its sets itself, so a
    # product that pruned too much would change the witness
    descs = [Descriptor("spec", spec=ProductSpec.from_pairs(pairs))
             for pairs in _enum_small_specs(30, 4)]
    descs += [Descriptor.parse(d) for d in ("K[2,3]xK[1,3]xK[1,3]", "K[1,3]xK[1,3]xK[1,5]")]
    graphs = [desc.build() for desc in descs]
    monkeypatch.setattr(solvers, "_greedy_independent", lambda g: 0)
    got_all = [gamma_upper_exact(g) for g in graphs]
    monkeypatch.setattr(solvers, "_lex_generators", generating_involutions)
    want_all = [gamma_upper_exact(g) for g in graphs]
    fewer = set()
    for desc, g, got, want in zip(descs, graphs, got_all, want_all):
        assert got.optimal and want.optimal
        assert (got.value, got.witness, got.method) == (
            want.value, want.witness, want.method), desc
        assert got.nodes <= want.nodes, desc
        assert is_minimal_dominating(g, got.witness), desc
        if got.nodes < want.nodes:
            fewer.add(desc.canonical())
    assert "K[1,3]xK[1,3]xK[1,3]" in fewer


def test_upper_symmetry_rules_keep_witnesses_without_an_incumbent(monkeypatch):
    # On every graph of the parity tests above the greedy seed is already
    # a maximum set (n/b_1 of them), so Gamma records no set there, and a
    # rule that pruned too much would still return the seed.  Starting
    # from an empty incumbent the search must record its sets itself;
    # with and without the orbit-mate rule and the lex-leader test it
    # must record the same ones
    descs = [Descriptor("ucg", ucg_n=n) for n in range(2, 60)] + [
        Descriptor("spec", spec=ProductSpec.from_pairs(pairs))
        for pairs in _enum_small_specs(30, 4)
    ]
    graphs = [desc.build() for desc in descs]
    monkeypatch.setattr(solvers, "_greedy_independent", lambda g: 0)
    pruned = [gamma_upper_exact(g) for g in graphs]
    monkeypatch.setattr(solvers, "_stabilizer", lambda factors, fixed: None)
    monkeypatch.setattr(solvers, "_lex_generators", lambda factors, n: [])
    rooted = [gamma_upper_exact(g) for g in graphs]
    for desc, g, got, want in zip(descs, graphs, pruned, rooted):
        assert got.optimal and want.optimal
        assert (got.value, got.witness, got.method) == (
            want.value, want.witness, want.method), desc
        assert got.nodes <= want.nodes, desc
        assert is_minimal_dominating(g, got.witness), desc
    # 6,232 nodes against 22,558: the reference search has the
    # private-neighbour room bound too
    total = sum(r.nodes for r in pruned)
    assert total * 2 < sum(r.nodes for r in rooted) and total < 15_000


# ==== KNOWN VALUES ====


def test_known_domination_values():
    assert gamma_exact(unitary_cayley(30)).value == 4
    assert gamma_exact(product_spec_graph(ProductSpec.from_pairs([(1, 3)] * 3))).value == 4
    assert gamma_exact(multipartite(3, 2)).value == 2
    assert gamma_total_exact(unitary_cayley(30)).value == 6


def test_known_upper_values():
    k33 = product_spec_graph(ProductSpec.from_pairs([(1, 3), (1, 3)]))
    assert gamma_upper_exact(k33).value == 3
    x20 = unitary_cayley(20)
    r = gamma_upper_exact(x20)
    assert r.value == 10 and r.method == "reduction"
    # without the n/2 cap the search still gets there
    assert gamma_upper_exact(Graph(unitary_cayley(8).adj)).value == 4


def test_upper_reads_clique_size_from_factors():
    # b_1 is the least prime of n for X_n and the least b_i of a spec;
    # factors imply cliques of size b_1 >= 2, so the keyword adds nothing
    cases = [(unitary_cayley(n), factorize(n)[0][0]) for n in range(2, 61)] + [
        (product_spec_graph(ProductSpec.from_pairs(pairs)), min(b for _, b in pairs))
        for pairs in _enum_small_specs(30, 4)
    ]
    capped = 0
    for g, b1 in cases:
        got = gamma_upper_exact(g)
        want = gamma_upper_exact(g, clique_size=b1)
        assert got.optimal and want.optimal
        assert (got.value, got.witness, got.method, got.nodes) == (
            want.value, want.witness, want.method, want.nodes), (g, b1)
        if got.method != "reduction":
            continue
        # only the n/2 cap lets a greedy set end the search unsearched;
        # the cap comes from factors alone, so on a graph without them
        # the keyword changes nothing and the search runs
        bare = Graph(g.adj)
        plain = gamma_upper_exact(bare)
        assert plain.method == "branch-and-bound" and plain.nodes > 0
        keyed = gamma_upper_exact(bare, clique_size=b1)
        assert (keyed.value, keyed.witness, keyed.method, keyed.nodes) == (
            plain.value, plain.witness, plain.method, plain.nodes), (g, b1)
        capped += 1
    assert capped > 0
    assert gamma_upper_exact(Graph([0])).value == 1
    # a claimed clique size is not trusted: the path 1-0-4 plus the
    # isolated 2 and 3 has Gamma = 4 ({1, 2, 3, 4}), above n/2
    odd = Graph([18, 1, 0, 0, 1])
    got = gamma_upper_exact(odd, clique_size=2)
    assert got.optimal and got.value == 4 == gamma_oracle(odd, "upper").value


def _ore_holds(g, members):
    """Ore's criterion for each member of a set that need not dominate,
    by is_minimal_dominating: a new vertex z adjacent to every vertex the set leaves
    undominated makes the set plus z dominating, with z lonely, and
    touches no member and no vertex a member could have as a private
    neighbor."""
    seen = 0
    for v in members:
        seen |= g.closed(v)
    rest = g.full_mask() & ~seen
    z = g.n
    adj = [row | (rest >> v & 1) << z for v, row in enumerate(g.adj)] + [rest]
    return is_minimal_dominating(Graph(adj), [*members, z])


def _once_twice(adj, in_mask):
    """The vertices with at least one and at least two neighbours in in_mask."""
    once = twice = 0
    for d in iter_bits(in_mask):
        twice |= once & adj[d]
        once |= adj[d]
    return once, twice


def _full_unaddable(g, closed, in_mask, cand):
    return _unaddable(g.adj, closed, in_mask, cand, *_once_twice(g.adj, in_mask), in_mask)


def test_unaddable_matches_ore_by_brute_force():
    # the filter gamma_upper_exact applies: v cannot join IN exactly when
    # Ore's criterion fails on IN | {v}, and it then fails on every larger
    # IN too, so the filter may drop v from the whole subtree.  The
    # search grows IN one vertex at a time with _join, which walks only
    # the members whose pools the newcomer changed: its kills plus the
    # earlier ones must be the full recompute at every step, and its
    # once and twice those of the grown IN
    rng, order = random.Random(109), random.Random(113)
    cases = killed = supersets = joins = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(1, 11))
        closed = [g.closed(v) for v in range(g.n)]
        members = [v for v in range(g.n) if rng.random() < rng.uniform(0.1, 0.6)]
        in_mask = sum(1 << v for v in members)
        cand = g.full_mask() & ~in_mask
        kill = _full_unaddable(g, closed, in_mask, cand)
        assert kill & ~cand == 0
        for v in iter_bits(cand):
            broken = not _ore_holds(g, members + [v])
            assert broken == bool(kill >> v & 1), (g.adj, members, v)
            cases += 1
            if not broken:
                continue
            killed += 1
            others = [w for w in iter_bits(cand) if w != v]
            for pick in range(1 << len(others)):
                more = members + [w for i, w in enumerate(others) if pick >> i & 1]
                assert not _ore_holds(g, more + [v]), (g.adj, more, v)
                larger = in_mask | sum(1 << w for w in more)
                assert _full_unaddable(g, closed, larger, 1 << v) == 1 << v
                supersets += 1
        grown = once = twice = dropped = 0
        for v in order.sample(members, len(members)):
            if dropped >> v & 1:
                break  # v cannot join: the search never adds it
            rest = g.full_mask() & ~(grown | 1 << v | dropped)
            kill, once, twice = _join(g.adj, closed, grown, once, twice, v, rest)
            assert kill & ~rest == 0
            grown |= 1 << v
            dropped |= kill
            assert dropped == _full_unaddable(g, closed, grown, g.full_mask() & ~grown)
            assert (once, twice) == _once_twice(g.adj, grown), (g.adj, grown)
            joins += 1
    assert cases > 1_500 and killed > 900 and supersets > 30_000 and joins > 500


def test_upper_seed_is_minimal():
    rng = random.Random(67)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 14))
        r = gamma_upper_exact(g)
        assert is_minimal_dominating(g, r.witness)


# ==== BUDGETS ====


def test_budget_exhaustion_degrades_gracefully():
    g = product_spec_graph(ProductSpec.from_pairs([(1, 3), (1, 3), (1, 3)]))
    r = gamma_upper_exact(g, Budget(max_nodes=30, time_limit=60))
    assert not r.optimal
    assert r.lo <= 9 <= r.hi
    assert is_minimal_dominating(g, r.witness)

    r2 = gamma_exact(unitary_cayley(105), Budget(max_nodes=3, time_limit=60))
    assert not r2.optimal
    assert is_dominating(unitary_cayley(105), r2.witness)
    assert r2.lo <= r2.value == r2.hi


def test_budget_time_limit():
    # Gamma(K3^4) takes 198,201 nodes (some 3 s), so a 10 ms limit
    # always cuts it; K3^3 (229 nodes) can finish within it
    g = product_spec_graph(ProductSpec.from_pairs([(1, 3)] * 4))
    r = gamma_upper_exact(g, Budget(max_nodes=10**12, time_limit=0.01))
    assert not r.optimal


def test_time_limit_overshoot_is_bounded():
    # about a tenth of a millisecond per node, and still [5, 10] after
    # 60 s and some 900,000 nodes (its collapse X_210 has gamma_t = 10);
    # gamma(X_1155), the instance here before the refuted-sibling
    # dominance rule, now takes about 1 s in all
    r = gamma_exact(unitary_cayley(420), Budget(max_nodes=10**12, time_limit=1.0))
    assert not r.optimal
    assert r.elapsed < 1.0 + 0.5


def test_large_graph_setup_fits_the_time_limit():
    # a cover setup that transposed the adjacency bit by bit spent
    # seconds on this graph before its first search node
    g = unitary_cayley(3125)
    t0 = time.monotonic()
    r = gamma_exact(g, Budget(max_nodes=10**12, time_limit=1.0))
    assert time.monotonic() - t0 < 1.5
    assert r.optimal and r.value == 2


def test_greedy_incumbent_stops_at_the_time_limit():
    # the largest-gain greedy pass alone takes seconds on this graph; past
    # the deadline it finishes with each uncovered vertex's lowest candidate
    g = unitary_cayley(30030)
    t0 = time.monotonic()
    r = gamma_exact(g, Budget(max_nodes=10**12, time_limit=1.0))
    assert time.monotonic() - t0 < 2.0
    assert not r.optimal and r.nodes == 0
    assert is_dominating(g, r.witness) and r.value == len(r.witness) == r.hi


def test_upper_budget_cut_keeps_best_set_found():
    g = random_graph(random.Random(4), 18)
    greedy = _greedy_independent(g).bit_count()
    r = gamma_upper_exact(g, Budget(max_nodes=50, time_limit=None))
    assert not r.optimal
    assert r.value == len(r.witness) > greedy
    assert is_minimal_dominating(g, r.witness)


# ==== REPRODUCIBILITY ====


def test_plain_solves_repeat():
    # the searches have no randomness: the same graph gives the same
    # witness after the same number of nodes
    g = product_spec_graph(ProductSpec.from_pairs([(1, 2), (1, 3), (1, 5)]))
    h = product_spec_graph(ProductSpec.from_pairs([(1, 3), (1, 5)]))
    for solve in (lambda: gamma_exact(g), lambda: gamma_total_exact(g),
                  lambda: gamma_upper_exact(h)):
        a, b = solve(), solve()
        assert a.optimal and a.nodes > 0
        assert (a.witness, a.nodes) == (b.witness, b.nodes)


# ==== PACKING INEQUALITY ====


def test_packing_inequality_on_minimal_sets():
    rng = random.Random(83)
    done = 0
    while done < 40:
        pairs = [(rng.randint(1, 2), rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
        spec = ProductSpec.from_pairs(pairs).canonical()
        if spec.n_vertices > 36:
            continue
        g = product_spec_graph(spec)
        seed = [v for v in range(g.n) if rng.random() < 0.8] or [0]
        if not is_dominating(g, seed):
            seed = list(range(g.n))
        d = shrink_to_minimal(g, seed)
        dm = sum(1 << v for v in d)
        lonely = sum(1 for v in d if g.adj[v] & dm == 0)
        b1 = spec.factors[0].b
        assert b1 * lonely + 2 * (len(d) - lonely) <= g.n
        done += 1
