import random
import time
from collections import Counter

import pytest

from domprod import (
    Budget,
    Descriptor,
    ProductSpec,
    certifies,
    conjecture_check,
    consecutive_residue_set,
    cube_corner_set,
    diagonal_set,
    factorize,
    gamma_bounds,
    gamma_exact,
    gamma_total_exact,
    gamma_upper_exact,
    is_dominating,
    is_minimal_dominating,
    is_total_dominating,
    jacobsthal,
    m_family_witness,
    mt_witness,
    partite_column_set,
    product_spec_graph,
    repeated_factor_lower,
    solve,
    t_plus_two_set,
    ucg_gamma_bounds,
    ucg_product_spec,
    unitary_cayley,
    upper_bounds,
)
from domprod import numbertheory, theorems
from domprod.cli import _enum_small_specs
from domprod.theorems import InternalConsistencyError, _compose, _constructions

from helpers import random_spec, shrink_to_minimal


def spec_of(*bs):
    return ProductSpec.from_pairs([(1, b) for b in bs])


# ==== PIECEWISE FORMULAS ====


def test_squarefree_gamma_value():
    # eq. (7): 1, 2, 3, 4 on a prime, 2p, pq (odd) and three primes
    for n, want in ((7, 1), (6, 2), (15, 3), (30, 4)):
        r = ucg_gamma_bounds(n)
        assert r.exact and r.lo == want, n
        assert ("squarefree-small-omega", f"lo {want}") in r.provenance, n


def test_gamma_bounds_complete_product():
    r = gamma_bounds(spec_of(2, 9))
    assert r.exact and r.lo == 2
    assert ("complete-product", "lo 2") in r.provenance
    assert ("complete-product", "hi 2") in r.provenance
    r = gamma_bounds(spec_of(3, 4, 5))
    assert r.exact and r.lo == 4
    assert ("complete-product", "lo 4") in r.provenance
    r = gamma_bounds(spec_of(6, 6, 6, 6, 6))
    assert r.exact and r.lo == 6
    assert ("complete-product", "hi 6") in r.provenance  # n_1 >= t+1
    r = gamma_bounds(spec_of(2, 3, 3, 3))  # n_1 < t+1: only the lower side
    assert ("complete-product", "lo 5") in r.provenance
    assert ("complete-product", "hi 5") not in r.provenance


def test_gamma_bounds_small_first_factor_lower():
    # t + 1 + floor((t-1)/(n_1-1)) for t >= 4 factors with n_2 >= 3
    for bs, want in (((2, 3, 3, 3), 8), ((3, 3, 3, 3), 6), ((5, 5, 5, 5), 5)):
        r = gamma_bounds(spec_of(*bs))
        assert ("small-first-factor-lower", f"lo {want}") in r.provenance, bs
        assert r.lo >= want
    for bs in ((3, 3, 3), (2, 2, 3, 3)):  # t < 4, n_2 < 3
        tags = {tag for tag, _ in gamma_bounds(spec_of(*bs)).provenance}
        assert "small-first-factor-lower" not in tags, bs


def test_repeated_factor_lower():
    assert repeated_factor_lower(12) == 4
    assert repeated_factor_lower(45) == 3
    assert repeated_factor_lower(4) == 2
    # the bound is the integer ceiling of p_1 * t / (p_1 - 1)
    for n, want in ((175, 3), (315, 5)):  # 5/2 and 9/2
        got = repeated_factor_lower(n)
        assert got == want and type(got) is int, n
    with pytest.raises(ValueError):
        repeated_factor_lower(30)  # squarefree
    with pytest.raises(ValueError):
        repeated_factor_lower(2 * 2 * 3 * 5 * 7)  # omega = 4


@pytest.mark.parametrize("formula", [repeated_factor_lower])
def test_ucg_formulas_need_n_at_least_2(formula):
    # X_1 has no product form: the check is ucg_product_spec's
    with pytest.raises(ValueError, match="n >= 2"):
        formula(1)


# ==== CONSTRUCTIONS ====


def test_consecutive_residue_set():
    r = consecutive_residue_set(30)
    assert r.vertex_set == (0, 1, 2, 3, 4, 5)
    assert r.kind == "total_dominating" and r.verified
    assert consecutive_residue_set(4).vertex_set == (0, 1)
    assert consecutive_residue_set(210).vertex_set == tuple(range(10))


def test_diagonal_set_valid_cases():
    r = diagonal_set(spec_of(4, 5, 7), 0)
    assert len(r.vertex_set) == 4 and r.verified
    r = diagonal_set(spec_of(4, 7, 7, 7), 1)
    assert len(r.vertex_set) == 6 and r.verified


def test_diagonal_set_rejections():
    with pytest.raises(ValueError, match=r"\(t\+m\)/\(m\+1\)"):
        diagonal_set(spec_of(2, 3, 3), 0)
    with pytest.raises(ValueError, match="t\\+m < n_2"):
        diagonal_set(spec_of(4, 4, 4), 1)
    with pytest.raises(ValueError):
        diagonal_set(spec_of(3, 4), 0)  # t < 3
    with pytest.raises(ValueError):
        diagonal_set(ProductSpec.from_pairs([(2, 4), (1, 5), (1, 7)]), 0)


def test_diagonal_set_random_sweep():
    rng = random.Random(89)
    done = 0
    while done < 15:
        t = rng.randint(3, 4)
        m = rng.randint(0, 2)
        b1 = rng.randint(2, 6)
        if t + m >= b1 * (m + 1):
            continue
        b2 = rng.randint(max(b1, t + m + 1), t + m + 3)
        rest = sorted(rng.randint(b2, b2 + 2) for _ in range(t - 2))
        bs = [b1, b2] + rest
        if spec_of(*bs).n_vertices > 800:
            continue
        r = diagonal_set(spec_of(*bs), m)
        assert r.verified and len(r.vertex_set) == t + m + 1
        done += 1


def test_t_plus_two_set():
    r = t_plus_two_set(spec_of(4, 4, 5, 5))
    assert len(r.vertex_set) == 6 and r.verified
    r = t_plus_two_set(spec_of(4, 5, 5, 5))
    assert len(r.vertex_set) == 6 and r.verified
    with pytest.raises(ValueError, match="n_3"):
        t_plus_two_set(spec_of(4, 4, 4, 4))
    with pytest.raises(ValueError, match="n_1"):
        t_plus_two_set(spec_of(3, 4, 5, 5))


def test_t_plus_two_random_sweep():
    rng = random.Random(97)
    done = 0
    while done < 8:
        t = 4
        b3 = rng.randint(t + 1, t + 2)
        b2 = rng.randint(3, b3)
        b4 = rng.randint(b3, b3 + 1)
        bs = sorted([t, b2, b3, b4])
        if bs[0] != t or bs[2] < t + 1 or spec_of(*bs).n_vertices > 900:
            continue
        r = t_plus_two_set(spec_of(*bs))
        assert r.verified and len(r.vertex_set) == t + 2
        done += 1


def test_cube_corner_set():
    r = cube_corner_set(spec_of(2, 3, 3, 3))
    assert len(r.vertex_set) == 8 and r.verified
    r = cube_corner_set(spec_of(2, 3, 5, 7))
    assert len(r.vertex_set) == 8 and r.verified
    with pytest.raises(ValueError, match="n_1"):
        cube_corner_set(spec_of(3, 3, 3, 3))
    with pytest.raises(ValueError):
        cube_corner_set(spec_of(2, 3, 3))  # t != 4


def test_partite_column_set():
    r = partite_column_set(ProductSpec.from_pairs([(1, 3), (1, 3)]))
    assert len(r.vertex_set) == 3 and r.kind == "minimal_dominating" and r.verified
    assert partite_column_set(ProductSpec.from_pairs([(1, 2)])).vertex_set == (0,)
    r = partite_column_set(ProductSpec.from_pairs([(2, 2), (1, 3)]))
    assert len(r.vertex_set) == 6 and r.verified


def test_partite_column_is_partite_set_0_of_the_first_factor():
    for pairs in _enum_small_specs(60, 4):
        spec = ProductSpec.from_pairs(pairs)
        b1 = spec.factors[0].b
        want = tuple(v for v in range(spec.n_vertices) if spec.coords(v)[0] % b1 == 0)
        assert partite_column_set(spec).vertex_set == want, pairs


# ==== BOUND COMPOSITION ====


def test_compose_conflict_raises():
    with pytest.raises(InternalConsistencyError):
        _compose("gamma", [(5, "a")], [(4, "b")])


def test_k2_reduction():
    def tags(pairs):
        return {tag for tag, _ in gamma_bounds(ProductSpec.from_pairs(pairs)).provenance}

    # K_2 x K_2 x K_3 reduces to twice K_2 x K_3
    outer = gamma_bounds(ProductSpec.from_pairs([(1, 2), (1, 2), (1, 3)]))
    inner = gamma_bounds(ProductSpec.from_pairs([(1, 2), (1, 3)]))
    assert "k2-factor-reduction" in tags([(1, 2), (1, 2), (1, 3)])
    assert outer.exact and inner.exact and outer.lo == 2 * inner.lo
    # an all-K_2 product has nothing left over
    r = gamma_bounds(ProductSpec.from_pairs([(1, 2), (1, 2)]))
    assert r.exact and r.lo == 2 and "k2-factor-reduction" in tags([(1, 2), (1, 2)])
    # K[2,2] has two partite sets too, but it is not a K_2
    assert "k2-factor-reduction" not in tags([(2, 2), (1, 3)])


def test_gamma_bounds_k2_powers():
    for s, want in ((1, 1), (2, 2), (3, 4), (4, 8), (5, 16)):
        r = gamma_bounds(ProductSpec.from_pairs([(1, 2)] * s))
        assert r.exact and r.lo == want, s


def test_gamma_bounds_reduction_identity():
    # gamma(K_2 x K_2 x K_3 x K_5) = 2 * gamma(K_2 x K_3 x K_5) = 8
    outer = gamma_bounds(spec_of(2, 2, 3, 5))
    inner = gamma_bounds(spec_of(2, 3, 5))
    assert outer.exact and inner.exact
    assert outer.lo == 2 * inner.lo == 8
    g_outer = product_spec_graph(spec_of(2, 2, 3, 5))
    g_inner = product_spec_graph(spec_of(2, 3, 5))
    assert gamma_exact(g_outer).value == 2 * gamma_exact(g_inner).value == 8


def test_gamma_bounds_known_exacts():
    assert gamma_bounds(spec_of(7, 7, 7, 7, 7)).lo == 6
    assert gamma_bounds(spec_of(7, 7, 7, 7, 7)).exact
    assert gamma_bounds(spec_of(2, 3, 3, 3)).lo == 8  # cube corner
    assert gamma_bounds(spec_of(4, 5, 6, 7)).lo == 6  # t+2 characterization
    assert gamma_bounds(spec_of(4, 5, 6, 7)).exact
    r = gamma_bounds(ProductSpec.from_pairs([(2, 3), (1, 4), (3, 5)]))
    assert r.lo >= 4  # collapse to K_3 x K_4 x K_5


def test_gamma_bounds_contain_exact_value():
    rng = random.Random(101)
    done = 0
    while done < 20:
        spec = random_spec(rng, 60, max_t=3)
        r = gamma_bounds(spec)
        got = gamma_exact(product_spec_graph(spec))
        assert got.optimal
        assert r.lo <= got.value <= r.hi, spec.descriptor()
        done += 1


def test_ucg_gamma_bounds():
    for n, want in ((30, 4), (12, 4), (60, 6), (210, 8), (45, 3), (7, 1), (4, 2)):
        r = ucg_gamma_bounds(n)
        assert r.exact and r.lo == want, n


def test_ucg_gamma_bounds_contain_exact_value():
    for n in range(2, 80):
        r = ucg_gamma_bounds(n)
        got = gamma_exact(unitary_cayley(n))
        assert got.optimal and r.lo <= got.value <= r.hi, n


def test_upper_bounds_exact_cases():
    r = upper_bounds(ProductSpec.from_pairs([(1, 2), (1, 5), (1, 7)]))
    assert r.exact and r.lo == 35
    r = upper_bounds(ProductSpec.from_pairs([(1, 3)] * 3))
    assert r.exact and r.lo == 9
    r = upper_bounds(ProductSpec.from_pairs([(1, 3), (1, 3), (1, 31), (1, 37)]))
    assert r.exact and r.lo == 3441
    r = upper_bounds(ProductSpec.from_pairs([(3, 4)]))
    assert r.exact and r.lo == 3


def test_upper_bounds_open_case_flags_conjecture():
    r = upper_bounds(ProductSpec.from_pairs([(1, 5)] * 4))
    assert not r.exact
    assert r.conjectured == 125
    assert r.lo == 125 and r.hi == 312
    tags = {tag for tag, _ in r.provenance}
    assert "clique-partition-half" in tags


def test_conjecture_check():
    c = conjecture_check(ProductSpec.from_pairs([(1, 3), (1, 3)]))
    assert c.conjectured == 3 and c.exact.value == 3 and c.agrees
    c = conjecture_check(ProductSpec.from_pairs([(1, 2), (1, 3)]))
    assert c.conjectured == 3 and c.agrees
    c = conjecture_check(
        ProductSpec.from_pairs([(1, 3)] * 3), Budget(max_nodes=20, time_limit=60)
    )
    assert c.agrees is None


# ==== THE THEOREM LAYER IN solve ====


def test_solve_matches_plain_search():
    # the shortcut is cross-checked, not assumed: on every instance solve
    # gives the plain search's value; a theorem witness passes its
    # checker on the built graph, and a search seeded with the proven
    # side finds the plain search's witness in no more nodes
    descs = [Descriptor("ucg", ucg_n=n) for n in range(2, 121)] + [
        Descriptor("spec", spec=ProductSpec.from_pairs(pairs))
        for pairs in _enum_small_specs(40, 4)
    ]
    theorem = Counter()
    checks = 0
    for desc in descs:
        g = desc.build()
        plain = {
            "gamma": (gamma_exact(g), is_dominating),
            "gamma_total": (gamma_total_exact(g), is_total_dominating),
        }
        if desc.kind == "ucg" or g.n <= 24:
            plain["upper"] = (gamma_upper_exact(g), is_minimal_dominating)
        for quantity, (want, checker) in plain.items():
            got = solve(desc, quantity)
            assert want.optimal and got.optimal, (desc, quantity)
            assert got.value == want.value == got.lo == got.hi, (desc, quantity)
            assert len(got.witness) == got.value and checker(g, got.witness)
            if got.method == "theorem":
                theorem[quantity] += 1
                assert got.nodes == 0 and got.provenance, (desc, quantity)
                assert 0 in got.witness  # like every search witness
            else:
                assert got.witness == want.witness and got.nodes <= want.nodes
                assert not got.provenance
            checks += 1
    # every spec with at most 24 vertices, and every X_n here, has an
    # exact upper report, met by the partite column
    assert len(descs) == 387 and checks == 2 * 387 + 118 + 119
    assert theorem == {"gamma": 95, "gamma_total": 64, "upper": 118 + 119}


def test_exact_floor_keeps_the_search_result():
    for desc in ("ucg:105", "ucg:165", "K[1,3]xK[1,6]xK[1,7]", "K[1,2]xK[1,3]xK[1,5]",
                 "K[2,2]xK[1,3]", "K[1,3]xK[1,3]"):
        g = Descriptor.parse(desc).build()
        for search in (gamma_exact, gamma_total_exact):
            want = search(g)
            got = search(g, floor=want.value)
            assert (got.value, got.witness, got.optimal) == (want.value, want.witness, True)
            assert got.nodes <= want.nodes


def test_solve_on_ucg_lifts_the_product_form_constructions():
    # X_148 (g = 4 = gamma) is decided by the run 0..3, which comes
    # first; X_210 by the cube corners of K2xK3xK5xK7 and X_105 by the
    # four corners of K3xK5xK7, carried to residues by the CRT
    got = solve("ucg:148", "gamma")
    assert got.method == "theorem" and got.value == 4 and got.nodes == 0
    assert got.witness == (0, 1, 2, 3)
    assert certifies(Descriptor.parse("ucg:148"), "gamma", got.witness)
    for n, tag, value in ((210, "cube-corner", 8), (105, "four-corner", 4)):
        got = solve(f"ucg:{n}", "gamma")
        assert got.method == "theorem" and got.value == value and got.nodes == 0
        assert got.provenance[-1] == (tag, f"hi {value}")
        assert certifies(Descriptor("ucg", ucg_n=n), "gamma", got.witness)
    # Gamma(X_45) = 15 is the partite column of K[3,3]xK5: the multiples of 3
    got = solve("ucg:45", "upper")
    assert got.method == "theorem" and got.value == 15 and got.optimal
    assert got.witness == tuple(range(0, 45, 3))
    # gamma_t(X_30) = 6 = g(30) is above gamma's lower side 4, so it is searched
    got = solve("ucg:30", "gamma_total")
    assert got.method == "reduction" and got.value == 6 and got.optimal


@pytest.mark.parametrize("descriptor, quantity, tag", [
    ("ucg:105", "gamma", "four-corner"),
    ("ucg:210", "gamma", "cube-corner"),
    ("ucg:105", "upper", "partite-column"),
])
def test_theorem_answer_on_x_n_is_checked_once(monkeypatch, descriptor, quantity, tag):
    # a product-form construction is numbered in residues and checked on
    # X_n alone, not first on its product form as well
    calls = []

    def counting(desc, *args):
        calls.append(desc.canonical())
        return certifies(desc, *args)

    monkeypatch.setattr(theorems, "certifies", counting)
    got = solve(descriptor, quantity)
    assert got.method == "theorem" and tag in dict(got.provenance)
    assert calls == [descriptor]


def test_lifted_constructions_certify_on_x_n():
    # every product-form construction that _constructions numbers in
    # residues must pass certifies on X_n itself, for every squarefree
    # n <= 2000 with at least three prime factors
    lifted = Counter()
    for n in range(2, 2001):
        fac = factorize(n)
        if len(fac) < 3 or any(e > 1 for _, e in fac):
            continue
        desc = Descriptor("ucg", ucg_n=n)
        for quantity in ("gamma", "gamma_total", "upper"):
            for tag, size, build in _constructions(desc, quantity):
                if tag == "consecutive-run":  # built on X_n, not its product form
                    continue
                try:
                    built = build()
                except ValueError:
                    continue
                dset = built.vertex_set
                assert built.descriptor == f"ucg:{n}" and built.verified, (n, tag)
                assert len(dset) == size and certifies(desc, quantity, dset), (n, tag)
                lifted[quantity, tag] += 1
    # 348 such n: each has a partite column, the 302 with three prime
    # factors have four corners, 42 of the 46 with four are even (cube
    # corners), and 194 have a diagonal
    assert lifted == {
        ("gamma", "cube-corner"): 42, ("gamma", "diagonal-total"): 194,
        ("gamma", "four-corner"): 302, ("gamma_total", "diagonal-total"): 194,
        ("upper", "partite-column"): 348,
    }


def test_solve_reports_open_intervals():
    # the proven upper side is the search's own n // 2 = 40 cap
    # and names it, as a cut gamma search names its floor
    got = solve("K[1,3]xK[1,3]xK[1,3]xK[1,3]", "upper", Budget(max_nodes=25))
    assert not got.optimal and got.method == "branch-and-bound"
    assert got.lo == got.value == 27 and got.hi == 40
    assert got.provenance == (("clique-partition-half", "hi 40"),)
    # a cut gamma search keeps the theorem floor as lo and names it
    got = solve("ucg:1155", "gamma", Budget(max_nodes=200))
    assert not got.optimal and got.method == "branch-and-bound"
    assert got.lo == ucg_gamma_bounds(1155).lo == 6 < got.hi
    assert got.provenance and all(c == "lo 6" for _, c in got.provenance)
    got = solve("ucg:30", "gamma_total")
    assert got.method == "reduction" and got.value == 6 and not got.provenance
    for quantity in ("gamma_t", "bogus"):
        with pytest.raises(ValueError, match="unknown quantity"):
            solve(Descriptor("ucg", ucg_n=30), quantity)


def test_solve_elapsed_covers_the_whole_call():
    # the report and the build of 15,625 vertices run before the search
    # does; elapsed counts them, as the time limit does
    start = time.monotonic()
    got = solve("x".join(["K[1,5]"] * 6), "gamma", Budget(max_nodes=1))
    wall = time.monotonic() - start
    assert not got.optimal and got.method == "branch-and-bound"
    assert wall >= got.elapsed >= wall - 0.01


def test_solve_rejects_a_search_below_the_proven_side(monkeypatch):
    import domprod.theorems as theorems

    # gamma(X_105) = 4, and the greedy cover alone is below 50
    monkeypatch.setattr(
        theorems, "ucg_gamma_bounds",
        lambda n: _compose("gamma", [(50, "wrong")], [(99, "wrong")]),
    )
    with pytest.raises(InternalConsistencyError):
        solve("ucg:105", "gamma")


# ==== IMPLICIT CHECKS ====


def test_implicit_checkers_match_graph_checkers():
    # certifies builds only the rows of the set (graphs.spec_rows or
    # ucg_rows); on every family and quantity it must agree with the
    # checkers on the built graph.  Random sets rarely dominate, so each
    # graph also gets a minimal dominating set, that set plus one more
    # vertex, and a maximal independent set
    rng = random.Random(103)
    checkers = {
        "gamma": is_dominating,
        "gamma_total": is_total_dominating,
        "upper": is_minimal_dominating,
    }
    descs = [Descriptor("ucg", ucg_n=n) for n in range(2, 81)]
    descs += [Descriptor("spec", spec=ProductSpec.from_pairs(pairs))
              for pairs in _enum_small_specs(40, 3)]
    held = Counter()
    for desc in descs:
        g = desc.build()
        n = g.n
        d = [v for v in range(n) if rng.random() < rng.uniform(0.05, 0.5)] or [0]
        seed = [v for v in range(n) if rng.random() < 0.7]
        if not is_dominating(g, seed):
            seed = range(n)
        minimal = list(shrink_to_minimal(g, seed))
        extra = rng.choice([v for v in range(n) if v not in minimal])
        independent = []
        for v in rng.sample(range(n), n):
            if not any(g.adj[v] >> u & 1 for u in independent):
                independent.append(v)
        # members may come in any order and repeat
        sets = [d, minimal, minimal + [extra], independent,
                d + rng.sample(d, len(d) // 2)]
        for e in sets:
            for quantity, check in checkers.items():
                got = certifies(desc, quantity, e)
                assert got == check(g, e), (desc.canonical(), quantity, e)
                held[quantity] += got
        with pytest.raises(ValueError):
            certifies(desc, "gamma", [n])
        with pytest.raises(ValueError):
            certifies(desc, "gamma", [-1])
    # each quantity is seen to hold, not only to fail
    assert min(held.values()) >= 100, held
    # the multiples of the least prime p | n dominate, yet none of them
    # has a neighbour in the set, so each must count itself
    for n in range(2, 81):
        column = list(range(0, n, factorize(n)[0][0]))
        desc = Descriptor("ucg", ucg_n=n)
        assert certifies(desc, "gamma", column) and certifies(desc, "upper", column)
        assert not certifies(desc, "gamma_total", column)


# ==== CERTIFICATES ====


def test_mt_witness_j6_frozen():
    w = mt_witness(6)
    assert w.n == 969969
    assert w.q == 7 and w.k == 4
    assert w.primes == (11, 13, 17, 19)
    assert w.D == (0, 1, 2, 3, 4, 5, 6, 7, 8, 646645)
    assert w.y == 646645
    assert w.run_length == 10 and w.g_lower == 11
    assert w.verified
    assert len(w.D) == w.q + 3 < w.g_lower


def test_mt_witness_small_j_share_parameters():
    for j in (1, 3, 6):
        assert mt_witness(j).q == 7


def test_mt_witness_j8():
    w = mt_witness(8)
    assert w.q == 13 and w.k == 8
    assert w.primes[0] == 17 and len(w.primes) == 8
    assert len(factorize(w.n)) == w.k + 2 >= 8
    assert not w.verified  # beyond the materialization cap
    assert len(w.D) == w.q + 3 < w.g_lower


def test_mt_witness_invariants():
    for j in (2, 5, 7):
        w = mt_witness(j)
        assert len(factorize(w.n)) >= j
        assert w.q % 3 == 1
        assert all(p >= w.q + 3 for p in w.primes)
        assert len(set(w.primes)) == w.k
    with pytest.raises(ValueError):
        mt_witness(0)


def test_m_family_witness_frozen():
    w = m_family_witness(1, 3, 5)
    assert w.n == 30 and w.x == 2 and w.run_length == 4
    assert w.dominating_set == (0, 16, 21, 25)
    assert w.g_lower == 5 and w.verified
    w = m_family_witness(2, 5, 7)
    assert w.n == 210 and w.run_length == 9
    assert len(w.dominating_set) == 8 and w.verified
    assert w.g_lower == 10
    assert jacobsthal(210) >= w.g_lower


def test_m_family_witness_more_parameters():
    w = m_family_witness(1, 7, 13)
    assert w.n == 182 and w.verified and len(w.dominating_set) == 4
    w = m_family_witness(2, 7, 11)
    assert w.n == 462 and w.verified and len(w.dominating_set) == 8


def test_m_family_witness_rejections():
    with pytest.raises(ValueError):
        m_family_witness(2, 3, 7)  # p1 < 5
    with pytest.raises(ValueError):
        m_family_witness(1, 5, 3)  # p1 >= p2
    with pytest.raises(ValueError):
        m_family_witness(1, 4, 7)  # not prime
    with pytest.raises(ValueError):
        m_family_witness(3, 5, 7)  # no such family


# ==== WITNESS STRUCTURE ====


def _columns_repeat_at_most_twice(spec, witness) -> bool:
    """No coordinate value appears more than twice among the witness
    vertices, per coordinate position: a structural property of minimum
    dominating sets of size t+2 in complete-graph products."""
    columns = zip(*(spec.coords(v) for v in witness))
    return all(max(Counter(column).values()) <= 2 for column in columns)


def test_column_multiplicity():
    spec = spec_of(4, 4, 5, 5)
    r = t_plus_two_set(spec)
    assert _columns_repeat_at_most_twice(spec, r.vertex_set)
    # triple-repeat in the first coordinate violates the property
    assert not _columns_repeat_at_most_twice(spec_of(2, 2, 2), (0, 1, 2))


def test_solver_witnesses_at_t_plus_two_have_small_columns():
    # minimum sets of size t+2 repeat no coordinate value more than twice;
    # minimality comes from the exact bound report, so a found t+2 witness
    # is minimum even without the solver's own refutation finishing
    budget = Budget(max_nodes=2000, time_limit=10.0)
    for bs in ((4, 4, 5, 5), (4, 5, 5, 5)):
        spec = spec_of(*bs)
        rep = gamma_bounds(spec)
        assert rep.exact and rep.lo == spec.t + 2
        got = gamma_exact(product_spec_graph(spec), budget)
        assert got.value == spec.t + 2
        assert _columns_repeat_at_most_twice(spec, got.witness)


def test_solve_works_out_g_n_once(monkeypatch):
    # a solve asks for g(n) in its bound report, its constructions and
    # its search floor; jacobsthal_run keeps its answers, so unit_mask,
    # the mask pass behind each g(n), runs once per solve
    calls = []
    unit_mask = numbertheory.unit_mask
    monkeypatch.setattr(numbertheory, "unit_mask", lambda n: calls.append(n) or unit_mask(n))
    for desc, quantity in [("ucg:105", "gamma_total"), ("ucg:483", "gamma"),
                           ("ucg:1999905", "gamma")]:
        numbertheory.jacobsthal_run.cache_clear()
        calls.clear()
        assert solve(desc, quantity).optimal, desc
        assert len(calls) == 1, (desc, quantity, calls)
