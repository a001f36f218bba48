"""End-to-end acceptance gate.

One test per headline capability, run at full size: closed forms against
exact search over whole ranges, the hard individual instances, the
machine-checked certificates, and the randomized property suites.
Budgets are deliberately generous: every instance here finishes orders of
magnitude below its ceiling on commodity hardware, so a failure means a
wrong answer, not a slow machine.
"""

import json
import random
import re
from pathlib import Path

from domprod import (
    Budget,
    NoTotalDominationError,
    ProductSpec,
    diagonal_set,
    factorize,
    gamma_bounds,
    gamma_exact,
    gamma_total_exact,
    gamma_upper_exact,
    is_dominating,
    is_minimal_dominating,
    jacobsthal,
    product_spec_graph,
    radical,
    t_plus_two_set,
    ucg_gamma_bounds,
    unitary_cayley,
    upper_bounds,
)
from domprod.cli import _enum_small_specs, main

from helpers import (
    clique_partition,
    gamma_oracle,
    minimality_by_deletion,
    random_graph,
    random_spec,
    shrink_to_minimal,
)

# large enough that no instance below ever hits it
BIG = Budget(max_nodes=10**9, time_limit=3600.0)


def complete_spec(*bs):
    return ProductSpec.from_pairs([(1, b) for b in bs])


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def is_squarefree(n):
    return radical(n) == n


# criterion: the squarefree closed form matches the solver for every n <= 500


def test_squarefree_gamma_formula_full_range():
    checked = 0
    for n in range(2, 501):
        if not is_squarefree(n) or len(factorize(n)) > 3:
            continue
        report = ucg_gamma_bounds(n)  # eq. (7), the side solve trusts
        assert report.exact, n
        got = gamma_exact(unitary_cayley(n), BIG)
        assert got.optimal, n
        assert got.value == report.lo, n
        checked += 1
    assert checked > 300


# criterion: gamma(X_30) = 4 < 6 = g(30) with a verified witness


def test_x30_headline():
    got = gamma_exact(unitary_cayley(30), BIG)
    assert got.optimal and got.value == 4
    assert len(got.witness) == 4
    assert is_dominating(unitary_cayley(30), got.witness)
    assert jacobsthal(30) == 6


# criterion: gamma = 8 for K_2xK_3xK_3xK_3 and K_2xK_3xK_5xK_7, refuting 7


def test_cube_corner_gamma_exactly_8():
    for bs in ((2, 3, 3, 3), (2, 3, 5, 7)):
        g = product_spec_graph(complete_spec(*bs))
        got = gamma_exact(g, BIG)
        assert got.optimal, bs  # lo = hi = 8: branch and bound excluded 7-sets
        assert got.lo == got.hi == got.value == 8, bs
        assert is_dominating(g, got.witness) and len(got.witness) == 8


# criterion: gamma(X_n) = g(n) for every non-squarefree n <= 200, omega <= 3


def test_nonsquarefree_gamma_equals_jacobsthal():
    checked = 0
    for n in range(2, 201):
        if is_squarefree(n) or len(factorize(n)) > 3:
            continue
        got = gamma_exact(unitary_cayley(n), BIG)
        assert got.optimal and got.value == jacobsthal(n), n
        checked += 1
    assert checked > 50


# criterion: upper domination exact values, including the 27-vertex search


def test_upper_domination_exact_values():
    for n in range(2, 21, 2):
        got = gamma_upper_exact(unitary_cayley(n), BIG)
        assert got.optimal and got.value == n // 2, n
    got = gamma_upper_exact(product_spec_graph(complete_spec(3, 3)), BIG)
    assert got.optimal and got.value == 3
    got = gamma_upper_exact(product_spec_graph(complete_spec(3, 3, 3)), BIG)
    assert got.optimal and got.value == 9


# criterion: gamma_t(X_n) = g(n) for all n <= 100; report any counterexample


def test_total_domination_equals_jacobsthal():
    counterexamples = []
    for n in range(2, 101):
        if len(factorize(n)) > 3:
            continue
        got = gamma_total_exact(unitary_cayley(n), BIG)
        assert got.optimal, n
        if got.value != jacobsthal(n):
            counterexamples.append((n, got.value, jacobsthal(n)))
    assert counterexamples == []


# criterion: witness thm6 --j 6 certifies a 10-set beating the coprime gap


def test_witness_thm6_certificate(capsys):
    code, recs = run_cli(capsys, "witness", "thm6", "--j", "6")
    assert code == 0
    (rec,) = recs
    assert rec["n"] == 969969
    assert rec["size"] == len(rec["D"]) == 10
    assert rec["verified"] is True  # full gcd adjacency check over Z_969969
    assert rec["run_length"] == 10 and rec["g_lower"] == 11
    assert rec["g_lower"] > rec["size"]


# criterion: witness prop1 certifies 30 and 210 as members of M


def test_witness_prop1_certificates(capsys):
    code, recs = run_cli(capsys, "witness", "prop1", "--family", "1", "--p1", "3", "--p2", "5")
    assert code == 0
    (rec,) = recs
    assert rec["n"] == 30 and rec["verified"] is True
    assert rec["size"] == 4 < rec["g_lower"] <= jacobsthal(30) == 6

    code, recs = run_cli(capsys, "witness", "prop1", "--family", "2", "--p1", "5", "--p2", "7")
    assert code == 0
    (rec,) = recs
    assert rec["n"] == 210 and rec["verified"] is True
    assert rec["size"] == 8 < rec["g_lower"] == jacobsthal(210) == 10


# criterion: randomized property suites at full advertised volume


def test_property_suites():
    rng = random.Random(20260823)

    def norm_total(fn, g):
        try:
            return fn(g).value
        except NoTotalDominationError:
            return None

    # solver vs oracle: 200 random graphs on at most 14 vertices
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 14))
        assert gamma_exact(g).value == gamma_oracle(g, "gamma").value
        assert norm_total(gamma_total_exact, g) == norm_total(
            lambda h: gamma_oracle(h, "gamma_total"), g
        )
        assert gamma_upper_exact(g).value == gamma_oracle(g, "upper").value

    # solver vs oracle: every product spec with at most 16 vertices
    specs = [ProductSpec.from_pairs(pairs) for pairs in _enum_small_specs(16, 4)]
    assert len(specs) >= 50
    for spec in specs:
        g = product_spec_graph(spec)
        assert gamma_exact(g).value == gamma_oracle(g, "gamma").value
        assert norm_total(gamma_total_exact, g) == norm_total(
            lambda h: gamma_oracle(h, "gamma_total"), g
        )
        got = gamma_upper_exact(g)
        assert got.value == gamma_oracle(g, "upper").value

    # Ore criterion vs deletion-based minimality: 500 random pairs
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 10))
        d = tuple(v for v in range(g.n) if rng.random() < 0.5)
        assert is_minimal_dominating(g, d) == minimality_by_deletion(g, d)

    # chain gamma <= gamma_t <= g(n), and bound reports contain the truth
    for n in range(2, 101):
        g = unitary_cayley(n)
        gam = gamma_exact(g, BIG)
        tot = gamma_total_exact(g, BIG)
        assert gam.optimal and tot.optimal
        assert gam.value <= tot.value <= jacobsthal(n), n
        rep = ucg_gamma_bounds(n)
        assert rep.lo <= gam.value <= rep.hi, n

    for _ in range(20):
        spec = random_spec(rng, 60, max_t=3)
        rep = gamma_bounds(spec)
        value = gamma_exact(product_spec_graph(spec), BIG).value
        assert rep.lo <= value <= rep.hi, spec.descriptor()

    for _ in range(12):
        spec = random_spec(rng, 30, max_t=3)
        rep = upper_bounds(spec)
        got = gamma_upper_exact(product_spec_graph(spec), BIG)
        assert rep.lo <= got.value <= rep.hi, spec.descriptor()

    # constructions verify under randomized hypothesis-satisfying parameters
    done = 0
    while done < 10:
        t, m = rng.randint(3, 4), rng.randint(0, 1)
        b1 = rng.randint(2, 6)
        if t + m >= b1 * (m + 1):
            continue
        b2 = rng.randint(max(b1, t + m + 1), t + m + 3)
        rest = sorted(rng.randint(b2, b2 + 2) for _ in range(t - 2))
        spec = complete_spec(b1, b2, *rest)
        if spec.n_vertices > 800:
            continue
        assert diagonal_set(spec, m).verified
        done += 1
    done = 0
    while done < 6:
        b3 = rng.randint(5, 6)
        b2 = rng.randint(4, b3)
        b4 = rng.randint(b3, b3 + 1)
        bs = sorted([4, b2, b3, b4])
        if bs[0] != 4 or bs[2] < 5:
            continue
        spec = complete_spec(*bs)
        if spec.n_vertices > 900:
            continue
        assert t_plus_two_set(spec).verified
        done += 1

    # clique partitions on random specs up to 500 vertices
    for _ in range(25):
        spec = random_spec(rng, 500, max_t=4)
        part = clique_partition(spec)
        part.validate(product_spec_graph(spec))
        b1 = spec.factors[0].b
        assert len(part.cliques) == spec.n_vertices // b1
        assert all(len(c) == b1 for c in part.cliques)

    # reduction identity: doubling a K_2 factor doubles gamma
    inner = gamma_exact(product_spec_graph(complete_spec(2, 3, 5)), BIG)
    outer = gamma_exact(product_spec_graph(complete_spec(2, 2, 3, 5)), BIG)
    assert outer.value == 2 * inner.value == 8

    # packing inequality b_1*lonely + 2*social <= n on minimal sets
    checked = 0
    for _ in range(40):
        spec = random_spec(rng, 36, max_t=3)
        g = product_spec_graph(spec)
        d = shrink_to_minimal(g, range(g.n))
        dm = sum(1 << v for v in d)
        lonely = sum(1 for v in d if g.adj[v] & dm == 0)
        b1 = spec.factors[0].b
        assert b1 * lonely + 2 * (len(d) - lonely) <= g.n, spec.descriptor()
        checked += 1
    assert checked == 40


# criterion: the README's library examples run against the package


def test_readme_python_examples_run():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
