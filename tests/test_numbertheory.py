import random
import tracemalloc
from math import gcd

import pytest

from domprod import (
    Congruence,
    JacobsthalRun,
    crt_solve,
    factorize,
    is_prime,
    jacobsthal,
    jacobsthal_run,
    radical,
)
from domprod.graphs import iter_bits
from domprod.numbertheory import (
    FACTOR_INPUT_LIMIT,
    JACOBSTHAL_RADICAL_LIMIT,
    primes_from,
    unit_mask,
)

from helpers import windowed_jacobsthal


# ==== FACTORIZATION ====


def test_factorize_small_values():
    assert factorize(1) == []
    assert factorize(2) == [(2, 1)]
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(30) == [(2, 1), (3, 1), (5, 1)]
    assert factorize(969969) == [(3, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1)]


def test_factorize_recomposes():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10**6)
        total = 1
        for p, e in factorize(n):
            assert is_prime(p)
            total *= p**e
        assert total == n


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)
    with pytest.raises(ValueError):
        factorize(FACTOR_INPUT_LIMIT + 1)


def test_derived_functions():
    assert radical(1) == 1
    assert radical(60) == 30


def test_euler_phi_counts_units():
    # unit_mask, behind every row of X_n, holds the phi(n) units mod n
    for n in range(1, 200):
        assert list(iter_bits(unit_mask(n))) == [x for x in range(n) if gcd(x, n) == 1]


def test_primes_from():
    gen = primes_from(10)
    assert [next(gen) for _ in range(4)] == [11, 13, 17, 19]
    gen = primes_from(2)
    assert [next(gen) for _ in range(5)] == [2, 3, 5, 7, 11]


# ==== JACOBSTHAL ====


def test_jacobsthal_paper_values():
    assert jacobsthal(30) == 6
    assert jacobsthal(210) == 10
    assert jacobsthal(12) == 4


def test_jacobsthal_run_30():
    # 2,3,4,5,6 all share a factor with 30; window length 5
    assert jacobsthal_run(30) == JacobsthalRun(value=6, start=2, length=5)


def test_jacobsthal_edge_cases():
    assert jacobsthal(1) == 1
    assert jacobsthal(2) == 2
    assert jacobsthal_run(1) == JacobsthalRun(value=1, start=0, length=0)
    for p in (3, 5, 7, 11):
        assert jacobsthal(p) == 2


def test_unit_mask_of_a_prime_is_all_but_zero():
    # a prime's one multiple below it is 0, so no division is needed
    for p in (2, 3, 5, 7, 11, 101, 7919, 99_991):
        assert unit_mask(p) == ((1 << p) - 1) & ~1, p
        assert jacobsthal(p) == 2, p


def test_jacobsthal_matches_windowed_oracle():
    for n in range(1, 120):
        assert jacobsthal(n) == windowed_jacobsthal(n), n


def test_jacobsthal_radical_identity():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5000)
        assert jacobsthal(n) == jacobsthal(radical(n))


def test_jacobsthal_rejects_a_radical_over_the_limit():
    # radical 33,333,333,333: each mask would be 3.9 GiB, so the check
    # must come before any mask is built
    n = 99_999_999_999
    assert radical(n) > JACOBSTHAL_RADICAL_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="radical"):
            jacobsthal_run(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert jacobsthal(10**11) == jacobsthal(10)  # the limit is on the radical


def test_jacobsthal_run_is_certificate():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 3000)
        run = jacobsthal_run(n)
        assert run.value == run.length + 1
        for i in range(run.length):
            assert gcd(run.start + i, n) > 1


# ==== CRT ====


def test_crt_solve_known():
    assert crt_solve([(0, 2), (-1, 3), (-3, 5)]) == Congruence(2, 30)
    assert crt_solve([(1, 3)]) == Congruence(1, 3)


def test_crt_solve_random_roundtrip():
    rng = random.Random(17)
    moduli_pool = [2, 3, 5, 7, 11, 13]
    for _ in range(100):
        k = rng.randint(1, 4)
        moduli = rng.sample(moduli_pool, k)
        residues = [rng.randint(-20, 20) for _ in moduli]
        sol = crt_solve(list(zip(residues, moduli)))
        total = 1
        for m in moduli:
            total *= m
        assert sol.modulus == total
        assert 0 <= sol.residue < total
        for r, m in zip(residues, moduli):
            assert sol.residue % m == r % m


def test_crt_solve_rejects_shared_factors():
    with pytest.raises(ValueError):
        crt_solve([(1, 6), (2, 4)])
