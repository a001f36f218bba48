"""Independent answer checks for the benchmark.

Nothing here imports domprod: adjacency, domination tests, Jacobsthal's
function and the closed forms are re-implemented from their definitions,
so a defect in the package's own checkers cannot hide a wrong answer.

Adjacency follows the package's vertex numbering:
- ucg:n is Z/nZ, and x ~ y iff gcd(x - y, n) = 1;
- a product of K[a_i,b_i] numbers vertices row-major over the factors in
  the order given (last factor fastest), coordinate i lies in
  [0, a_i*b_i), and x ~ y iff every coordinate pair differs mod b_i.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations
from math import gcd, prod

_FACTOR_RE = re.compile(r"K\[(\d+),(\d+)\]")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def radical(n: int) -> int:
    return prod(p for p, _ in factorize(n))


@lru_cache(maxsize=None)
def jacobsthal(n: int) -> int:
    """g(n) by brute force: one more than the longest run of consecutive
    integers that all share a factor with n."""
    r = radical(n)
    if r == 1:
        return 1
    best = run = 0
    for x in range(1, 2 * r + 1):  # x = 1 is coprime, so runs start after it
        if gcd(x, r) > 1:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best + 1


def noncoprime_run(n: int, start: int, length: int) -> bool:
    return all(gcd(start + i, n) > 1 for i in range(length))


def eq7(n: int) -> int:
    """gamma(X_n) for squarefree n with at most three prime factors."""
    primes = [p for p, _ in factorize(n)]
    if len(primes) == 1:
        return 1
    if len(primes) == 2:
        return 2 if primes[0] == 2 else 3
    return 4


# ==== graphs by adjacency rule ====


class Ucg:
    def __init__(self, n: int):
        self.n = self.size = n

    def adjacent(self, u: int, v: int) -> bool:
        return gcd(u - v, self.n) == 1


class Product:
    def __init__(self, pairs):
        self.pairs = tuple(pairs)
        self.size = prod(a * b for a, b in self.pairs)

    def coords(self, v: int) -> list[int]:
        out = []
        for a, b in reversed(self.pairs):
            out.append(v % (a * b))
            v //= a * b
        return out[::-1]

    def adjacent(self, u: int, v: int) -> bool:
        return all(
            (x - y) % b for x, y, (_, b) in zip(self.coords(u), self.coords(v), self.pairs)
        )


def parse_descriptor(text: str):
    """Ucg or canonical-order Product for a descriptor string."""
    if text.startswith("ucg:"):
        return Ucg(int(text[4:]))
    pairs = [(int(a), int(b)) for a, b in _FACTOR_RE.findall(text)]
    return Product(sorted(pairs, key=lambda f: (f[1], f[0])))


# ==== domination tests ====


def _ucg_undominated(n: int, dset: list[int], total: bool) -> int:
    """Vertices of X_n that dset fails to (totally) dominate, counted by
    a dynamic program over the primes of n without listing the vertices.

    Adjacency depends only on residues mod each prime p | n: r misses d
    iff r = d (mod p) for some p.  The state is the set of members of
    dset that r can still be adjacent to.
    """
    primes = [p for p, _ in factorize(n)]
    states = {(1 << len(dset)) - 1: 1}
    for p in primes:
        groups: dict[int, int] = {}
        for i, d in enumerate(dset):
            groups[d % p] = groups.get(d % p, 0) | 1 << i
        free = p - len(groups)
        nxt: dict[int, int] = {}
        for s, c in states.items():
            if free:
                nxt[s] = nxt.get(s, 0) + c * free
            for m in groups.values():
                nxt[s & ~m] = nxt.get(s & ~m, 0) + c
        states = nxt
    missed = states.get(0, 0) * (n // prod(primes))
    if not total:  # a member whose class has no neighbor in dset covers itself
        missed -= sum(1 for d in dset if not any(gcd(d - e, n) == 1 for e in dset))
    return missed


def check_set(graph, dset, kind: str) -> bool:
    """kind: 'gamma' (dominating), 'gamma_total' (total dominating) or
    'upper' (minimal dominating, by Ore's private-neighbor criterion)."""
    dset = list(dset)
    if len(set(dset)) != len(dset) or not all(0 <= v < graph.size for v in dset):
        return False
    if isinstance(graph, Ucg) and kind != "upper":
        return _ucg_undominated(graph.n, dset, kind == "gamma_total") == 0
    members = set(dset)
    private: set[int] = set()
    social: set[int] = set()
    for v in range(graph.size):
        hits = [d for d in dset if graph.adjacent(v, d)]
        if v in members:
            if hits:
                social.add(v)
            if kind == "gamma_total" and not hits:
                return False
        elif not hits:
            return False
        elif len(hits) == 1:
            private.add(hits[0])
    if kind == "upper":
        return all(d not in social or d in private for d in dset)
    return True


def brute_min_size(graph, kind: str) -> int:
    """Smallest (total) dominating set of a small graph, by enumeration."""
    for k in range(1, graph.size + 1):
        for combo in combinations(range(graph.size), k):
            if check_set(graph, combo, kind):
                return k
    raise ValueError("no dominating set")


# ==== closed forms ====


def expected_value(quantity: str, descriptor: str) -> int | None:
    """The invariant's value from a closed form, or None if none applies.

    - gamma(X_n), omega(n) <= 3: eq7 when n is squarefree, else g(n);
    - gamma_t(X_n): 2 for a prime power (X_n = K[p^(e-1),p]), and g(n)
      for n <= 100 with omega(n) <= 3, where the two agree;
    - gamma of a product of complete graphs: 2 or 3 for two factors,
      4 for three, 8 for K_2 x K_n2 x K_n3 x K_n4 (n2 >= 3), t + 1 when
      t >= 4 and n_1 >= t + 1;
    - Gamma of a product: n / b_1 when b_1 = 2 or t <= 3.
    """
    graph = parse_descriptor(descriptor)
    if isinstance(graph, Ucg):
        n = graph.n
        fac = factorize(n)
        if quantity == "gamma" and len(fac) <= 3:
            return eq7(n) if all(e == 1 for _, e in fac) else jacobsthal(n)
        if quantity == "gamma_total":
            if len(fac) == 1:
                return 2
            if n <= 100 and len(fac) <= 3:
                return jacobsthal(n)
            return None
        if quantity == "upper":
            return upper_value([(p ** (e - 1), p) for p, e in fac])
        return None
    if quantity == "upper":
        return upper_value(graph.pairs)
    if quantity != "gamma" or any(a != 1 for a, _ in graph.pairs):
        return None
    bs = [b for _, b in graph.pairs]
    t = len(bs)
    if t == 2:
        return 2 if bs[0] == 2 else 3
    if t == 3:
        return 4
    if t == 4 and bs[0] == 2 and bs[1] >= 3:
        return 8
    if t >= 4 and bs[0] >= t + 1:
        return t + 1
    return None


def upper_value(pairs) -> int | None:
    pairs = sorted(pairs, key=lambda f: (f[1], f[0]))
    b1 = pairs[0][1]
    if b1 == 2 or len(pairs) <= 3:
        return prod(a * b for a, b in pairs) // b1
    return None


def collapse_lower(pairs, kind: str) -> int:
    """Lower bound for gamma or gamma_t of a product of K[a_i,b_i]: the
    value on the product of complete graphs K_{b_i}, found by
    enumeration.  A (total) dominating set projects onto one of the
    collapse, class by class."""
    return brute_min_size(Product([(1, b) for _, b in pairs]), kind)
