"""Closed-form values, explicit constructions, bound composition, and
certificate builders.

Everything here is an executable counterpart of a structural fact about
domination in direct products of complete multipartite graphs or in
unitary Cayley graphs: piecewise formulas for small factor counts,
explicit dominating sets (diagonals, cube and four corners, partite
columns, consecutive residues), interval reports whose sides carry provenance
tags, and congruence-built certificates showing gamma(X_n) or
gamma_t(X_n) can undercut Jacobsthal's g(n).

Every construction and certificate is checked by certifies, which
reads only the rows of the set's members (Descriptor.rows, from
graphs.spec_rows or ucg_rows), never the whole graph.

solve is the calculator's entry point, and it runs one path for all
three quantities on both families.  bound_report gives the proven
interval.  A construction whose size meets the side a set decides
(BoundReport.target: lo for gamma and gamma_total, hi for upper), and
which runs its own check, returns at once, with method "theorem" and
no search.  Otherwise one search runs, with the lower side as its
floor (gamma_exact, gamma_total_exact; a Gamma search has its
incumbent as its lower side and the n/2 cap as its upper side).
X_n is the product form ucg_product_spec(n) under the CRT, so its
constructions are the consecutive run and the product form's own, each
carried to residues by graphs.ucg_residues and checked on X_n.  The
CLI's scan takes this path too: it asks solve for each n.  The
cross-checks call the plain solvers, so that they compare the theorem
layer with a search and not with itself: each row of the CLI's
reproduce suites sets bound_report's lo, the side solve trusts,
against a plain search, and conjecture_check sets n/b_1 against the
Gamma search.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from math import gcd, prod

from .graphs import (
    CapExceededError,
    Descriptor,
    Factor,
    ProductSpec,
    product_spec_graph,
    ucg_product_spec,
    ucg_residues,
)
from .numbertheory import crt_solve, is_prime, jacobsthal, primes_from
from .solvers import (
    Budget,
    SolveResult,
    _certifies,
    gamma_exact,
    gamma_total_exact,
    gamma_upper_exact,
)


class InternalConsistencyError(RuntimeError):
    """Two implemented results contradict each other (lo > hi)."""


@dataclass(frozen=True)
class BoundReport:
    """Interval [lo, hi] for an invariant, each side justified by tags.

    provenance entries are (tag, contribution) pairs such as
    ("cube-corner", "hi 8").  conjectured records an additional
    unproven candidate value; `exact` is never based on it.
    """

    quantity: str
    lo: int
    hi: int
    provenance: tuple[tuple[str, str], ...]
    conjectured: int | None = None

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def target(self) -> int:
        """The size of a set that decides the quantity: lo for gamma and
        gamma_total, which a set bounds from above, hi for upper, which
        a minimal dominating set bounds from below."""
        return self.hi if self.quantity == "upper" else self.lo


@dataclass(frozen=True)
class ConstructionResult:
    """An explicit vertex set with its claimed role and a verification flag."""

    descriptor: str
    vertex_set: tuple[int, ...]
    kind: str  # dominating | total_dominating | minimal_dominating
    verified: bool


@dataclass(frozen=True)
class WitnessN:
    """Certificate that gamma_t(X_n) <= q+3 < q+4 <= g(n).

    D = {0..q+1, y} totally dominates X_n; the q+3 integers z..z+q+2 are
    all non-coprime to n.  `verified` marks whether total domination was
    checked numerically (possible only below the verification cap); the
    run and all congruence identities are always checked.
    """

    n: int
    q: int
    k: int
    primes: tuple[int, ...]
    D: tuple[int, ...]
    y: int
    z: int
    run_length: int
    g_lower: int
    verified: bool


@dataclass(frozen=True)
class MWitness:
    """Certificate that n belongs to M: a dominating set of X_n smaller
    than g(n), plus the coprime-free run forcing g(n) up."""

    n: int
    family: int
    p1: int
    p2: int
    x: int
    run_length: int
    dominating_set: tuple[int, ...]
    g_lower: int
    verified: bool


@dataclass(frozen=True)
class ConjectureCheck:
    conjectured: int
    exact: SolveResult
    agrees: bool | None  # None when the solver ran out of budget


# ==== certificate checks (no graph materialization) ====


def certifies(desc: Descriptor, quantity: str, dset) -> bool:
    """Whether dset is a dominating (gamma), total dominating
    (gamma_total) or minimal dominating (upper) set of desc's graph, in
    the vertex numbering of desc.build().  Only the rows of the members
    are built.  Raises CapExceededError where desc.build() would, and
    ValueError for a member outside the graph."""
    return _certifies(quantity, desc.n_vertices, dset, desc.rows)


def _ucg_certified(n: int, dset, quantity: str, failure: str) -> bool:
    """Check dset for `quantity` on X_n when it is within the vertex cap
    and report whether the check ran; a certificate that fails it is a
    bug, not an input error."""
    try:
        ok = certifies(Descriptor("ucg", ucg_n=n), quantity, dset)
    except CapExceededError:
        return False
    if not ok:
        raise InternalConsistencyError(failure)
    return True


def _noncoprime_run(n: int, start: int, length: int) -> bool:
    return all(gcd(start + i, n) > 1 for i in range(length))


# ==== explicit constructions ====


def _require_all_single(spec: ProductSpec) -> tuple[int, ...]:
    if any(f.a != 1 for f in spec.factors):
        raise ValueError("construction needs complete-graph factors (all a_i = 1)")
    if not spec.canonical_order:
        raise ValueError("factor sizes must be sorted ascending")
    return tuple(f.b for f in spec.factors)


# the kind of set that decides each quantity
_KIND = {"gamma": "dominating", "gamma_total": "total_dominating", "upper": "minimal_dominating"}


def consecutive_residue_set(n: int) -> ConstructionResult:
    """{0, ..., g(n)-1} as a total dominating set of X_n.

    Any window of g(n) consecutive integers contains a coprime to n, so
    every residue has a neighbor in the set.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    g = jacobsthal(n)
    dset = tuple(range(g))
    verified = _ucg_certified(
        n, dset, "gamma_total",
        f"consecutive residues 0..{g - 1} failed to totally dominate X_{n}",
    )
    return ConstructionResult(f"ucg:{n}", dset, _KIND["gamma_total"], verified)


def _checked(spec: ProductSpec, coords, quantity: str, name: str) -> ConstructionResult:
    """Number the coordinate tuples of a construction's vertices, sorted,
    and check the set for `quantity` on the product (spec is in canonical
    order); a construction that fails it is a bug, not an input error."""
    desc = Descriptor("spec", spec=spec)
    desc.n_vertices  # the cap, before numbering the set
    dset = tuple(sorted(spec.index(c) for c in coords))
    if not certifies(desc, quantity, dset):
        raise InternalConsistencyError(f"{name} failed its checker")
    return ConstructionResult(spec.descriptor(), dset, _KIND[quantity], True)


def diagonal_set(spec: ProductSpec, m: int = 0) -> ConstructionResult:
    """Total dominating set {(r mod n_1, ..., r mod n_t) : 0 <= r <= t+m}
    of prod K_{n_i}, of size t+m+1.

    Needs (t+m)/(m+1) < n_1 and t+m < n_2; violations raise with the
    failed inequality named.
    """
    bs = _require_all_single(spec)
    t = spec.t
    if t < 3:
        raise ValueError(f"need at least 3 factors, got {t}")
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if t + m >= bs[0] * (m + 1):
        raise ValueError(
            f"hypothesis (t+m)/(m+1) < n_1 fails: ({t}+{m})/{m + 1} >= {bs[0]}"
        )
    if t + m >= bs[1]:
        raise ValueError(f"hypothesis t+m < n_2 fails: {t}+{m} >= {bs[1]}")
    coords = [[r % b for b in bs] for r in range(t + m + 1)]
    return _checked(spec, coords, "gamma_total", "diagonal set")


def t_plus_two_set(spec: ProductSpec) -> ConstructionResult:
    """Dominating set of size t+2 for prod K_{n_i} when n_1 = t: the t
    diagonal vertices plus (0,1,t,...,t) and (1,0,t,...,t)."""
    bs = _require_all_single(spec)
    t = spec.t
    if t < 4:
        raise ValueError(f"need at least 4 factors, got {t}")
    if bs[0] != t:
        raise ValueError(f"construction needs n_1 = t, got n_1 = {bs[0]}, t = {t}")
    if bs[2] < t + 1:
        raise ValueError(f"need n_3 >= t+1 = {t + 1}, got n_3 = {bs[2]}")
    coords = [[r % b for b in bs] for r in range(t)]
    coords.append([0, 1] + [t] * (t - 2))
    coords.append([1, 0] + [t] * (t - 2))
    return _checked(spec, coords, "gamma", "t+2 construction")


_CORNERS3 = ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))
_CUBE_CORNERS = tuple((x,) + corner for x in (0, 1) for corner in _CORNERS3)


def cube_corner_set(spec: ProductSpec) -> ConstructionResult:
    """The 8-vertex dominating set _CUBE_CORNERS = {0,1} x _CORNERS3 of
    K_2 x K_{n_2} x K_{n_3} x K_{n_4}."""
    bs = _require_all_single(spec)
    if spec.t != 4:
        raise ValueError(f"need exactly 4 factors, got {spec.t}")
    if bs[0] != 2:
        raise ValueError(f"need n_1 = 2, got {bs[0]}")
    return _checked(spec, _CUBE_CORNERS, "gamma", "cube-corner set")


def _four_corner_set(spec: ProductSpec) -> ConstructionResult:
    """The 4-vertex dominating set _CORNERS3 of K_{n_1} x K_{n_2} x K_{n_3}:
    a vertex that is no corner has at most two coordinates in {0, 1},
    and some corner differs from it in every coordinate."""
    _require_all_single(spec)
    if spec.t != 3:
        raise ValueError(f"need exactly 3 factors, got {spec.t}")
    return _checked(spec, _CORNERS3, "gamma", "four-corner set")


def partite_column_set(spec: ProductSpec) -> ConstructionResult:
    """All vertices whose first coordinate lies in one partite set of the
    first factor: a minimal dominating set of size n/b_1 (every member is
    lonely)."""
    if not spec.canonical_order:
        raise ValueError("needs canonical factor order (b_1 minimal)")
    first, *rest = spec.factors
    coords = product(range(0, first.size, first.b), *(range(f.size) for f in rest))
    return _checked(spec, coords, "upper", "partite column")


# ==== piecewise formulas and single-theorem bounds ====


def repeated_factor_lower(n: int) -> int:
    """Lower bound ceil(p_1 * t / (p_1 - 1)) for gamma(X_n) when n is not
    squarefree and omega(n) <= 3."""
    spec = ucg_product_spec(n)  # omega = t, p_1 = b_1
    if all(f.a == 1 for f in spec.factors):
        raise ValueError(f"{n} is squarefree")
    if spec.t > 3:
        raise ValueError(f"need omega <= 3, got {spec.t}")
    p1 = spec.factors[0].b
    return -(-(p1 * spec.t) // (p1 - 1))


def _diagonal_upper(bs: tuple[int, ...]) -> tuple[int, int] | None:
    """Best (value, m) from the diagonal construction, or None."""
    t = len(bs)
    if t < 3:
        return None
    b1, b2 = bs[0], bs[1]
    m = (t - b1) // (b1 - 1) + 1 if t >= b1 else 0
    if t + m < b2:
        return t + m + 1, m
    return None


# ==== bound composition ====


def _compose(quantity, lo_entries, hi_entries, conjectured=None) -> BoundReport:
    lo = max(v for v, _ in lo_entries)
    hi = min(v for v, _ in hi_entries)
    if lo > hi:
        raise InternalConsistencyError(
            f"{quantity} bounds conflict: lower {lo} exceeds upper {hi} "
            f"(lows {lo_entries}, highs {hi_entries})"
        )
    prov = tuple((tag, f"lo {v}") for v, tag in lo_entries) + tuple(
        (tag, f"hi {v}") for v, tag in hi_entries
    )
    return BoundReport(quantity, lo, hi, prov, conjectured)


def gamma_bounds(spec: ProductSpec) -> BoundReport:
    """Tightest interval for gamma(prod K[a_i,b_i]) derivable from the
    implemented structural results.  Factors may come in any order; the
    interval only depends on the multiset."""
    spec = spec.canonical()
    n = spec.n_vertices
    t = spec.t
    bs = tuple(f.b for f in spec.factors)
    all_single = all(f.a == 1 for f in spec.factors)

    if t == 1:
        v = 1 if spec.factors[0].a == 1 else 2
        return _compose("gamma", [(v, "single-factor")], [(v, "single-factor")])

    lows: list[tuple[int, str]] = [(1, "trivial")]
    his: list[tuple[int, str]] = [(n, "all-vertices")]

    # gamma(K_2^s x rest) = 2^(s-1) * gamma(K_2 x rest) for s >= 1
    k2 = Factor(1, 2)
    s = spec.factors.count(k2)
    rest = tuple(f for f in spec.factors if f != k2)
    if s >= 1 and not rest:
        v = 2 ** (s - 1)
        lows.append((v, "k2-factor-reduction"))
        his.append((v, "k2-factor-reduction"))
        return _compose("gamma", lows, his)
    if s >= 2:
        sub = gamma_bounds(ProductSpec((k2,) + rest))
        mult = 2 ** (s - 1)
        lows.append((mult * sub.lo, "k2-factor-reduction"))
        his.append((mult * sub.hi, "k2-factor-reduction"))

    # gamma of the complete-graph collapse, known for t <= 3; lower
    # bounds for the collapse transfer to blowups
    collapse_gamma = {2: 2 if bs[0] == 2 else 3, 3: 4}.get(t)
    collapse_tag = "complete-product" if all_single else "blowup-lower"
    if collapse_gamma is not None:
        lows.append((collapse_gamma, collapse_tag))
    else:
        lows.append((t + 1, collapse_tag))
        if bs[1] >= 3:
            v = t + 1 + (t - 1) // (bs[0] - 1)
            tag = (
                "small-first-factor-lower"
                if all_single
                else "small-first-factor-lower+blowup"
            )
            lows.append((v, tag))

    # a total dominating set of the collapse lifts to any blowup
    diag = _diagonal_upper(bs)
    if diag is not None:
        his.append((diag[0], "diagonal-total"))

    if all_single:
        if collapse_gamma is not None:
            his.append((collapse_gamma, "complete-product"))
        else:
            if bs[0] >= t + 1:
                his.append((t + 1, "complete-product"))
            if bs[0] == 2 and t == 4:
                lows.append((8, "cube-corner"))
                his.append((8, "cube-corner"))
            if bs[1] >= 3 and bs[2] >= t + 1:
                if bs[0] == t or (2 * bs[0] > t + 1 and bs[0] <= t - 1 and bs[1] > t + 1):
                    lows.append((t + 2, "t-plus-two-characterization"))
                    his.append((t + 2, "t-plus-two-characterization"))

    return _compose("gamma", lows, his)


def ucg_gamma_bounds(n: int) -> BoundReport:
    """Interval for gamma(X_n), combining the product-form bounds with
    the unitary-Cayley-specific results."""
    spec = ucg_product_spec(n)  # omega = t, squarefree iff every a = 1
    base = gamma_bounds(spec)
    squarefree = all(f.a == 1 for f in spec.factors)
    lows = [(base.lo, tag) for tag, _ in _side(base, "lo")]
    his = [(base.hi, tag) for tag, _ in _side(base, "hi")]
    g = jacobsthal(n)
    his.append((g, "consecutive-run"))
    if squarefree and spec.t <= 3:  # eq. (7) is the product form's value
        lows.append((base.lo, "squarefree-small-omega"))
        his.append((base.lo, "squarefree-small-omega"))
    if not squarefree and spec.t <= 3:
        lows.append((g, "nonsquarefree-jacobsthal-exact"))
        his.append((g, "nonsquarefree-jacobsthal-exact"))
        lows.append((repeated_factor_lower(n), "repeated-factor-lower"))
    return _compose("gamma", lows, his)


def _clique_threshold_holds(spec: ProductSpec) -> bool:
    """t(t-1)(t-2)+3 <= a_k1 * (a_k2 b_k2) * (a_k3 b_k3) with factors
    enumerated by size a_i*b_i ascending, ties by original position."""
    t = spec.t
    order = sorted(range(t), key=lambda i: (spec.factors[i].size, i))
    k1, k2, k3 = order[0], order[1], order[2]
    lhs = t * (t - 1) * (t - 2) + 3
    rhs = (
        spec.factors[k1].a
        * spec.factors[k2].size
        * spec.factors[k3].size
    )
    return lhs <= rhs


def upper_bounds(spec: ProductSpec) -> BoundReport:
    """Interval for the upper domination number of prod K[a_i,b_i].

    The partite-column bound n/b_1 is always a lower bound and is exact
    when b_1 = 2, when t <= 3, or when the clique-partition threshold
    holds; otherwise n/b_1 is reported as conjectured and the proven
    upper side falls back to n/2: the product splits into cliques of
    size b_1 >= 2, so no minimal dominating set has more than n/2
    vertices (see solvers.gamma_upper_exact).
    """
    spec = spec.canonical()
    n = spec.n_vertices
    b1 = spec.factors[0].b
    col = n // b1
    lows = [(col, "partite-column")]
    if b1 == 2:
        his = [(col, "matching-partition-exact")]
    elif spec.t <= 2:
        his = [(col, "few-factor-exact")]
    elif spec.t == 3:
        his = [(col, "three-factor-exact")]
    elif _clique_threshold_holds(spec):
        his = [(col, "clique-partition-threshold")]
    else:
        his = [(n // 2, "clique-partition-half")]
        return _compose("upper", lows, his, conjectured=col)
    return _compose("upper", lows, his)


def conjecture_check(spec: ProductSpec, budget: Budget | None = None) -> ConjectureCheck:
    """Compare the exact upper domination number against the conjectured
    value n/b_1.  agrees is None when the search ran out of budget."""
    spec = spec.canonical()
    conjectured = upper_bounds(spec).lo  # the partite column, n/b_1
    graph = product_spec_graph(spec)
    result = gamma_upper_exact(graph, budget)
    agrees = (result.value == conjectured) if result.optimal else None
    return ConjectureCheck(conjectured, result, agrees)


# ==== the calculator: theorem layer first, search second ====


def bound_report(desc: Descriptor, quantity: str) -> BoundReport:
    """The theorem layer's interval for `quantity` (gamma, gamma_total or
    upper) on desc.

    upper takes X_n as its product form.  gamma_total takes gamma's lower
    side, since gamma <= gamma_t, and as its upper side the smallest
    total dominating set at hand: all vertices, or one of
    _constructions (on ucg:n the consecutive run, then the diagonal).
    """
    if quantity == "upper":
        return upper_bounds(desc.product_form)
    if quantity not in ("gamma", "gamma_total"):
        raise ValueError(f"unknown quantity {quantity!r}")
    gamma = ucg_gamma_bounds(desc.ucg_n) if desc.kind == "ucg" else gamma_bounds(desc.spec)
    if quantity == "gamma":
        return gamma
    his = [(desc.product_form.n_vertices, "all-vertices")]
    his += [(size, tag) for tag, size, _ in _constructions(desc, "gamma_total")]
    return _compose("gamma_total", [(gamma.lo, tag) for tag, _ in _side(gamma, "lo")], his)


def _lifted(n: int, built: ConstructionResult, quantity: str) -> ConstructionResult:
    """A construction on the product form of X_n, carried to residues by
    the CRT (ucg_residues) and checked on X_n itself."""
    dset = ucg_residues(n, built.vertex_set)
    verified = _ucg_certified(
        n, dset, quantity, f"set from {built.descriptor} failed its checker on X_{n}"
    )
    return ConstructionResult(f"ucg:{n}", dset, built.kind, verified)


def _constructions(desc: Descriptor, quantity: str):
    """(tag, size, build) for each construction of a `quantity` set that
    may apply to desc; build() raises ValueError when a hypothesis fails.

    On ucg:n the consecutive run comes first, then the product form's
    constructions, each lifted to residues and checked on X_n.
    """
    spec = desc.product_form
    diag = _diagonal_upper(tuple(f.b for f in spec.factors))
    # the diagonal is total dominating, so it dominates too
    diagonal = [] if diag is None else [
        ("diagonal-total", diag[0], lambda: diagonal_set(spec, diag[1]))
    ]
    table = {
        "gamma": [
            ("cube-corner", 8, lambda: cube_corner_set(spec)),
            ("t-plus-two", spec.t + 2, lambda: t_plus_two_set(spec)),
            *diagonal,
            ("four-corner", 4, lambda: _four_corner_set(spec)),
        ],
        "gamma_total": diagonal,
        "upper": [("partite-column", spec.n_vertices // spec.factors[0].b,
                   lambda: partite_column_set(spec))],
    }[quantity]
    if desc.kind == "spec":
        return table
    n = desc.ucg_n
    lifted = [(tag, size, lambda build=build: _lifted(n, build(), quantity))
              for tag, size, build in table]
    if quantity == "upper":
        return lifted
    return [("consecutive-run", jacobsthal(n), lambda: consecutive_residue_set(n))] + lifted


def _side(report: BoundReport, side: str) -> tuple[tuple[str, str], ...]:
    """The provenance entries that set the report's lo or hi."""
    target = f"lo {report.lo}" if side == "lo" else f"hi {report.hi}"
    return tuple(entry for entry in report.provenance if entry[1] == target)


# the search solve runs when no construction decides; Gamma's takes no
# floor, since its lower side is the incumbent it finds
_SEARCHES = {
    "gamma": gamma_exact,
    "gamma_total": gamma_total_exact,
    "upper": lambda graph, budget, floor: gamma_upper_exact(graph, budget),
}


def solve(
    descriptor: Descriptor | str, quantity: str, budget: Budget | None = None
) -> SolveResult:
    """Certified value of `quantity` (gamma, gamma_total or upper) on a
    descriptor, starting from the theorem layer.

    One path for every quantity.  A construction whose size is the
    bound report's target (lo for gamma and gamma_total, hi for upper)
    decides it: method "theorem", nodes 0, and the provenance of both
    sides, the report's and the construction's.  On ucg:n the
    constructions are the consecutive run and the product form's, each
    carried to residues by the CRT (graphs.ucg_residues).  Otherwise one
    search runs with the report's lo as its floor, and a budget-cut
    result whose side the search did not prove (lo for gamma and
    gamma_total, hi for upper) equals the report's carries that side's
    provenance.  Every construction checks its own set from its members'
    rows (certifies); a result outside the proven interval means two
    implemented results disagree and raises InternalConsistencyError.
    The time limit and elapsed cover the whole call: the search gets the
    time that the report, the constructions and the build left.
    """
    desc = Descriptor.parse(descriptor) if isinstance(descriptor, str) else descriptor
    start = time.monotonic()
    report = bound_report(desc, quantity)
    side, other = ("hi", "lo") if quantity == "upper" else ("lo", "hi")
    for tag, size, build in _constructions(desc, quantity):
        if size != report.target:
            continue
        try:
            built = build()
        except ValueError:  # a hypothesis of the construction fails
            continue
        if not built.verified:  # ucg:n above the vertex cap goes unchecked
            continue
        if len(built.vertex_set) != size:
            raise InternalConsistencyError(
                f"{tag} set on {desc.canonical()} has {len(built.vertex_set)} "
                f"vertices, not {size}"
            )
        # lo entries first, as in the report
        provenance = sorted(_side(report, side) + ((tag, f"{other} {size}"),),
                            key=lambda entry: entry[1].startswith("hi"))
        return SolveResult(
            quantity, size, built.vertex_set, True, "theorem", lo=size, hi=size,
            elapsed=time.monotonic() - start, provenance=tuple(provenance),
        )
    graph = desc.build()
    budget = budget or Budget()
    if budget.time_limit is not None:  # the search gets what the setup left
        budget = Budget(budget.max_nodes, budget.time_limit - (time.monotonic() - start))
    result = _SEARCHES[quantity](graph, budget, floor=report.lo)
    result.elapsed = time.monotonic() - start
    if result.hi < report.lo or result.lo > report.hi:
        raise InternalConsistencyError(
            f"{quantity}({desc.canonical()}) searched to [{result.lo}, {result.hi}], "
            f"outside the proven [{report.lo}, {report.hi}]"
        )
    if not result.optimal and getattr(result, side) == getattr(report, side):
        result.provenance = _side(report, side)
    return result


# ==== certificate builders for M and M_t ====


def mt_witness(j: int) -> WitnessN:
    """Build n with at least j prime factors and a total dominating set
    of X_n smaller than g(n).

    Deterministic parameter rule: q is the smallest prime with
    q = 1 (mod 3) and 2(q-1)/3 + 2 >= j; the k = 2(q-1)/3 odd prime
    cofactors are the smallest primes >= q+3.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    q = 7
    while not (q % 3 == 1 and is_prime(q) and 2 * (q - 1) // 3 + 2 >= j):
        q += 1
    k = 2 * (q - 1) // 3
    gen = primes_from(q + 3)
    primes = tuple(next(gen) for _ in range(k))
    n = 3 * q * prod(primes)

    # moduli a_0..a_{q+2}: 3 at multiples of 3, q at positions 1 and q+1,
    # one distinct prime at each remaining position; z + i = 0 (mod a_i)
    a_seq = [0] * (q + 3)
    congruences = [(0, 3), (-1, q)]
    rest = list(primes)
    for i in range(q + 3):
        if i % 3 == 0:
            a_seq[i] = 3
        elif i == 1 or i == q + 1:
            a_seq[i] = q
        else:
            a_seq[i] = rest.pop(0)
            congruences.append((-i, a_seq[i]))
    if rest:
        raise InternalConsistencyError("prime slots and modulus positions differ")
    z = crt_solve(congruences).residue
    for i in range(q + 3):
        if (z + i) % a_seq[i] != 0:
            raise InternalConsistencyError(f"run position {i} misses modulus {a_seq[i]}")
    if not _noncoprime_run(n, z, q + 3):
        raise InternalConsistencyError("coprime-free run check failed")

    y = crt_solve([(1, 3), (-1, q)] + [(-1, p) for p in primes]).residue
    if y <= q + 1:
        raise InternalConsistencyError(f"y = {y} collides with the base segment")
    dset = tuple(range(q + 2)) + (y,)

    verified = _ucg_certified(
        n, dset, "gamma_total", "witness set is not total dominating"
    )
    return WitnessN(
        n=n, q=q, k=k, primes=primes, D=dset, y=y, z=z,
        run_length=q + 3, g_lower=q + 4,
        verified=verified,
    )


def m_family_witness(family: int, p1: int, p2: int) -> MWitness:
    """Certificates for membership in M.

    Family 1: n = 2*p1*p2 with 3 <= p1 < p2; a 4-vertex dominating set
    against a coprime-free run of length 4 (so g(n) >= 5 > 4).
    Family 2: n = 6*p1*p2 with 5 <= p1 < p2; an 8-vertex dominating set
    against a run of length 9 (so g(n) >= 10 > 8).
    """
    if family not in (1, 2):
        raise ValueError(f"family must be 1 or 2, got {family}")
    if not (is_prime(p1) and is_prime(p2)):
        raise ValueError(f"p1 = {p1}, p2 = {p2} must both be prime")
    if family == 1:
        if not 3 <= p1 < p2:
            raise ValueError(f"family 1 needs 3 <= p1 < p2, got ({p1}, {p2})")
        moduli = (2, p1, p2)
        run_length = 4
        corners = _CORNERS3
    else:
        if not 5 <= p1 < p2:
            raise ValueError(f"family 2 needs 5 <= p1 < p2, got ({p1}, {p2})")
        moduli = (2, 3, p1, p2)
        run_length = 9
        corners = _CUBE_CORNERS
    # x = 0 (mod 2), and x + 2i - 1 = 0 modulo the i-th odd modulus
    x = crt_solve([(0, 2)] + [(1 - 2 * i, m) for i, m in enumerate(moduli[1:], 1)]).residue
    n = prod(moduli)
    if not _noncoprime_run(n, x, run_length):
        raise InternalConsistencyError("coprime-free run check failed")
    spec = ucg_product_spec(n)  # its factors are K_m for m in moduli, in that order
    dset = ucg_residues(n, [spec.index(corner) for corner in corners])
    verified = _ucg_certified(n, dset, "gamma", "lifted corner set is not dominating")
    if not len(dset) < run_length + 1:
        raise InternalConsistencyError("certificate does not separate gamma from g")
    return MWitness(
        n=n, family=family, p1=p1, p2=p2, x=x, run_length=run_length,
        dominating_set=dset, g_lower=run_length + 1, verified=verified,
    )
