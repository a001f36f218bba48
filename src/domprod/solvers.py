"""Checkers and exact solvers for domination, total domination, and
upper domination.

The checkers are one core, _certifies, that reads only the rows of the
set's members: a Graph's adjacency, or a descriptor's rows built
without the graph (theorems.certifies).

gamma_exact and gamma_total_exact treat the problem as minimum set cover
(universe = vertices, sets = closed / open neighborhoods) and run a
descending sequence of decision searches: a greedy incumbent first, then
"is there a cover one smaller?" until a search completes with no cover.
A cover instance is the graph's adjacency itself: set positions are
vertex ids, a mask says which vertices may be chosen, and because
closed and open adjacency are symmetric, the sets containing element e
are just row e masked to the allowed vertices.  So setup costs O(n)
bigint operations and witnesses need no translation.  On bipartite
graphs two shortcuts apply: total domination splits into two
independent one-sided covers (side B covered by rows of side A, and the
reverse), and a domination refutation can often dismiss all ways of
splitting k vertices across the two sides by max-coverage counting, far
faster than raw branching.

gamma_upper_exact maximizes |D| over minimal dominating sets with an
in/out search in index order.  Each time a vertex joins IN, the
undecided vertices that can no longer join (_unaddable: IN plus that
vertex would break Ore's criterion, some member left neither lonely nor
with a private neighbor) move to OUT; IN only grows, so they could not
join any larger IN either, and IN itself always satisfies Ore.  A node
is pruned when IN plus its still addable vertices is no larger than the
best set, or when some vertex can no longer be dominated.  A graph that
splits into cliques of size at least 2 has no minimal dominating set of
more than n/2 vertices, and a product of K[a_i,b_i] splits into
cliques of size b_1 = min b_i >= 2, so with Graph.factors set the
search stops at the first set of n/2.

A caller that knows a proven lower bound on gamma or gamma_t can hand
it in: the keyword `floor` of gamma_exact and gamma_total_exact joins
the counting lower bound, so the probes stop there.  It is a
theorem-layer input (theorems.solve); its default 0 leaves every search
as it was.

Symmetry comes only from Graph.factors, which only builders set: the
graph is a product of balanced complete multipartite factors, so every
product of per-factor residue permutations that keep partite sets
together is an automorphism, and so is every swap of two factors with
equal (size, b).  _orbit_key names the orbits of the pointwise
stabilizers of this whole group by a canonical form read off the fixed
vertices' residue columns, without listing any group element.  Such a
graph is vertex-transitive, so for all three invariants some optimal
set contains vertex 0: each
decision probe of gamma_exact and gamma_total_exact looks only for sets
through 0, and gamma_upper_exact never leaves 0 out.  Beyond the root:
  - a probe skips, and bans, a branching candidate in the same orbit as
    a refuted sibling under the stabilizer of the chosen vertices; an
    automorphism fixing them maps its covers to the sibling's, of which
    there are none;
  - gamma_upper_exact, leaving vertex i out, also leaves out the later
    vertices in its orbit under the stabilizer of 0..i-1; each set so
    dropped is the image of a set of the same size through i, which the
    "in" branch has already searched.  The vertices the addable filter
    moves to OUT are in no minimal dominating set of the subtree, and
    that set of vertices is mapped onto itself by every automorphism
    fixing IN; the search meets the same minimal dominating sets with
    the filter as without it, so the rule stays sound.
  - gamma_upper_exact keeps only the lex-leader of each orbit under the
    whole group: sets compare by their membership vectors in vertex
    order (member = 1), and _lex_generators lists involutions that
    generate the group.  A node is pruned when one of them maps every
    completion to a larger set: walking its moved pairs (j, image),
    j < image, in order while j < idx, every pair up to the first that
    differs has both ends decided (below idx, or in OUT), and at that
    pair the image is in IN and j is not.  The largest member of its
    orbit passes this test against every group element, and it leaves
    out every vertex in OUT: the filter moves only vertices in no
    minimal dominating set of the subtree, and the orbit-mate rule
    keeps the largest member of each orbit.  The in-first search meets
    sets in decreasing order, so each set it records beats the best so
    far and is met before any smaller member of its orbit: it is the
    largest one.  So the test never drops a set the search records.
When exactly one factor has b = 2 (_side_symmetry), the graph is
connected and bipartite, and the automorphisms that keep its two sides
act transitively on each.  Then the bipartite split of gamma_total
roots each one-sided cover at its first allowed vertex and prunes its
orbits the same way, and the gamma refuter's max-coverage searches
always take their first set.
These rules only drop subtrees that hold no better answer than one
already met, so values, and gamma and Gamma witnesses, are those of the
search without them, found in fewer nodes.  A rooted bipartite split
may find a different gamma_total witness of the same size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from .graphs import Graph, iter_bits

DEFAULT_MAX_NODES = 10_000_000
DEFAULT_TIME_LIMIT = 60.0


class NoTotalDominationError(ValueError):
    """The graph has an isolated vertex, so no total dominating set exists."""


class BudgetExhausted(Exception):
    """Internal: node or time budget ran out mid-search."""


@dataclass
class Budget:
    max_nodes: int = DEFAULT_MAX_NODES
    time_limit: float | None = DEFAULT_TIME_LIMIT


@dataclass
class SolveResult:
    """An invariant value with witness and provenance.

    lo/hi is the proven interval: for gamma and gamma_total the witness
    size is hi and lo is the best proven lower bound; for upper
    domination the witness size is lo.  optimal means lo == hi.
    provenance holds (tag, contribution) pairs such as ("cube-corner",
    "hi 8"), the theorems behind a side the search did not prove.
    theorems.solve sets it on results with method "theorem" (both
    sides) and on budget-cut searches whose unproven side (lo for gamma
    and gamma_total, hi for upper) is the theorem's (that side); the
    solvers here leave it empty.
    """

    quantity: str
    value: int
    witness: tuple[int, ...]
    optimal: bool
    method: str
    lo: int
    hi: int
    nodes: int = 0
    elapsed: float = 0.0
    provenance: tuple[tuple[str, str], ...] = ()


class _SearchState:
    __slots__ = ("nodes", "max_nodes", "deadline")

    def __init__(self, budget: Budget):
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = (
            None if budget.time_limit is None else time.monotonic() + budget.time_limit
        )

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def tick(self) -> None:
        # the clock is read on every node: one node can cost milliseconds
        # (a refuter node on a large graph), so any stride between reads
        # multiplies into seconds of overshoot past the time limit
        self.nodes += 1
        if self.nodes > self.max_nodes or self.expired():
            raise BudgetExhausted


# ==== checkers ====


def _certifies(quantity: str, n: int, d: Iterable[int], rows) -> bool:
    """Whether d is a dominating (gamma), total dominating (gamma_total)
    or minimal dominating (upper) set of an n-vertex graph whose
    neighbourhood masks rows(vertices) yields, reading only the rows of
    the members.

    With `once` and `twice` the vertices having at least one and at
    least two neighbours in d, d totally dominates iff once is
    everything, and dominates iff once | d is.  It is minimal iff, in
    addition, every member is lonely or has a neighbour outside d |
    twice (Ore's criterion: that neighbour's only neighbour in d is the
    member), which a second pass over the rows decides.  This is the
    reference the searches are tested against, so it shares no code
    with them.
    """
    dm = 0
    for v in d:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for graph with {n} vertices")
        dm |= 1 << v
    once = twice = 0
    for row in rows(iter_bits(dm)):
        twice |= once & row
        once |= row
    full = (1 << n) - 1
    if quantity == "gamma_total":
        return once == full
    if quantity not in ("gamma", "upper"):
        raise ValueError(f"unknown quantity {quantity!r}")
    if once | dm != full:
        return False
    private = ~(dm | twice)
    return quantity == "gamma" or all(
        row & dm == 0 or row & private for row in rows(iter_bits(dm))
    )


def is_dominating(g: Graph, d: Iterable[int]) -> bool:
    return _certifies("gamma", g.n, d, partial(map, g.adj.__getitem__))


def is_total_dominating(g: Graph, d: Iterable[int]) -> bool:
    return _certifies("gamma_total", g.n, d, partial(map, g.adj.__getitem__))


def is_minimal_dominating(g: Graph, d: Iterable[int]) -> bool:
    """Ore's criterion: d dominates and every member is lonely or has a
    private neighbor.  Agrees with the remove-one-element definition."""
    return _certifies("upper", g.n, d, partial(map, g.adj.__getitem__))


# ==== set-cover engine ====


class _CoverInstance:
    """A min-cover problem on a graph: cover `universe` with the sets
    covers[v] for v in `allowed`.  Set positions are vertex ids, and
    covers is a symmetric relation (closed or open adjacency), so the
    sets that contain element e are covers[e] & allowed.

    factors, when given, is the graph's Graph.factors, and the instance
    is invariant in the way the symmetry rules need: the automorphisms
    of that group that keep the universe and the allowed set act
    transitively on the allowed vertices, and they include the
    stabilizer of every allowed vertex.  So some minimum cover holds the
    first allowed position, and once it is chosen, an automorphism
    fixing the chosen positions maps covers to covers of the same size.
    The whole graph qualifies, and so does each one-sided half of a
    bipartite graph under _side_symmetry."""

    __slots__ = ("universe", "covers", "allowed", "positions", "factors")

    def __init__(
        self, universe: int, covers: Sequence[int], allowed: int, factors=None
    ):
        self.universe = universe
        self.covers = covers
        self.allowed = allowed
        self.positions = list(iter_bits(allowed))
        self.factors = factors


def _orbit_key(factors, fixed: Iterable[int]):
    """Key function whose equal values are vertices in one orbit of the
    pointwise stabilizer of `fixed` in the factor symmetry group, or
    None when that stabilizer is trivial (every orbit is one vertex).

    An element of the group is a permutation sigma of factors with equal
    (size, b) (see Graph.factors) with one bijection h_i from the
    residues of factor i onto those of factor sigma[i] that maps partite
    sets onto partite sets.  Per factor, each residue has an entry: the
    first member of `fixed` with that residue and the first in its
    partite set, -1 for none.  The factor's pattern is the entries of
    the members' residues, in member order.  An element fixes every
    member iff each h_i maps the members' residues in factor i onto
    theirs in factor sigma[i]; such h_i exist iff the two patterns are
    equal, and then they can carry a residue to any residue of the same
    entry.  So v and w lie in one orbit iff some class-preserving sigma
    matches the (pattern, entry) pairs of v's factors to those of w's,
    that is iff per class of equal factors the multisets of those pairs
    agree; the key is those multisets, sorted.  Only the identity fixes
    every member when no entry has two residues and no two equal factors
    share a pattern.
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


def _greedy_cover(inst: _CoverInstance, state: _SearchState) -> list[int]:
    """Largest-gain cover.  Past the deadline it gives each still-uncovered
    element its lowest candidate instead, so the pass ends quickly; it
    reads the clock once per pick and counts no nodes."""
    remaining = inst.universe
    chosen: list[int] = []
    while remaining:
        if state.expired():
            e = (remaining & -remaining).bit_length() - 1
            cands = inst.covers[e] & inst.allowed
            best_i = (cands & -cands).bit_length() - 1
        else:
            best_i = -1
            best_gain = 0
            for i in inst.positions:
                gain = (inst.covers[i] & remaining).bit_count()
                if gain > best_gain:
                    best_gain, best_i = gain, i
        if best_i < 0:
            raise ValueError("universe is not coverable")
        chosen.append(best_i)
        remaining &= ~inst.covers[best_i]
    return chosen


def _exists_cover(
    inst: _CoverInstance, k: int, state: _SearchState, chosen: Sequence[int] = ()
) -> list[int] | None:
    """Find set positions (at most k, starting with `chosen`) covering
    the universe, or prove none exist.  Exact decision search.

    A position is banned at a node once no cover of at most k sets
    contains it together with the node's chosen positions.  With
    inst.factors, a candidate in the same orbit as a refuted sibling
    under the pointwise stabilizer of the chosen positions is banned
    without a search: an automorphism fixing them maps its covers onto
    the sibling's, and the sibling has none.
    """
    covers = inst.covers
    allowed = inst.allowed
    positions = inst.positions

    def rec(remaining: int, banned: int, k: int, chosen: list[int], factors):
        state.tick()
        avail = allowed & ~banned
        # unit propagation, zero-candidate pruning, branch-element choice
        while True:
            if not remaining:
                return chosen
            if k == 0:
                return None
            best_cands = 0
            best_cnt = 1 << 30
            forced = -1
            for e in iter_bits(remaining):
                cands = covers[e] & avail
                cnt = cands.bit_count()
                if cnt == 0:
                    return None
                if cnt == 1:
                    forced = cands.bit_length() - 1
                    break
                if cnt < best_cnt:
                    best_cnt, best_cands = cnt, cands
            if forced >= 0:
                remaining &= ~covers[forced]
                k -= 1
                chosen = chosen + [forced]
                continue
            break
        if k == 1:
            for i in iter_bits(best_cands):
                if covers[i] & remaining == remaining:
                    return chosen + [i]
            return None
        need = remaining.bit_count()
        gains = sorted(
            (
                (covers[i] & remaining).bit_count()
                for i in positions
                if not banned >> i & 1
            ),
            reverse=True,
        )
        if sum(gains[:k]) < need:
            return None
        order = sorted(
            iter_bits(best_cands), key=lambda i: -(covers[i] & remaining).bit_count()
        )
        # a trivial stabilizer stays trivial below: children fix more
        key = None if factors is None else _orbit_key(factors, chosen)
        if key is None:
            factors = None
        refuted = set()  # orbit keys of the refuted siblings
        for i in order:
            if refuted and key(i) in refuted:
                banned |= 1 << i
                continue
            res = rec(remaining & ~covers[i], banned, k - 1, chosen + [i], factors)
            if res is not None:
                return res
            banned |= 1 << i  # anything through i is now fully refuted
            if key is not None:
                refuted.add(key(i))
        return None

    remaining = inst.universe
    for i in chosen:
        remaining &= ~covers[i]
    return rec(remaining, 0, k - len(chosen), list(chosen), inst.factors)


def _max_cover_atleast(
    sets: Sequence[int],
    universe: int,
    count: int,
    target: int,
    state: _SearchState,
    rooted: bool = False,
) -> bool:
    """Can `count` of the sets cover at least `target` universe elements?
    Exact include/exclude search with a top-marginal-sum bound.

    A node ranks its pool by marginal gain over `covered` once.  It then
    walks down the ranking: each step includes the best set left (a
    recursive call, one `left` fewer) and, if that fails, excludes it.
    Excluding leaves `covered` as it is, so the rest keeps its ranking
    and marginals, and each exclude step is one node and one loop
    iteration rather than a frame.  So the depth is at most `count`.

    rooted says that automorphisms keeping the universe permute the sets
    transitively, so some best selection holds any given set: the root
    then takes only the "include" branch."""
    if target <= 0:
        return True
    if count <= 0:
        return False
    pool = [s & universe for s in sets if s & universe]

    def rec(
        pool: list[int], covered: int, covered_cnt: int, left: int, root: bool = False
    ) -> bool:
        state.tick()
        if covered_cnt >= target:
            return True
        if left == 0 or not pool:
            return False
        ranked = sorted(pool, key=lambda s: (s & ~covered).bit_count())
        marg = [(s & ~covered).bit_count() for s in ranked]
        for end in range(len(ranked), 0, -1):
            if covered_cnt + sum(marg[max(end - left, 0):end]) < target:
                return False
            new_cov = covered | ranked[end - 1]
            if rec(ranked[:end - 1], new_cov, new_cov.bit_count(), left - 1):
                return True
            if root:
                return False
            state.tick()  # the node that excludes ranked[end - 1]
        return False

    return rec(pool, 0, 0, count, rooted)


def _min_cover(
    inst: _CoverInstance, state: _SearchState, refuter=None, floor: int = 0
) -> tuple[list[int], int, bool]:
    """Minimum cover by descending decision probes.

    Returns (best set positions, proven lower bound, optimal).  The
    refuter, when given, may prove "no k-cover" cheaply; returning False
    just falls through to the exact search.  floor is a lower bound the
    caller has proven: it joins the counting bound, so the probes stop
    there.  With inst.factors some minimum cover contains the first
    allowed position, so each probe only searches the covers through it.
    """
    if inst.universe == 0:
        return [], 0, True
    best = _greedy_cover(inst, state)
    maxgain = max(inst.covers[i].bit_count() for i in inst.positions)
    lb = max(-(-inst.universe.bit_count() // maxgain), floor)
    if state.expired():  # the greedy pass used up the time limit
        return best, lb, len(best) == lb
    root = [] if inst.factors is None else inst.positions[:1]
    try:
        while len(best) > lb:
            k = len(best) - 1
            if refuter is not None and refuter(k):
                lb = len(best)
                break
            found = _exists_cover(inst, k, state, root)
            if found is None:
                lb = len(best)
                break
            best = found
        return best, lb, True
    except BudgetExhausted:
        return best, lb, False


# ==== bipartite structure ====


def bipartition(g: Graph) -> tuple[int, int] | None:
    """(side0 mask, side1 mask) from a layered BFS 2-coloring of each
    component from its smallest vertex, or None if an odd cycle exists.
    Isolated vertices land on side 0."""
    side = [0, 0]
    unseen = g.full_mask()
    while unseen:
        frontier = unseen & -unseen
        parity = 0
        while frontier:
            unseen &= ~frontier
            side[parity] |= frontier
            reach = 0
            for v in iter_bits(frontier):
                reach |= g.adj[v]
            frontier = reach & unseen
            parity ^= 1
    for s in side:
        for v in iter_bits(s):
            if g.adj[v] & s:
                return None  # an edge inside a BFS side closes an odd cycle
    return side[0], side[1]


def _side_symmetry(g: Graph):
    """g.factors when its symmetry acts on each side of g's bipartition,
    else None.

    That holds when exactly one factor has b = 2.  The product is then
    connected (Weichsel: a direct product of connected graphs is
    connected when at most one of them is bipartite), so its bipartition
    is unique: the partite sets of that factor.  Every automorphism keeps
    or swaps the two sides, those that keep them act transitively on
    each side, and the stabilizer of any vertex keeps them.  With two
    such factors the product is disconnected, and its BFS sides need not
    be unions of orbits.
    """
    if g.factors is not None and sum(b == 2 for _, _, b in g.factors) == 1:
        return g.factors
    return None


def _bipartite_gamma_refuter(g: Graph, sides: tuple[int, int], state: _SearchState):
    """Closure proving "no dominating set of size k" on a bipartite graph.

    A k-set splits i|j across the sides.  Side B is covered only by open
    neighborhoods from side A plus the j self-covered members, so when no
    i neighborhoods reach |B|-j elements (and symmetrically), the split
    is impossible.  All splits impossible proves gamma > k.  Balanced
    splits come first: they are the likeliest to survive, and one that
    survives ends the probe.  Under _side_symmetry the neighborhoods of
    a side are permuted transitively, so the max-coverage searches are
    rooted.
    """
    mask_a, mask_b = sides
    a_sets = [g.adj[v] for v in iter_bits(mask_a)]
    b_sets = [g.adj[v] for v in iter_bits(mask_b)]
    na = mask_a.bit_count()
    nb = mask_b.bit_count()
    rooted = _side_symmetry(g) is not None

    def refute(k: int) -> bool:
        for i in sorted(range(k + 1), key=lambda i: abs(2 * i - k)):
            j = k - i
            if not _max_cover_atleast(a_sets, mask_b, i, nb - j, state, rooted):
                continue
            if not _max_cover_atleast(b_sets, mask_a, j, na - i, state, rooted):
                continue
            return False  # split survives the relaxation: inconclusive
        return True

    return refute


# ==== gamma and gamma_total ====


def _solve_covers(quantity, method, parts, state, start, floor) -> SolveResult:
    """Minimum covers of independent instances, reported as one set.

    parts holds (instance, refuter) pairs for _min_cover; the witness is
    the union of their covers and lo the sum of their bounds, and at
    least floor, a proven lower bound on the total.  The last instance
    gets floor less the sizes of the covers before it as its own floor:
    each of those is at least its instance's minimum.  A part is
    complete exactly when its bound meets its cover, so the result is
    optimal when lo meets the witness.
    """
    chosen: list[list[int]] = []
    lo = 0
    for i, (inst, refuter) in enumerate(parts):
        own = floor - sum(map(len, chosen)) if i == len(parts) - 1 else 0
        best, lb, _ = _min_cover(inst, state, refuter, own)
        chosen.append(best)
        lo += lb
    lo = max(lo, floor)
    witness = tuple(sorted(v for part in chosen for v in part))
    value = len(witness)
    return SolveResult(
        quantity, value, witness, lo == value, method,
        lo=lo, hi=value, nodes=state.nodes, elapsed=time.monotonic() - start,
    )


def gamma_exact(
    g: Graph, budget: Budget | None = None, *, floor: int = 0
) -> SolveResult:
    """Exact domination number with witness; optimal=False only on budget
    exhaustion, in which case the witness is the best cover found.

    floor is a proven lower bound on gamma(g) (a theorem's lower side):
    the probes stop there instead of refuting floor - 1 by search.  The
    default 0 adds nothing.  A floor above gamma(g) is not detected
    here; the result then claims a lower side it does not have.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    start = time.monotonic()
    state = _SearchState(budget or Budget())
    full = g.full_mask()
    inst = _CoverInstance(full, [g.closed(v) for v in range(g.n)], full, g.factors)
    sides = bipartition(g)
    refuter = _bipartite_gamma_refuter(g, sides, state) if sides else None
    return _solve_covers(
        "gamma", "branch-and-bound", [(inst, refuter)], state, start, floor
    )


def gamma_total_exact(
    g: Graph, budget: Budget | None = None, *, floor: int = 0
) -> SolveResult:
    """Exact total domination number.  Errors on isolated vertices.  On
    bipartite graphs the problem splits into two independent one-sided
    covers, solved separately (method "reduction"); under _side_symmetry
    both carry the factor symmetry.

    floor is a proven lower bound on gamma_t(g), as in gamma_exact; on a
    bipartite graph it reaches the second cover, less the size of the
    first.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    for v in range(g.n):
        if g.adj[v] == 0:
            raise NoTotalDominationError(f"vertex {v} is isolated")
    start = time.monotonic()
    state = _SearchState(budget or Budget())
    sides = bipartition(g)
    if sides is None:
        full = g.full_mask()
        return _solve_covers("gamma_total", "branch-and-bound",
                             [(_CoverInstance(full, g.adj, full, g.factors), None)],
                             state, start, floor)
    mask_a, mask_b = sides
    factors = _side_symmetry(g)
    # D-members on side A are the only open coverage side B can get
    parts = [(_CoverInstance(mask_b, g.adj, mask_a, factors), None),
             (_CoverInstance(mask_a, g.adj, mask_b, factors), None)]
    return _solve_covers("gamma_total", "reduction", parts, state, start, floor)


# ==== upper domination ====


def _greedy_independent(g: Graph) -> int:
    """Ascending-index maximal independent set: always an (all-lonely)
    minimal dominating set, so a valid incumbent for upper domination."""
    m = 0
    for v in range(g.n):
        if g.adj[v] & m == 0:
            m |= 1 << v
    return m


def _later_mates(g: Graph, idx: int) -> int:
    """Mask of the vertices after idx in its orbit under the pointwise
    stabilizer of 0..idx-1 in g's factor symmetry (g.factors must be
    set).  Each set through one of them is the image of a set through
    idx under an automorphism that fixes every earlier decision, so
    gamma_upper_exact, having searched idx in, may leave them out with
    idx."""
    key = _orbit_key(g.factors, range(idx))
    if key is None:
        return 0
    mine = key(idx)
    return sum(1 << w for w in range(idx + 1, g.n) if key(w) == mine)


def _lex_generators(factors, n: int) -> list[list[tuple[int, int]]]:
    """Involutions that generate the factor symmetry group, each as the
    ascending list of the pairs (j, image of j) it moves, with j <
    image: per factor, the swaps of two neighbouring partite sets and of
    two neighbouring residues within one partite set; and the swaps of
    two neighbouring factors with equal (size, b).  They move O(t*n)
    vertices in all."""
    residues = [tuple(v // stride % size for stride, size, _ in factors) for v in range(n)]
    vertex = {c: v for v, c in enumerate(residues)}
    gens = []
    last: dict[tuple[int, int], int] = {}  # (size, b) -> latest factor seen
    for i, (_, size, b) in enumerate(factors):
        having = [[] for _ in range(size)]  # the vertices by residue in factor i
        for v, c in enumerate(residues):
            having[c[i]].append(v)
        # each swap as the residue pairs (r, s) it exchanges
        swaps = [[(r, r + 1) for r in range(p, size, b)] for p in range(b - 1)]
        swaps += [[(r, r + b)] for r in range(size - b)]
        for links in swaps:
            pairs = []
            for r, s in links:
                for v in having[r]:
                    c = residues[v]
                    w = vertex[c[:i] + (s,) + c[i + 1:]]
                    pairs.append((v, w) if v < w else (w, v))
            gens.append(sorted(pairs))
        k = last.get((size, b))
        if k is not None:
            images = (vertex[c[:k] + (c[i],) + c[k + 1:i] + (c[k],) + c[i + 1:]]
                      for c in residues)
            gens.append([(v, w) for v, w in enumerate(images) if v < w])
        last[size, b] = i
    return gens


def _lex_higher(gens, idx: int, in_mask: int, out_mask: int) -> bool:
    """The lex-leader test: whether some generator maps every completion
    of the node to a larger set.  It walks each generator's pairs while
    both ends are decided (below idx, or in OUT); at the first pair that
    differs, the image must be in IN and j not."""
    for pairs in gens:
        for j, w in pairs:
            if j >= idx or (w >= idx and not out_mask >> w & 1):
                break
            if (in_mask >> j ^ in_mask >> w) & 1:
                if in_mask >> w & 1:
                    return True
                break
    return False


def _unaddable(adj: Sequence[int], closed: Sequence[int], in_mask: int, cand: int) -> int:
    """The members of cand (disjoint from in_mask) that cannot join IN =
    in_mask without breaking Ore's criterion for IN plus themselves.

    With `once` and `twice` the vertices having at least one and at
    least two neighbors in IN, a member d keeps a private neighbor only
    in its pool adj[d] & ~IN & ~twice, and a newcomer v spoils pool
    vertex p when v is in closed[p].  So v breaks d when it lies in
    closed[p] for every p of the pool, and, while d is lonely, also in
    adj[d].  v itself fails when it has a neighbor in IN but none
    outside IN | once.  IN only grows, so pools only shrink: a vertex
    that cannot join IN cannot join any larger IN either.
    """
    once = twice = 0
    for d in iter_bits(in_mask):
        twice |= once & adj[d]
        once |= adj[d]
    kill = 0
    free = ~(in_mask | once)
    for v in iter_bits(cand & once):
        if adj[v] & free == 0:
            kill |= 1 << v
    outside = ~(in_mask | twice)
    for d in iter_bits(in_mask):
        hit = cand & ~kill
        if adj[d] & in_mask == 0:  # lonely while no newcomer sees it
            hit &= adj[d]
        for p in iter_bits(adj[d] & outside):
            if not hit:
                break
            hit &= closed[p]
        kill |= hit
    return kill


def gamma_upper_exact(
    g: Graph, budget: Budget | None = None, *, clique_size: int | None = None
) -> SolveResult:
    """Maximum size of a minimal dominating set.

    When the graph splits into cliques of size at least 2, every minimal
    dominating set has at most n/2 vertices (the cliques of its lonely
    members and the pairs of a social member and its private neighbor
    are disjoint), so the search stops at the first set of that size.
    That holds whenever g.factors is set: prod K[a_i,b_i] splits into
    cliques of size b_1 = min b_i.  Any clique_size says the
    same of a graph without factors; its value is not read, and the
    claim is trusted unchecked.
    """
    n = g.n
    if n == 0:
        raise ValueError("empty graph")
    start = time.monotonic()
    state = _SearchState(budget or Budget())
    adj = g.adj
    closed = [g.closed(v) for v in range(n)]
    full = g.full_mask()

    seed = _greedy_independent(g)
    best_mask = seed
    best_size = seed.bit_count()
    halves = clique_size is not None or g.factors is not None
    global_ub = n // 2 if halves else n
    if best_size >= global_ub:
        witness = tuple(iter_bits(best_mask))
        return SolveResult("upper", best_size, witness, True, "reduction",
                           lo=best_size, hi=best_size, nodes=0,
                           elapsed=time.monotonic() - start)

    # In/out search in index order for a minimal dominating set larger
    # than best_size; it stops at the first one of global_ub.  OUT holds
    # every undecided vertex that cannot join IN, so IN always satisfies
    # Ore's criterion.  A frame is (idx, in, out, covered, mated): the
    # "out" frame of vertex idx - 1 sits under its "in" frame, so it is
    # popped once that whole subtree is searched, and it then leaves out
    # the later orbit mates of `mated` too (-1 for none).  Some maximum
    # minimal dominating set of a graph with factors (vertex-transitive)
    # contains 0.
    prefix = (
        (1, 1, _unaddable(adj, closed, 1, full & ~1), closed[0], -1)
        if g.factors is not None else (0, 0, 0, 0, -1)
    )
    mates: dict[int, int] = {}
    gens = [] if g.factors is None else _lex_generators(g.factors, n)
    stack = [prefix]
    optimal = True
    try:
        while stack:
            idx, in_mask, out_mask, covered, mated = stack.pop()
            if mated >= 0:
                if mated not in mates:
                    mates[mated] = _later_mates(g, mated)
                out_mask |= mates[mated]
            state.tick()
            in_cnt = in_mask.bit_count()
            undecided = full >> idx << idx & ~out_mask
            if in_cnt + undecided.bit_count() <= best_size:
                continue
            if any(closed[u] & ~out_mask == 0 for u in iter_bits(full & ~covered)):
                continue  # some vertex can never be dominated now
            if _lex_higher(gens, idx, in_mask, out_mask):
                continue
            if idx == n:
                if covered == full:
                    best_mask, best_size = in_mask, in_cnt
                    if best_size >= global_ub:
                        break
                continue
            bit = 1 << idx
            if out_mask & bit:  # cannot join, or an orbit mate of an earlier vertex
                stack.append((idx + 1, in_mask, out_mask, covered, -1))
                continue
            grown = in_mask | bit
            stack.append((idx + 1, in_mask, out_mask | bit, covered,
                          -1 if g.factors is None else idx))
            stack.append((idx + 1, grown,
                          out_mask | _unaddable(adj, closed, grown, undecided & ~bit),
                          covered | closed[idx], -1))
    except BudgetExhausted:  # keeps the best set found before the cut
        optimal = False
    witness = tuple(iter_bits(best_mask))
    hi = best_size if optimal else global_ub
    return SolveResult(
        "upper", best_size, witness, optimal,
        "branch-and-bound", lo=best_size, hi=hi,
        nodes=state.nodes, elapsed=time.monotonic() - start,
    )
