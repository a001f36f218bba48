"""Checkers and exact solvers for domination, total domination, and
upper domination.

The checkers are one core, _certifies, that reads only the rows of the
set's members: a Graph's adjacency, or a descriptor's rows built
without the graph (theorems.certifies).

gamma_exact and gamma_total_exact treat the problem as minimum set cover
(universe = vertices, sets = closed / open neighborhoods) and run a
descending sequence of decision searches: a greedy incumbent first, then
"is there a cover one smaller?" until a search completes with no cover.
The incumbent, and each cover a search finds, is first shrunk by local
exchanges (_exchange: drop a redundant member, or replace two members
by one position), so the searches skip the sizes the exchanges reach.
A cover instance is the graph's adjacency itself: set positions are
vertex ids, a mask says which vertices may be chosen, and because
closed and open adjacency are symmetric, the sets containing element e
are just row e masked to the allowed vertices.  So setup costs O(n)
bigint operations and witnesses need no translation.  A bipartite graph
has two one-sided covers (_halves: side B by rows of side A, and the
reverse): total domination splits into them, and on them a domination
refutation can often dismiss all ways of splitting k vertices across
the two sides by max-coverage counting, far faster than raw branching.

gamma_upper_exact maximizes |D| over minimal dominating sets with an
in/out search in index order.  Each time a vertex joins IN, the
undecided vertices that can no longer join (_unaddable: IN plus that
vertex would break Ore's criterion, some member left neither lonely nor
with a private neighbor) move to OUT; IN only grows, so they could not
join any larger IN either, and IN itself always satisfies Ore.  A node
is pruned when IN plus room for more members is no larger than the best
set, or when some vertex can no longer be dominated.  Each node does
only new work: it goes straight to its next undecided vertex, past the
ones in OUT (every vertex before it is in IN or OUT, so a frame needs
no index), and its frame carries the masks its children update (the
vertices with one and with two neighbors in IN, and those just moved to
OUT), so the undominatable test looks only near the vertices just moved
to OUT, and a joining vertex redoes only the members whose private
neighbor pools it changed (_join).  The room is the
smaller of the still addable vertices and the vertices outside N[IN]:
each member v added later needs a private neighbor p, N[p] meeting the
final set in v alone, so p is not in N[IN], and distinct members have
distinct p.  The bound uses no symmetry, and it only drops subtrees
holding no set larger than the best, so the search records the same
sets in the same order with it as without it.  A graph that
splits into cliques of size at least 2 has no minimal dominating set of
more than n/2 vertices, and a product of K[a_i,b_i] splits into
cliques of size b_1 = min b_i >= 2, so with Graph.factors set the
search stops at the first set of n/2.

A caller that knows a proven lower bound on gamma or gamma_t can hand
it in: the keyword `floor` of gamma_exact and gamma_total_exact joins
the counting lower bound, so the probes stop there.  It is a
theorem-layer input (theorems.solve); its default 0 leaves every search
as it was.  Each solve keeps its clock and node count in one
_SearchState, from which its budget, nodes and elapsed time come.

Symmetry comes only from Graph.factors, which only builders set: the
graph is a product of balanced complete multipartite factors, so every
product of per-factor residue permutations that keep partite sets
together is an automorphism, and so is every swap of two factors with
equal (size, b).  _stabilizer(factors, fixed) gives the orbits of the
pointwise stabilizer of a set of fixed vertices as vertex masks: per
factor, the residues that the fixed vertices' residue columns do not
tell apart, one periodic mask each, ANDed across factors and ORed over
the ways to match equal factors, without listing any group element; a
search node builds it once and asks it for every refuted sibling.  Such
a graph is vertex-transitive, so for all three invariants some optimal
set contains vertex 0: each
decision probe of gamma_exact and gamma_total_exact looks only for sets
through 0, and gamma_upper_exact never leaves 0 out.  Beyond the root:
  - a probe that refutes a sibling bans its whole orbit under the
    stabilizer of the chosen vertices, as one mask (orbital fixing); an
    automorphism fixing them maps the instance onto itself and covers
    through an orbit mate onto covers through the sibling, of which
    there are none;
  - a probe also bans, without a search, a later candidate j that
    covers a subset of what a refuted sibling i covered of the
    remaining elements (the set-cover subset rule, here against
    refuted siblings only): swapping j for i in a cover through j
    leaves a cover, of no more sets, through i, and there is none.
    This rule needs no symmetry, so it prunes on every graph;
  - gamma_upper_exact, leaving vertex i out, also leaves out the later
    vertices in its orbit under the stabilizer of 0..i-1 (the "out"
    frame of i is pushed with them in its OUT); each set so
    dropped is the image of a set of the same size through i, which the
    "in" branch has already searched.  The vertices the addable filter
    moves to OUT are in no minimal dominating set of the subtree, and
    that set of vertices is mapped onto itself by every automorphism
    fixing IN; the search meets the same minimal dominating sets with
    the filter as without it, so the rule stays sound.
  - gamma_upper_exact keeps only the lex-leader of each orbit under the
    whole group: sets compare by their membership vectors in vertex
    order (member = 1), and _lex_generators lists involutions of the
    group: per factor, the swaps of two neighbouring partite sets and of
    two neighbouring residues within one partite set, the swaps of two
    neighbouring equal factors (these generate the group), and the
    product of one partite swap over any set of factors having those two
    partite sets (swaps in different factors commute, so it is an
    involution, and it keeps partite sets together, so an automorphism;
    checking more group elements prunes more).  A node is pruned when
    one of them maps every completion to a larger set: walking its moved
    pairs (j, image), j < image, in order while j is below the node's
    first undecided vertex idx, every pair up to the first that differs
    has both ends decided (below idx, or in OUT), and at that pair the
    image is in IN and j is not.  The largest member of its orbit passes
    this test against every group element, and it leaves out every
    vertex in OUT: the filter moves only vertices in no minimal
    dominating set of the subtree, and the orbit-mate rule keeps the
    largest member of each orbit.  The in-first search meets sets in
    decreasing order, so each set it records beats the best so far and
    is met before any smaller member of its orbit: it is the largest
    one.  So the test never drops a set the search records.
When exactly one factor has b = 2, the graph is connected and
bipartite, the automorphisms that keep its two sides act transitively
on each, the swap of that factor's two partite sets exchanges the
sides, and _halves gives both halves the factors.  Then:
  - gamma_total searches only the one-sided cover of side B, rooted at
    its first allowed vertex and orbit-pruned the same way; the cover of
    side A is its image under the swap, v -> v + stride;
  - the gamma refuter's max-coverage searches ban a refuted set's whole
    orbit under the stabilizer of the sets already chosen, at every
    depth (orbital fixing; at the root one side is one orbit, so the
    first refuted set ends the search), and each question is searched
    once, for both sides and every split and probe; since each split
    asks its question with fewer sets first, a split past the middle
    finds that question already answered for the mirror split.
These rules only drop subtrees that hold no better answer than one
already met, so values, and gamma and Gamma witnesses, are those of the
search without them, found in fewer nodes.  A rooted bipartite split
may find a different gamma_total witness of the same size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import combinations, permutations
from math import prod
from operator import itemgetter
from typing import Iterable, Sequence

from .graphs import Graph, iter_bits
from .numbertheory import periodic_mask

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
    """One solve's clock and node count: it starts when the solve does,
    and a node past the budget (None: the default Budget) raises
    BudgetExhausted."""

    __slots__ = ("nodes", "max_nodes", "start", "deadline")

    def __init__(self, budget: Budget | None):
        budget = budget or Budget()
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.start = time.monotonic()
        self.deadline = (
            None if budget.time_limit is None else self.start + budget.time_limit
        )

    def elapsed(self) -> float:
        return time.monotonic() - self.start

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
    The whole graph qualifies, and so does each half from _halves that
    carries factors."""

    __slots__ = ("universe", "covers", "allowed", "positions", "factors")

    def __init__(
        self, universe: int, covers: Sequence[int], allowed: int, factors=None
    ):
        self.universe = universe
        self.covers = covers
        self.allowed = allowed
        self.positions = list(iter_bits(allowed))
        self.factors = factors


def _stabilizer(factors, fixed: Iterable[int]):
    """The pointwise stabilizer of `fixed` in the factor symmetry group,
    or None when it is trivial (every orbit is one vertex): a function
    from a vertex to its orbit mask, each residue mask built once.

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
    entry.  So w lies in v's orbit iff some class-preserving sigma
    carries each factor's (pattern, entry) pair of v onto w's in the
    image factor.  The residues with a given entry form one mask: the
    residue of its member, the free residues of its member's partite
    set, or those of the free partite sets.  With one factor in its
    class, the orbit is the AND of those masks over factors; a class of
    equal factors ORs the ANDs over the distinct ways to deal v's
    entries to the factors of the same pattern.  Only the identity fixes
    every member when no entry has two residues and no two equal factors
    share a pattern.
    """
    fixed = list(fixed)
    n = prod(size for _, size, _ in factors)
    tables = []  # per factor: stride, size, b, column, first, first_set
    patterns: dict[tuple, int] = {}  # pattern -> small int
    classes: dict[tuple[int, int], dict] = {}  # (size, b) -> pattern -> factors
    trivial = True
    for stride, size, b in factors:
        column = [w // stride % size for w in fixed]
        first, first_set = {}, {}  # residue, partite set -> first member in it
        for m, r in enumerate(column):
            first.setdefault(r, m)
            first_set.setdefault(r % b, m)
        pattern = tuple((first[r], first_set[r % b]) for r in column)
        group = classes.setdefault((size, b), {}).setdefault(
            patterns.setdefault(pattern, len(patterns)), [])
        group.append(len(tables))
        tables.append((stride, size, b, column, first, first_set))
        # an entry names two residues when a partite set has two free ones
        # or the free partite sets hold two residues in all
        a = size // b
        taken = [0] * b
        for r in first:
            taken[r % b] += 1
        trivial &= len(group) == 1 and (b - len(first_set)) * a <= 1 and all(
            a - taken[c] <= 1 for c in first_set)
    if trivial:
        return None

    @cache
    def residues(i: int, m: int, m_set: int) -> int:
        # the vertices whose residue in factor i has the entry (m, m_set)
        stride, size, b, column, first, first_set = tables[i]
        if m >= 0:
            rs = [column[m]]
        elif m_set >= 0:
            rs = [r for r in range(column[m_set] % b, size, b) if r not in first]
        else:
            rs = [r for r in range(size) if r % b not in first_set]
        block = (1 << stride) - 1
        return periodic_mask(sum(block << r * stride for r in rs), stride * size, n)

    def orbit(v: int) -> int:
        def entry(i: int) -> tuple[int, int]:
            stride, size, b, _, first, first_set = tables[i]
            r = v // stride % size
            return first.get(r, -1), first_set.get(r % b, -1)

        mask = (1 << n) - 1
        for by_pattern in classes.values():
            for group in by_pattern.values():
                if len(group) == 1:
                    mask &= residues(group[0], *entry(group[0]))
                    continue
                union = 0
                for dealt in set(permutations(map(entry, group))):
                    part = mask
                    for i, e in zip(group, dealt):
                        part &= residues(i, *e)
                    union |= part
                mask = union
        return mask

    return orbit


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


def _exchange(inst: _CoverInstance, chosen: list[int], state: _SearchState) -> list[int]:
    """A cover no larger than `chosen`, improved by local moves until
    none applies: drop a member that alone covers nothing, or replace
    two members a, b by one position c that covers everything only a
    and b cover.  With `one` and `two` the elements covered exactly once
    and exactly twice, that is need = (a | b) & one | a & b & two, and
    since covers is symmetric, the positions covering need are the
    allowed ones in covers[e] for every e in need.  Each move shrinks
    the cover and restarts the sweep, so there are at most len(chosen)
    sweeps of O(len(chosen)^2) pair tests.  With inst.factors the root
    (the first allowed position) stays.  Past the deadline it returns
    what it has; it reads the clock once per outer member and counts no
    nodes."""
    covers, universe, allowed = inst.covers, inst.universe, inst.allowed
    root = -1 if inst.factors is None else inst.positions[0]
    chosen = list(chosen)
    moved = True
    while moved:
        moved = False
        rows = [covers[v] & universe for v in chosen]
        once = twice = thrice = 0
        for row in rows:
            thrice |= twice & row
            twice |= once & row
            once |= row
        one, two = once & ~twice, twice & ~thrice
        alone = [row & one for row in rows]  # what only that member covers
        for x, a in enumerate(chosen):
            if state.expired():
                return chosen
            if a == root:
                continue
            if not alone[x]:
                del chosen[x]
                moved = True
                break
            for y in range(x + 1, len(chosen)):
                if chosen[y] == root:
                    continue
                need = alone[x] | alone[y] | rows[x] & rows[y] & two
                c = allowed
                while need and c:
                    low = need & -need
                    c &= covers[low.bit_length() - 1]
                    need ^= low
                if c:
                    chosen[x] = (c & -c).bit_length() - 1
                    del chosen[y]
                    moved = True
                    break
            if moved:
                break
    return chosen


def _exists_cover(inst: _CoverInstance, k: int, state: _SearchState) -> list[int] | None:
    """Find set positions (at most k) covering the universe, or prove
    none exist.  Exact decision search.  With inst.factors some minimum
    cover holds the first allowed position, so the search starts there.

    A position is banned at a node once no cover of at most k sets
    contains it together with the node's chosen positions; so a child
    that finds no cover avoiding the banned positions proves that none
    goes through its candidate at all.  Two rules ban positions without
    a search.  A candidate j whose covers[j] & remaining is a subset of
    a refuted sibling i's is banned: a cover through j, with j replaced
    by i, still covers remaining, with no more sets.  Only the node's
    own siblings are compared; comparing with every banned position
    saves few nodes and costs more than it saves.  With inst.factors, a
    refuted sibling's whole orbit under the pointwise stabilizer of the
    chosen positions is banned among the allowed ones: an automorphism
    fixing them keeps the universe and the allowed set, and maps covers
    through an orbit mate onto covers through the sibling, which has
    none.  A node builds the stabilizer of its chosen positions once,
    when its first sibling is refuted, and asks it for the orbit of
    each refuted sibling; a trivial stabilizer stops the rule below the
    node: children fix more.
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
        refuted = []  # what each refuted sibling covers of remaining
        orbit = None  # the stabilizer of chosen, once a sibling is refuted
        for i in order:
            if banned >> i & 1:  # in the orbit of a refuted sibling
                continue
            mine = covers[i] & remaining
            if any(mine & ~gain == 0 for gain in refuted):
                banned |= 1 << i  # dominated by a refuted sibling
                continue
            res = rec(remaining & ~covers[i], banned, k - 1, chosen + [i], factors)
            if res is not None:
                return res
            banned |= 1 << i  # anything through i is now fully refuted
            refuted.append(mine)
            if factors is not None:
                orbit = orbit or _stabilizer(factors, chosen)
                if orbit is None:  # a trivial stabilizer stays trivial below
                    factors = None
                else:
                    banned |= orbit(i) & allowed
        return None

    root = [] if inst.factors is None else positions[:1]
    remaining = inst.universe & ~covers[root[0]] if root else inst.universe
    return rec(remaining, 0, k - len(root), root, inst.factors)


def _max_cover_atleast(
    inst: _CoverInstance, count: int, target: int, state: _SearchState
) -> bool:
    """Can `count` of the instance's sets cover at least `target`
    elements of its universe?  Exact include/exclude search with a
    top-marginal-sum bound.

    A node ranks its pool by marginal gain over `covered` once.  It then
    walks down the ranking: each step includes the best set left (a
    recursive call, one `left` fewer) and, if that fails, excludes it.
    Excluding leaves `covered` as it is, so the rest keeps its ranking
    and marginals, and each exclude step is one loop iteration rather
    than a frame, and one node unless it leaves no set to try.  So the
    depth is at most `count`.  A child gets the ranked pool as it is
    and ranks it again by its own marginals.

    inst.factors, when set, says that inst is a half from _halves with
    the factor symmetry.  Then an exclude step drops the excluded set's
    whole orbit under the pointwise stabilizer of the node's chosen
    vertices C (orbital fixing).  Every automorphism that maps a vertex
    of one side into that side keeps both sides, so it maps a selection
    through an orbit mate onto one through the refuted set, with the
    same coverage.  That selection comes from the node's pool, too:
    each pool is the root's less whole orbits of the stabilizers of its
    ancestors' chosen sets, and less the ancestors' chosen sets, so the
    stabilizer of C keeps it.  At the root, C is empty and the side is
    one orbit, so the root's first refuted set ends it.  A node builds
    the stabilizer of C once, when its first include fails."""
    if target <= 0:
        return True
    if count <= 0:
        return False
    universe, covers = inst.universe, inst.covers
    # pool entries are (marginal, set, vertex); the root ranks its own
    pool = [(0, covers[v] & universe, v) for v in inst.positions if covers[v] & universe]

    def rec(pool, chosen: list[int], covered: int, left: int, factors) -> bool:
        state.tick()
        base = covered.bit_count()
        if base >= target:
            return True
        if left == 0 or not pool:
            return False
        ranked = sorted([((s & ~covered).bit_count(), s, v) for _, s, v in pool],
                        key=itemgetter(0))
        orbit = None  # the stabilizer of chosen, once an include fails
        while ranked:
            if base + sum(m for m, _, _ in ranked[-left:]) < target:
                return False
            _, s, v = ranked.pop()
            if rec(ranked, chosen + [v], covered | s, left - 1, factors):
                return True
            if factors is not None:
                orbit = orbit or _stabilizer(factors, chosen)
                if orbit is None:  # a trivial stabilizer stays trivial below
                    factors = None
                else:
                    mates = orbit(v)
                    ranked = [e for e in ranked if not mates >> e[2] & 1]
            if ranked:
                state.tick()  # the node that excludes v, with its orbit
        return False

    return rec(pool, [], 0, count, inst.factors)


def _min_cover(
    inst: _CoverInstance, state: _SearchState, refuter, floor: int
) -> tuple[list[int], int]:
    """Minimum cover by descending decision probes, from the greedy
    cover.  The greedy cover and each cover a probe finds go through
    _exchange first, so the next probe asks for one less than the
    exchanged size.

    Returns (best set positions, proven lower bound); the search
    finished exactly when the bound meets the cover's size.  The
    refuter, when not None, may prove "no k-cover" cheaply; returning False
    just falls through to the exact search.  floor is a lower bound the
    caller has proven: it joins the counting bound, where probes stop.
    """
    best = _exchange(inst, _greedy_cover(inst, state), state)
    maxgain = max(inst.covers[i].bit_count() for i in inst.positions)
    lb = max(-(-inst.universe.bit_count() // maxgain), floor)
    if state.expired():  # the greedy pass used up the time limit
        return best, lb
    try:
        while len(best) > lb:
            k = len(best) - 1
            if refuter is not None and refuter(k):
                lb = len(best)
                break
            found = _exists_cover(inst, k, state)
            if found is None:
                lb = len(best)
                break
            best = _exchange(inst, found, state)
    except BudgetExhausted:
        pass
    return best, lb


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


def _halves(g: Graph) -> tuple[_CoverInstance, _CoverInstance] | None:
    """The two one-sided covers of a bipartite g, or None on an odd
    cycle: with (A, B) = bipartition(g), B covered by the open rows of
    A, then A by those of B.  They carry g.factors when exactly one
    factor has b = 2.  The product is then connected (Weichsel: a direct
    product of connected graphs is connected when at most one of them is
    bipartite), so its bipartition is unique: the partite sets of that
    factor, A those of even residue.  Every automorphism keeps or swaps
    the sides, those that keep them act transitively on each, and the
    stabilizer of any vertex keeps them, as _CoverInstance asks.  With
    two such factors the product is disconnected, and its BFS sides need
    not be unions of orbits.
    """
    sides = bipartition(g)
    if sides is None:
        return None
    one = g.factors is not None and sum(f[2] == 2 for f in g.factors) == 1
    factors = g.factors if one else None
    a, b = sides
    return _CoverInstance(b, g.adj, a, factors), _CoverInstance(a, g.adj, b, factors)


def _bipartite_gamma_refuter(halves, state: _SearchState):
    """Closure proving gamma > k on a bipartite graph, from its _halves.

    A k-set splits i|j across the sides.  Side B is covered only by open
    neighborhoods from side A plus the j self-covered members, so when no
    i neighborhoods reach |B|-j elements (and symmetrically), the split
    is impossible.  All splits impossible proves gamma > k.  Balanced
    splits come first: they are the likeliest to survive, and one that
    survives ends the probe.  Within a split, the question with fewer
    sets comes first: it is the likelier to fail, and a failure settles
    the split without the other.  Each max-coverage question (side,
    count, target) is searched once per closure, across splits and
    probes.  When the halves carry factors the searches fix orbits, and
    the swap of the b = 2 factor's partite sets maps one side onto the
    other, so both sides share their answers: the first question of
    split i > k/2 is the first of split k - i, already answered.
    """
    sizes = [inst.universe.bit_count() for inst in halves]
    shared = halves[0].factors is not None
    memo: dict[tuple[int, int, int], bool] = {}

    def reaches(side: int, count: int, short: int) -> bool:
        # can `count` sets of this side cover all but `short` of the other
        key = (0 if shared else side, count, sizes[side] - short)
        if key not in memo:
            memo[key] = _max_cover_atleast(halves[side], count, key[2], state)
        return memo[key]

    def refute(k: int) -> bool:
        for i in sorted(range(k + 1), key=lambda i: abs(2 * i - k)):
            # the question with fewer sets first: it fails more often
            first, second = (0, i, k - i), (1, k - i, i)
            if 2 * i > k:
                first, second = second, first
            if reaches(*first) and reaches(*second):
                return False  # split survives the relaxation: inconclusive
        return True

    return refute


# ==== gamma and gamma_total ====


def _solve_covers(quantity, method, parts, state, floor, mirror=None) -> SolveResult:
    """Minimum covers of independent instances, reported as one set.

    parts holds (instance, refuter) pairs for _min_cover; the witness is
    the union of their covers and lo the sum of their bounds, and at
    least floor, a proven lower bound on the total.  The last instance
    gets floor less the sizes of the covers before it as its own floor:
    each of those is at least its instance's minimum.  mirror, when
    given, is an automorphism that maps the one instance of parts onto
    the other half of the problem: that half's cover is the image of the
    cover found and its bound is the same, so lo counts twice and the
    instance searched gets half the floor, rounded up.  A part is
    complete exactly when its bound meets its cover, so the result is
    optimal when lo meets the witness.
    """
    copies = 1 if mirror is None else 2
    chosen: list[list[int]] = []
    lo = 0
    for i, (inst, refuter) in enumerate(parts):
        own = -((sum(map(len, chosen)) - floor) // copies) if i == len(parts) - 1 else 0
        best, lb = _min_cover(inst, state, refuter, own)
        chosen.append(best)
        lo += lb
    if mirror is not None:
        chosen.append([mirror(v) for v in chosen[0]])
        lo *= 2
    lo = max(lo, floor)
    witness = tuple(sorted(v for part in chosen for v in part))
    value = len(witness)
    return SolveResult(
        quantity, value, witness, lo == value, method,
        lo=lo, hi=value, nodes=state.nodes, elapsed=state.elapsed(),
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
    state = _SearchState(budget)
    full = g.full_mask()
    inst = _CoverInstance(full, [g.closed(v) for v in range(g.n)], full, g.factors)
    halves = _halves(g)
    refuter = _bipartite_gamma_refuter(halves, state) if halves else None
    return _solve_covers("gamma", "branch-and-bound", [(inst, refuter)], state, floor)


def gamma_total_exact(
    g: Graph, budget: Budget | None = None, *, floor: int = 0
) -> SolveResult:
    """Exact total domination number.  Errors on isolated vertices.  On
    bipartite graphs the problem splits into the two independent
    one-sided covers of _halves, solved separately (method "reduction");
    when they carry factors, the two are mirror images, so the cover of
    side B is searched, with the factor symmetry, and that of side A is
    its image.

    floor is a proven lower bound on gamma_t(g), as in gamma_exact; on a
    bipartite graph it reaches the second cover, less the size of the
    first, or half of it, rounded up, when the one cover is searched.
    """
    for v in range(g.n):
        if g.adj[v] == 0:
            raise NoTotalDominationError(f"vertex {v} is isolated")
    state = _SearchState(budget)
    halves = _halves(g)
    if halves is None:
        full = g.full_mask()
        return _solve_covers("gamma_total", "branch-and-bound",
                             [(_CoverInstance(full, g.adj, full, g.factors), None)],
                             state, floor)
    # D-members on side A are the only open coverage side B can get
    parts = [(inst, None) for inst in halves]
    if halves[0].factors is None:
        return _solve_covers("gamma_total", "reduction", parts, state, floor)
    # the swap of the b = 2 factor's partite sets maps side A onto side B
    # and the half covering B onto the other; on side A, of even residue c
    # there, it is c -> c ^ 1 = c + 1: v -> v + stride (on X_n, v + 1)
    (stride, _, _), = [f for f in halves[0].factors if f[2] == 2]
    return _solve_covers("gamma_total", "reduction", parts[:1], state, floor,
                         lambda v: v + stride)


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
    orbit = _stabilizer(g.factors, range(idx))
    return 0 if orbit is None else orbit(idx) >> idx + 1 << idx + 1


def _lex_generators(factors, n: int) -> list[list[tuple[int, int]]]:
    """Involutions of the factor symmetry group, each as the ascending
    list of the pairs (j, image of j) it moves, with j < image, listed
    by their first moved j:
      - for each two neighbouring partite sets p, p + 1 and each nonempty
        set T of the factors having them (b > p + 1), the swap of the
        two sets in every factor of T at once.  Swaps in different
        factors commute and each is its own inverse, so their product
        is an involution; it keeps partite sets together, so it is an
        automorphism.  With t_p such factors there are 2^t_p - 1 of
        them for each p;
      - per factor, the swaps of two neighbouring residues within one
        partite set;
      - the swaps of two neighbouring factors with equal (size, b).
    Those with |T| = 1 and the other two kinds generate the group; the
    products over |T| >= 2 add no element to it, but the lex-leader
    test checks each listed involution, so they prune more."""
    residues = [tuple(v // stride % size for stride, size, _ in factors) for v in range(n)]
    vertex = {c: v for v, c in enumerate(residues)}

    def permuting(i: int, image: list[int]) -> list[int]:  # image: of factor i's residues
        return [vertex[c[:i] + (image[c[i]],) + c[i + 1:]] for c in residues]

    maps = []  # each involution as the list of the images of 0..n-1
    for p in range(max(b for _, _, b in factors) - 1):
        swaps = [permuting(i, [r + 1 if r % b == p else r - 1 if r % b == p + 1 else r
                               for r in range(size)])
                 for i, (_, size, b) in enumerate(factors) if b > p + 1]
        for t in range(1, len(swaps) + 1):
            maps += [reduce(lambda f, g: [f[v] for v in g], chosen)
                     for chosen in combinations(swaps, t)]
    last: dict[tuple[int, int], int] = {}  # (size, b) -> latest factor seen
    for i, (_, size, b) in enumerate(factors):
        for r in range(size - b):
            image = list(range(size))
            image[r], image[r + b] = r + b, r
            maps.append(permuting(i, image))
        k = last.get((size, b))
        if k is not None:
            maps.append([vertex[c[:k] + (c[i],) + c[k + 1:i] + (c[k],) + c[i + 1:]]
                         for c in residues])
        last[size, b] = i
    gens = [[(v, w) for v, w in enumerate(images) if v < w] for images in maps]
    gens.sort(key=lambda pairs: pairs[0][0])
    return gens


def _lex_higher(gens, idx: int, in_mask: int, out_mask: int) -> bool:
    """The lex-leader test: whether some generator maps every completion
    of the node to a larger set.  It walks each generator's pairs while
    both ends are decided (below idx, or in OUT); at the first pair that
    differs, the image must be in IN and j not.  gens are listed by
    their first moved j, and a generator whose first j is not below idx
    stops at its first pair, so the walk stops at the first of those."""
    for pairs in gens:
        if pairs[0][0] >= idx:
            break
        for j, w in pairs:
            if j >= idx or (w >= idx and not out_mask >> w & 1):
                break
            if (in_mask >> j ^ in_mask >> w) & 1:
                if in_mask >> w & 1:
                    return True
                break
    return False


def _unaddable(
    adj: Sequence[int], closed: Sequence[int], in_mask: int, cand: int,
    once: int, twice: int, members: int,
) -> int:
    """The members of cand (disjoint from in_mask) that cannot join IN =
    in_mask without breaking Ore's criterion for IN plus themselves;
    once and twice are the vertices having at least one and at least
    two neighbors in IN.

    v itself fails when it has a neighbor in IN but none outside
    N[IN] = IN | once.  A member d keeps a private neighbor only in its
    pool adj[d] & ~IN & ~twice, and a newcomer v spoils pool vertex p
    when v is in closed[p].  So v breaks d when it lies in closed[p] for
    every p of the pool, and, while d is lonely, also in adj[d].  IN
    only grows, so pools only shrink: a vertex that cannot join IN
    cannot join any larger IN either.  Only the members of IN in
    `members` have their pools walked: in_mask for all of them, or those
    whose pools _join's newcomer changed.
    """
    reach = 0  # the neighbors of the vertices outside N[IN]
    for u in iter_bits(((1 << len(adj)) - 1) & ~(in_mask | once)):
        reach |= adj[u]
    kill = cand & once & ~reach
    outside = ~(in_mask | twice)
    for d in iter_bits(in_mask & members):
        hit = cand & ~kill
        if adj[d] & in_mask == 0:  # lonely while no newcomer sees it
            hit &= adj[d]
        for p in iter_bits(adj[d] & outside):
            if not hit:
                break
            hit &= closed[p]
        kill |= hit
    return kill


def _join(
    adj: Sequence[int], closed: Sequence[int], in_mask: int, once: int, twice: int,
    v: int, cand: int,
) -> tuple[int, int, int]:
    """v joins IN = in_mask, whose once and twice masks are given, when
    no member of cand is unaddable to IN: the members of cand that can
    no longer join, and the new once and twice.

    A member's kills depend only on its pool and on whether it is
    lonely, and those change only for v, for the members next to v, and
    for the one member next to each pool vertex that v makes twice
    dominated.  Every other member kills among cand what it killed
    before, which is nothing; so only the changed members are walked.
    """
    row = adj[v]
    members = 1 << v | in_mask & row
    for p in iter_bits(once & row & ~(twice | in_mask)):  # newly twice dominated
        members |= adj[p] & in_mask
    once, twice = once | row, twice | once & row
    return _unaddable(adj, closed, in_mask | 1 << v, cand, once, twice, members), once, twice


def gamma_upper_exact(
    g: Graph, budget: Budget | None = None, *, clique_size: int | None = None
) -> SolveResult:
    """Maximum size of a minimal dominating set.

    A node with members IN is pruned once |IN| plus the smaller of its
    addable vertices and its vertices outside N[IN] is no larger than the
    best set: every member added later owns a private neighbor outside
    N[IN], distinct members distinct ones (Ore's criterion).

    A node branches on its first undecided vertex, stepping over those
    already in OUT: the room, the undominatable test and the lex-leader
    test read the same masks at each vertex stepped over, and the last
    prunes at a later vertex whenever it does at an earlier one.  A
    vertex becomes undominatable only when a vertex of its closed
    neighborhood has just moved to OUT, so only the uncovered vertices
    near those are tested; the parent passed the test for the rest.

    When the graph splits into cliques of size at least 2, every minimal
    dominating set has at most n/2 vertices (the cliques of its lonely
    members and the pairs of a social member and its private neighbor
    are disjoint), so the search stops at the first set of that size.
    That holds whenever g.factors is set: prod K[a_i,b_i] splits into
    cliques of size b_1 = min b_i.  Every structural fact (this cap, the
    root at vertex 0, the lex-leader generators and the later orbit
    mates) is read from g.factors alone; clique_size is not read.
    """
    n = g.n
    state = _SearchState(budget)
    adj = g.adj
    closed = [g.closed(v) for v in range(n)]
    full = g.full_mask()

    best_mask = _greedy_independent(g)
    best_size = best_mask.bit_count()
    cap = n if g.factors is None else n // 2

    # In/out search in index order for a minimal dominating set larger
    # than best_size; it stops at the first one of cap.  OUT holds
    # every undecided vertex that cannot join IN, so IN always satisfies
    # Ore's criterion.  A frame is (in, out, once, twice, fresh): once
    # and twice as in _unaddable, and fresh the vertices its parent
    # moved to OUT.  Every vertex below the frame's first undecided
    # vertex is in IN or OUT, so that vertex is the one to branch on:
    # the tests below read the same masks at every vertex of OUT
    # stepped over.  The "out" frame of a vertex sits under its "in"
    # frame, so it is popped once that whole subtree is searched; its
    # OUT holds the vertex's later orbit mates too.  Some maximum
    # minimal dominating set of a graph with factors (vertex-transitive)
    # contains 0.  A greedy set already at the cap leaves nothing to search.
    stack, gens, later = [], [], lambda idx: 0
    if best_size < cap:
        if g.factors is None:
            stack.append((0, 0, 0, 0, 0))
        else:
            kill, once, twice = _join(adj, closed, 0, 0, 0, 0, full & ~1)
            stack.append((1, kill, once, twice, kill))
            gens, later = _lex_generators(g.factors, n), cache(partial(_later_mates, g))
    optimal = True
    try:
        while stack:
            in_mask, out_mask, once, twice, fresh = stack.pop()
            state.tick()
            in_cnt = in_mask.bit_count()
            undecided = full & ~(in_mask | out_mask)
            uncovered = full & ~(in_mask | once)
            if in_cnt + min(undecided.bit_count(), uncovered.bit_count()) <= best_size:
                continue
            # some vertex can never be dominated now; the parent passed
            # this test, so only a vertex next to one just moved to OUT
            # can fail it
            reach = 0
            for v in iter_bits(fresh):
                reach |= closed[v]
            if any(closed[u] & ~out_mask == 0 for u in iter_bits(uncovered & reach)):
                continue
            idx = (undecided & -undecided).bit_length() - 1 if undecided else n
            if _lex_higher(gens, idx, in_mask, out_mask):
                continue
            if not undecided:
                if not uncovered:
                    best_mask, best_size = in_mask, in_cnt
                    if best_size >= cap:
                        break
                continue
            bit = 1 << idx
            dropped = bit | later(idx)
            stack.append((in_mask, out_mask | dropped, once, twice, dropped & ~out_mask))
            kill, grown_once, grown_twice = _join(adj, closed, in_mask, once, twice,
                                                  idx, undecided & ~bit)
            stack.append((in_mask | bit, out_mask | kill, grown_once, grown_twice, kill))
    except BudgetExhausted:  # keeps the best set found before the cut
        optimal = False
    return SolveResult(
        "upper", best_size, tuple(iter_bits(best_mask)), optimal,
        "branch-and-bound" if state.nodes else "reduction",
        lo=best_size, hi=best_size if optimal else cap,
        nodes=state.nodes, elapsed=state.elapsed(),
    )
