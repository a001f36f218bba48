"""The benchmark's workloads: the calls of one pass, made from a seed.

A call is one request a user makes of domprod: a library solve (graph
build plus exact search) or one `domprod` command run in-process through
cli.main.  Every call carries its own answer check from verify.py.  All
calls run in one process and one thread as a closed loop with a single
caller: each call starts when the previous one has returned.

Why each workload exists, what it should show and what was left out is
in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import verify as V

# every library solve gets this budget; none comes near it
NODE_BUDGET = 10**12

_SOLVER = {"gamma": "gamma_exact", "gamma_total": "gamma_total_exact", "upper": "gamma_upper_exact"}
_VERB = {"gamma": "gamma", "gammat": "gamma_total", "upper": "upper"}


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    # payload -> (answer is right, search nodes spent, reason if not)
    check: Callable[[object], tuple[bool, int, str]]
    probe: bool = False
    repeat: bool = False  # a solve asked before in the pass: a cache hit, no search


def _mark_repeats(calls: list[Call]) -> list[Call]:
    seen = set()
    for call in calls:
        if call.label.startswith("solve "):
            call.repeat = call.label in seen
            seen.add(call.label)
    return calls


# ==== library solves ====


def library_solve(pkg, quantity: str, descriptor: str, expected: int) -> Call:
    """Build the graph with domprod and solve it exactly; the answer must
    be optimal, equal `expected` and come with a witness that passes the
    benchmark's own checker."""
    own = V.parse_descriptor(descriptor)
    budget = pkg.Budget(max_nodes=NODE_BUDGET, time_limit=None)
    if isinstance(own, V.Ucg):
        build = lambda: pkg.unitary_cayley(own.n)
        clique = V.factorize(own.n)[0][0]
    else:
        spec = pkg.ProductSpec.from_pairs(own.pairs)
        build = lambda: pkg.product_spec_graph(spec)
        clique = own.pairs[0][1]

    def run():
        solver = getattr(pkg, _SOLVER[quantity])  # looked up per call, so tracing sees it
        if quantity == "upper":
            return solver(build(), budget, clique_size=clique)
        return solver(build(), budget)

    def check(res):
        if not res.optimal:
            return False, res.nodes, "not optimal"
        if res.value != expected:
            return False, res.nodes, f"value {res.value}, expected {expected}"
        if len(res.witness) != res.value or not V.check_set(own, res.witness, quantity):
            return False, res.nodes, "witness fails the independent check"
        return True, res.nodes, ""

    return Call(f"{quantity} {descriptor}", run, check)


# ==== CLI commands and their checks ====


def cli_call(cli, argv: list[str], probe: bool = False) -> Call:
    checker = _CLI_CHECKS[argv[0]]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a command line this way
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return code, out.getvalue(), err.getvalue()

    def check(payload):
        code, out, err = payload
        if code != 0:
            return False, 0, f"exit code {code}: {err.strip()}"
        try:
            records = [json.loads(line) for line in out.splitlines()]
        except ValueError:
            return False, 0, "output is not JSON lines"
        return checker(argv, records)

    return Call(" ".join(argv), run, check, probe)


def _fail(why: str, nodes: int = 0):
    return False, nodes, why


def _check_solve(argv, recs):
    quantity = _VERB[argv[1]]
    if len(recs) != 1:
        return _fail(f"{len(recs)} records")
    r = recs[0]
    graph = V.parse_descriptor(r["descriptor"])
    asked = V.parse_descriptor(argv[2])
    if vars(graph) != vars(asked) or r["quantity"] != quantity:
        return _fail(f"answers {r['quantity']} {r['descriptor']}")
    expected = V.expected_value(quantity, r["descriptor"])
    if not r["optimal"] or r["value"] != expected:
        return _fail(f"value {r['value']} optimal {r['optimal']}, expected {expected}", r["nodes"])
    if len(r["witness"]) != r["value"] or not V.check_set(graph, r["witness"], quantity):
        return _fail("witness fails the independent check", r["nodes"])
    return True, r["nodes"], ""


def _check_scan(argv, recs):
    lo, hi = int(argv[argv.index("--min") + 1]), int(argv[argv.index("--max") + 1])
    if [r["n"] for r in recs] != list(range(lo, hi + 1)):
        return _fail("scan skipped or repeated n")
    nodes = 0
    for r in recs:
        n, g = r["n"], V.jacobsthal(r["n"])
        nodes += r.get("nodes", 0)
        expected = V.expected_value("gamma", f"ucg:{n}")
        if r["g"] != g:
            return _fail(f"n={n}: g {r['g']}, expected {g}", nodes)
        if r["status"] != ("member" if expected < g else "non-member") or r.get("value") != expected:
            return _fail(f"n={n}: {r['status']} value {r.get('value')}, gamma {expected}", nodes)
        if r["status"] == "member" and (
            len(r["witness"]) != expected or not V.check_set(V.Ucg(n), r["witness"], "gamma")
        ):
            return _fail(f"n={n}: witness fails the independent check", nodes)
    return True, nodes, ""


def _check_jacobsthal(argv, recs):
    lo, hi = (int(x) for x in argv[1].split(".."))
    if [r["n"] for r in recs] != list(range(lo, hi + 1)):
        return _fail("range skipped or repeated n")
    for r in recs:
        n = r["n"]
        if r["value"] != V.jacobsthal(n) or r["run_length"] != r["value"] - 1:
            return _fail(f"g({n}) = {r['value']}, expected {V.jacobsthal(n)}")
        if not V.noncoprime_run(n, r["run_start"], r["run_length"]):
            return _fail(f"n={n}: reported run has a coprime member")
    return True, 0, ""


def _check_witness(argv, recs):
    if len(recs) != 1:
        return _fail(f"{len(recs)} records")
    r = recs[0]
    n = r["n"]
    if argv[1] == "thm6":
        j = int(argv[argv.index("--j") + 1])
        dset, start, kind = r["D"], r["z"], "gamma_total"
        if len(V.factorize(n)) < j:
            return _fail(f"n={n} has fewer than {j} prime factors")
    else:
        family, p1, p2 = (int(argv[argv.index(k) + 1]) for k in ("--family", "--p1", "--p2"))
        dset, start, kind = r["dominating_set"], r["x"], "gamma"
        if n != (2 if family == 1 else 6) * p1 * p2:
            return _fail(f"n={n} does not match family {family}")
    if not r["verified"] or r["size"] != len(dset):
        return _fail("certificate not verified")
    if r["g_lower"] != r["run_length"] + 1 or not V.noncoprime_run(n, start, r["run_length"]):
        return _fail("coprime-free run does not hold")
    if not len(dset) < r["g_lower"]:
        return _fail("set is not smaller than g(n)")
    if not V.check_set(V.Ucg(n), dset, kind):
        return _fail("set fails the independent check")
    return True, 0, ""


def _check_construct(argv, recs):
    n = int(argv[2])
    if len(recs) != 1:
        return _fail(f"{len(recs)} records")
    r = recs[0]
    if r["vertex_set"] != list(range(V.jacobsthal(n))) or not r["verified"]:
        return _fail("not the verified run 0..g(n)-1")
    if not V.check_set(V.Ucg(n), r["vertex_set"], "gamma_total"):
        return _fail("set fails the independent check")
    return True, 0, ""


def _check_bounds(argv, recs):
    desc = argv[1]
    graph = V.parse_descriptor(desc)
    wanted = ["gamma"] if isinstance(graph, V.Ucg) else ["gamma", "upper"]
    if [r["quantity"] for r in recs] != wanted:
        return _fail(f"quantities {[r['quantity'] for r in recs]}")
    for r in recs:
        expected = V.expected_value(r["quantity"], desc)
        if not r["lo"] <= expected <= r["hi"]:
            return _fail(f"{r['quantity']} [{r['lo']}, {r['hi']}] misses {expected}")
    return True, 0, ""


_CLI_CHECKS = {
    "solve": _check_solve,
    "scan": _check_scan,
    "jacobsthal": _check_jacobsthal,
    "witness": _check_witness,
    "construct": _check_construct,
    "bounds": _check_bounds,
}

# Five quick commands that end each pass of the two library workloads, so
# that every per-layer time (cli and its cache, theorems, numbertheory) is
# a measured figure there too, never a constant 0; together they take about
# 20 ms.  They count in no end-to-end metric: not in wall_s, search_nodes
# or the call percentiles.
PROBE = [
    ["solve", "gamma", "ucg:30"],
    ["solve", "gamma", "ucg:30"],
    ["witness", "prop1", "--family", "1", "--p1", "3", "--p2", "5"],
    ["construct", "consecutive", "30"],
    ["bounds", "ucg:30"],
]


# ==== the workloads ====


# the odd squarefree n in [400, 500] with three prime factors; the seed
# picks one, and the default seed 1 picks 483
ODD_THREE_PRIME = [483, 429, 435, 455, 465]


def search_hard(pkg, cli, seed: int) -> list[Call]:
    """Mid-size instances that are hard to search, in a seeded order."""
    n = ODD_THREE_PRIME[(seed - 1) % len(ODD_THREE_PRIME)]
    instances = [
        ("gamma", f"ucg:{n}", V.eq7(n)),
        ("gamma", "K[1,2]xK[1,3]xK[1,5]xK[1,7]", V.expected_value("gamma", "K[1,2]xK[1,3]xK[1,5]xK[1,7]")),
        ("upper", "K[1,3]xK[1,3]xK[1,3]", V.upper_value([(1, 3)] * 3)),
        # no closed form applies; 5 = g(165) is the value the exhaustive
        # search proves, and it stays fixed whatever the solver does
        ("gamma_total", "ucg:165", 5),
    ]
    random.Random(seed).shuffle(instances)
    calls = [library_solve(pkg, *inst) for inst in instances]
    return _mark_repeats(calls + [cli_call(cli, argv, probe=True) for argv in PROBE])


def build_large(pkg, cli, seed: int) -> list[Call]:
    """Graphs of 2,000-3,125 vertices on which the search is trivial; the
    seed orders them."""
    product = "K[1,3]xK[134,5]"
    instances = [
        ("gamma", "ucg:2048", V.expected_value("gamma", "ucg:2048")),
        ("gamma_total", "ucg:2048", V.expected_value("gamma_total", "ucg:2048")),
        ("gamma_total", "ucg:2187", V.expected_value("gamma_total", "ucg:2187")),
        ("gamma", "ucg:3125", V.expected_value("gamma", "ucg:3125")),
        # the collapse K_3 x K_5 bounds gamma below by 3, and 3 is attained
        ("gamma", product, V.collapse_lower(V.parse_descriptor(product).pairs, "gamma")),
    ]
    random.Random(seed).shuffle(instances)
    calls = [library_solve(pkg, *inst) for inst in instances]
    return _mark_repeats(calls + [cli_call(cli, argv, probe=True) for argv in PROBE])


# solve descriptors of the cli-stream pool, each with a closed-form value;
# every one is solved once per pass (a cache miss), the repeats are hits
SOLVE_POOL = (
    # over 150 ms as a miss
    [("gamma", f"ucg:{n}") for n in (105, 148, 164, 165, 172, 188, 195)]
    + [("gamma", "K[1,2]xK[1,3]xK[1,5]xK[1,7]"), ("gamma", "K[1,3]xK[1,6]xK[1,7]")]
    # 30-120 ms
    + [("gamma", f"ucg:{n}") for n in (92, 116, 124)]
    + [("gamma", d) for d in (
        "K[1,4]xK[1,5]xK[1,6]", "K[1,2]xK[1,4]xK[1,4]xK[1,5]", "K[1,3]xK[1,5]xK[1,7]",
        "K[1,2]xK[1,3]xK[1,3]xK[1,7]", "K[1,2]xK[1,3]xK[1,4]xK[1,5]", "K[1,4]xK[1,5]xK[1,5]",
        "K[1,3]xK[1,5]xK[1,5]", "K[1,3]xK[1,4]xK[1,7]", "K[1,2]xK[1,3]xK[1,3]xK[1,5]",
        "K[1,4]xK[1,4]xK[1,5]",
    )]
    # under 30 ms
    + [("gamma", f"ucg:{n}") for n in (12, 30, 36, 42, 60, 66, 70, 78, 90, 100, 102, 110, 130)]
    + [("gammat", f"ucg:{n}") for n in (30, 42, 60, 66, 70, 78, 84, 90)]
    + [("gamma", d) for d in (
        "K[1,3]xK[1,4]xK[1,5]", "K[1,3]xK[1,7]", "K[1,2]xK[1,3]xK[1,3]xK[1,3]",
        "K[1,3]xK[1,3]xK[1,7]", "K[1,3]xK[1,4]xK[1,6]", "K[1,2]xK[1,3]xK[1,3]xK[1,4]",
        "K[1,2]xK[1,3]xK[1,4]xK[1,4]",
    )]
    + [("upper", d) for d in (
        "K[1,3]xK[1,3]", "K[1,2]xK[1,3]xK[1,3]", "K[2,2]xK[1,3]", "K[1,3]xK[1,4]",
        "K[1,2]xK[1,2]xK[1,3]", "K[1,2]xK[1,3]xK[1,4]", "K[1,2]xK[1,2]xK[1,2]xK[1,3]",
        "K[1,2]xK[1,5]xK[1,5]",
    )]
)

# commands per pass besides the solves; 300 commands in all
SOLVE_REPEATS = 132
COUNTS = {"bounds": 60, "prop1": 12, "consecutive": 15, "jacobsthal": 10, "scan": 10, "thm6": 3}
SMALL_PRIMES = [p for p in range(3, 48) if V.factorize(p) == ((p, 1),)]


def _bounds_descriptor(rng: random.Random) -> str:
    """A descriptor whose gamma (and, for products, Gamma) has a closed form."""
    if rng.random() < 0.5:
        while True:
            n = rng.randint(2, 20000)
            if len(V.factorize(n)) <= 3:
                return f"ucg:{n}"
    t = rng.randint(2, 4)
    bs = [2] + [rng.randint(3, 9) for _ in range(3)] if t == 4 else [rng.randint(2, 9) for _ in range(t)]
    rng.shuffle(bs)  # the CLI puts factors in canonical order itself
    return "x".join(f"K[1,{b}]" for b in bs)


def cli_stream(pkg, cli, seed: int) -> list[Call]:
    """About 300 commands a researcher would script, in a seeded order."""
    rng = random.Random(seed)
    ranked = list(SOLVE_POOL)
    rng.shuffle(ranked)  # skew: the k-th descriptor is repeated with weight 1/k
    repeats = rng.choices(ranked, weights=[1 / (k + 1) for k in range(len(ranked))], k=SOLVE_REPEATS)
    argvs = [["solve", verb, desc] for verb, desc in SOLVE_POOL + repeats]
    argvs += [["bounds", _bounds_descriptor(rng)] for _ in range(COUNTS["bounds"])]
    for _ in range(COUNTS["prop1"]):
        family = rng.choice((1, 2))
        p1, p2 = sorted(rng.sample([p for p in SMALL_PRIMES if p >= 2 * family + 1], 2))
        argvs.append(["witness", "prop1", "--family", str(family), "--p1", str(p1), "--p2", str(p2)])
    argvs += [["construct", "consecutive", str(rng.randint(30, 5000))] for _ in range(COUNTS["consecutive"])]
    for _ in range(COUNTS["jacobsthal"]):
        lo = rng.randint(2, 3000)
        argvs.append(["jacobsthal", f"{lo}..{lo + rng.randint(10, 40)}"])
    # the scan windows tile 2..101 at seeded cut points, so every n is
    # scanned once a pass and the scan's node total is the same for all seeds
    lengths = [10] * COUNTS["scan"]
    for _ in range(30):
        i, j = rng.sample(range(len(lengths)), 2)
        if lengths[i] > 6 and lengths[j] < 14:
            lengths[i] -= 1
            lengths[j] += 1
    lo = 2
    for length in lengths:
        argvs.append(["scan", "M", "--min", str(lo), "--max", str(lo + length - 1)])
        lo += length
    argvs += [["witness", "thm6", "--j", "6"] for _ in range(COUNTS["thm6"])]
    rng.shuffle(argvs)
    return _mark_repeats([cli_call(cli, argv) for argv in argvs])


WORKLOADS = {
    "search-hard": search_hard,
    "build-large": build_large,
    "cli-stream": cli_stream,
}
