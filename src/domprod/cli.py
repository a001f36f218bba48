"""Command-line front end.

Commands emit single-line JSON records (or an aligned table with
--table) so scans compose with standard tools; `reproduce` writes CSV.
Each record is its result dataclass as a dict plus the command's own
keys and `tool_version`.  Each subcommand takes only the options it
reads: --nodes and --time-limit where a search runs (solve, conjecture,
reproduce, scan), --no-cache on solve, --table everywhere but reproduce.
Optimal solve results are cached in a JSON-lines file keyed by
(canonical descriptor, quantity); a budget-cut result is not stored.

Exit codes: 0 success (including budget-exhausted results with
optimal=false), 1 reproduction mismatch, 2 bad input, 3 resource cap.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fcntl
import json
import os
import sys
from functools import partial

from . import __version__
from .graphs import (
    CapExceededError,
    Descriptor,
    DescriptorError,
    ProductSpec,
    ucg_product_spec,
    ucg_residues,
)
from .numbertheory import jacobsthal_run
from .solvers import (
    DEFAULT_MAX_NODES,
    DEFAULT_TIME_LIMIT,
    Budget,
    SolveResult,
    gamma_exact,
    gamma_upper_exact,
)
from .theorems import (
    InternalConsistencyError,
    bound_report,
    certifies,
    conjecture_check,
    consecutive_residue_set,
    cube_corner_set,
    diagonal_set,
    m_family_witness,
    mt_witness,
    partite_column_set,
    solve,
    t_plus_two_set,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3

_QUANTITY_BY_VERB = {"gamma": "gamma", "gammat": "gamma_total", "upper": "upper"}


# ==== output helpers ====


def _emit(record: dict, table: bool) -> None:
    if not table:
        print(json.dumps(record, sort_keys=True))
        return
    width = max(len(k) for k in record)
    for key in sorted(record):
        value = record[key]
        if isinstance(value, (list, tuple)):
            value = json.dumps(list(value))
        print(f"{key:<{width}}  {value}")


def _record(obj, **extra) -> dict:
    """The fields of a result dataclass, the command's own keys, and the
    version that produced them."""
    return {**dataclasses.asdict(obj), **extra, "tool_version": __version__}


def _solve_record(descriptor: str, result: SolveResult, **extra) -> dict:
    record = _record(
        result, descriptor=descriptor, elapsed_ms=int(result.elapsed * 1000), **extra
    )
    del record["elapsed"]
    if not result.provenance:
        del record["provenance"]
    return record


def _budget(args) -> Budget:
    return Budget(max_nodes=args.nodes, time_limit=args.time_limit)


# ==== result cache ====


def default_cache_path() -> str:
    env = os.environ.get("DOMPROD_CACHE")
    if env:
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
        "domprod",
        "results.jsonl",
    )


class ResultCache:
    """Append-only JSON-lines cache of optimal results keyed by
    (descriptor, quantity); the latest line for a key wins.

    Writers take an advisory lock.  Partially written or stale-version
    lines, lines that are not JSON objects, lines whose "optimal" is not
    true and lines whose descriptor or quantity is not a string are
    ignored on read.
    """

    def __init__(self, path: str):
        self.path = path

    def _fold(self) -> dict[tuple[str, str], dict]:
        table: dict[tuple[str, str], dict] = {}
        try:
            fh = open(self.path, encoding="utf-8")
        except FileNotFoundError:
            return table
        with fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(rec, dict):
                    continue
                if rec.get("tool_version") != __version__ or rec.get("optimal") is not True:
                    continue
                key = (rec.get("descriptor"), rec.get("quantity"))
                if not all(isinstance(part, str) for part in key):
                    continue  # a list or object would be an unhashable key
                table[key] = rec
        return table

    def get(self, descriptor: str, quantity: str) -> dict | None:
        return self._fold().get((descriptor, quantity))

    def put(self, record: dict) -> None:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # closing the file releases it
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()


def _cached_verified(record: dict, desc: Descriptor) -> bool:
    """Re-verify a cached optimal entry before trusting it: value, lo and
    hi must be ints equal to the witness size, the witness must be
    distinct int vertices that pass certifies (which builds only their
    rows), and a "theorem" entry's value must be the size the theorem
    layer derives afresh (BoundReport.target: lo for gamma and
    gamma_total, hi for upper)."""
    quantity = record.get("quantity")
    witness = record.get("witness")
    if not isinstance(witness, list) or not all(type(v) is int for v in witness):
        return False  # bool is an int subclass; floats crash the checker
    if len(set(witness)) != len(witness):
        return False  # a repeat would inflate the size the set claims
    if any(type(record.get(key)) is not int or record[key] != len(witness)
           for key in ("value", "lo", "hi")):
        return False  # 4.0 and True compare equal to ints
    if record.get("method") == "theorem":
        if len(witness) != bound_report(desc, quantity).target:
            return False
    try:
        return certifies(desc, quantity, witness)
    except ValueError:  # an unknown quantity, a vertex outside the graph, or the cap
        return False


# ==== solve / bounds / conjecture ====


def cmd_solve(args) -> int:
    desc = Descriptor.parse(args.descriptor)
    canonical = desc.canonical()
    quantity = _QUANTITY_BY_VERB[args.quantity]
    cache = None if args.no_cache else ResultCache(default_cache_path())
    if cache is not None:
        hit = cache.get(canonical, quantity)
        if hit is not None and _cached_verified(hit, desc):
            _emit(hit, args.table)
            return EXIT_OK
    result = solve(desc, quantity, _budget(args))
    record = _solve_record(canonical, result)
    if cache is not None and result.optimal:
        cache.put(record)
    _emit(record, args.table)
    return EXIT_OK


def cmd_bounds(args) -> int:
    desc = Descriptor.parse(args.descriptor)
    # solve reads every report; bounds prints the ones it always has, which
    # is what perfbench's record check (_check_bounds) expects
    for quantity in ("gamma",) if desc.kind == "ucg" else ("gamma", "upper"):
        report = bound_report(desc, quantity)
        _emit(_record(report, descriptor=desc.canonical(), exact=report.exact), args.table)
    return EXIT_OK


def cmd_conjecture(args) -> int:
    desc = Descriptor.parse(args.descriptor)
    check = conjecture_check(desc.product_form, _budget(args))
    result = check.exact
    if desc.kind == "ucg":
        # the search ran on the product form; name its vertices as the
        # residues mod n they are under the CRT
        result = dataclasses.replace(result, witness=ucg_residues(desc.ucg_n, result.witness))
    record = _solve_record(
        desc.canonical(), result, conjectured=check.conjectured, agrees=check.agrees
    )
    _emit(record, args.table)
    return EXIT_OK


# ==== constructions and witnesses ====


def _spec_target(args) -> ProductSpec:
    desc = Descriptor.parse(args.target)
    if desc.kind != "spec":
        raise DescriptorError(f"construction {args.name!r} needs a product spec")
    return desc.spec.canonical()


def _int_target(args) -> int:
    try:
        return int(args.target)
    except ValueError:
        raise DescriptorError(f"{args.name} needs an integer, got {args.target!r}")


_CONSTRUCTIONS = {
    "consecutive": lambda args: consecutive_residue_set(_int_target(args)),
    "diagonal": lambda args: diagonal_set(_spec_target(args), args.m or 0),
    "t-plus-two": lambda args: t_plus_two_set(_spec_target(args)),
    "cube-corner": lambda args: cube_corner_set(_spec_target(args)),
    "partite-column": lambda args: partite_column_set(_spec_target(args)),
}


def cmd_construct(args) -> int:
    if args.m is not None and args.name != "diagonal":
        raise DescriptorError(f"construct {args.name} takes no --m (only diagonal reads it)")
    res = _CONSTRUCTIONS[args.name](args)
    record = _record(res, construction=args.name, size=len(res.vertex_set))
    _emit(record, args.table)
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.which == "thm6":
        if args.j is None:
            raise DescriptorError("witness thm6 needs --j")
        if (args.family, args.p1, args.p2) != (None, None, None):
            raise DescriptorError("witness thm6 takes no --family, --p1, --p2")
        w = mt_witness(args.j)
        record = _record(w, witness="thm6", j=args.j, size=len(w.D))
    else:
        if args.family is None or args.p1 is None or args.p2 is None:
            raise DescriptorError("witness prop1 needs --family, --p1, --p2")
        if args.j is not None:
            raise DescriptorError("witness prop1 takes no --j")
        w = m_family_witness(args.family, args.p1, args.p2)
        record = _record(w, witness="prop1", size=len(w.dominating_set))
    _emit(record, args.table)
    return EXIT_OK


# ==== jacobsthal ====


def cmd_jacobsthal(args) -> int:
    token = args.range
    try:
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(token)
    except ValueError:
        raise DescriptorError(f"bad range {token!r}; use N or A..B")
    if lo < 1 or hi < lo:
        raise DescriptorError(f"bad range {token!r}")
    for n in range(lo, hi + 1):
        run = jacobsthal_run(n)
        _emit(
            {
                "n": n,
                "value": run.value,
                "run_start": run.start,
                "run_length": run.length,
                "tool_version": __version__,
            },
            args.table,
        )
    return EXIT_OK


# ==== reproduction suites ====


def _suite_ucg(squarefree: bool, limit: int):
    """X_n for each n <= limit with at most three prime factors:
    squarefree n for eq. (7), the others for Theorem 4's g(n)."""
    for n in range(2, limit + 1):
        spec = ucg_product_spec(n)  # omega = t, squarefree iff every a = 1
        if spec.t <= 3 and all(f.a == 1 for f in spec.factors) == squarefree:
            yield Descriptor("ucg", ucg_n=n), "gamma"


def _suite_thm1(limit: int):
    """Products of two and of three complete graphs K_2..K_limit, each
    pair followed by its triples."""
    for n1 in range(2, limit + 1):
        for n2 in range(n1, limit + 1):
            for shape in [(n1, n2)] + [(n1, n2, n3) for n3 in range(n2, limit + 1)]:
                spec = ProductSpec.from_pairs([(1, b) for b in shape])
                yield Descriptor("spec", spec=spec), "gamma"


def _enum_small_specs(max_vertices: int, max_t: int):
    """All canonical specs with at most max_t factors and at most
    max_vertices vertices, smallest factor first."""
    factors = [
        (a, b)
        for b in range(2, max_vertices + 1)
        for a in range(1, max_vertices // b + 1)
        if a * b <= max_vertices
    ]
    factors.sort(key=lambda f: (f[1], f[0]))

    def extend(prefix, start, room):
        if prefix:
            yield tuple(prefix)
        if len(prefix) == max_t:
            return
        for i in range(start, len(factors)):
            a, b = factors[i]
            if a * b > room:
                continue
            prefix.append((a, b))
            yield from extend(prefix, i, room // (a * b))
            prefix.pop()

    yield from extend([], 0, max_vertices)


def _suite_upperdom(limit: int):
    for pairs in _enum_small_specs(limit, 3):
        yield Descriptor("spec", spec=ProductSpec.from_pairs(pairs)), "upper"


# each suite streams (descriptor, quantity) pairs; every row compares
# the lower side of the bound report that solve trusts with a plain search
_SUITES = {
    "eq7": (partial(_suite_ucg, True), 500),
    "thm1": (_suite_thm1, 5),
    "thm4": (partial(_suite_ucg, False), 200),
    "upperdom-small": (_suite_upperdom, 27),
}
_PLAIN_SEARCH = {"gamma": gamma_exact, "upper": gamma_upper_exact}


def cmd_reproduce(args) -> int:
    stream, default_max = _SUITES[args.suite]
    limit = args.max if args.max is not None else default_max
    if limit < 2:  # every suite would be empty: a vacuous pass
        raise DescriptorError(f"reproduce needs --max >= 2, got {limit}")
    budget = _budget(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["descriptor", "formula", "solver", "match"])
    mismatches = []
    for desc, quantity in stream(limit):
        canonical = desc.canonical()
        formula = bound_report(desc, quantity).lo
        solved = _PLAIN_SEARCH[quantity](desc.build(), budget)
        ok = solved.optimal and solved.value == formula
        writer.writerow([canonical, formula, solved.value, "yes" if ok else "NO"])
        if not ok:
            mismatches.append((canonical, formula, solved.value, solved.optimal))
    if mismatches:
        for desc, formula, value, optimal in mismatches:
            note = "" if optimal else " (budget exhausted)"
            print(
                f"mismatch: {desc} formula {formula} solver {value}{note}",
                file=sys.stderr,
            )
        return EXIT_MISMATCH
    return EXIT_OK


# ==== membership scans ====


def cmd_scan(args) -> int:
    lo = args.min if args.min is not None else 2
    hi = args.max
    if hi is None:
        raise DescriptorError("scan needs --max")
    if lo < 2 or hi < lo:
        raise DescriptorError(f"bad range [{lo}, {hi}]")
    budget = _budget(args)
    quantity = "gamma_total" if args.target == "Mt" else "gamma"
    for n in range(lo, hi + 1):
        record: dict = {"n": n, "target": args.target, "tool_version": __version__}
        desc = Descriptor("ucg", ucg_n=n)
        try:
            desc.n_vertices  # the vertex cap, before g(n) or any bound is worked out
            g = jacobsthal_run(n).value
            result = solve(desc, quantity, budget)  # the dense cap, if it builds X_n
        except CapExceededError as exc:
            record["status"] = "skipped"
            record["reason"] = str(exc)
            _emit(record, args.table)
            continue
        record["g"] = g
        record["lo"] = result.lo
        record["hi"] = result.hi
        record["nodes"] = result.nodes
        if result.hi < g:
            record["status"] = "member"
            record["value"] = result.value
            record["witness"] = list(result.witness)
        elif result.lo >= g:
            record["status"] = "non-member"
            if result.optimal:
                record["value"] = result.value
        else:
            record["status"] = "undecided"
            record["reason"] = "budget exhausted"
        _emit(record, args.table)
    return EXIT_OK


# ==== argument parsing ====


def build_parser() -> argparse.ArgumentParser:
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--table", action="store_true",
                       help="aligned table output instead of JSON lines")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--nodes", type=int, default=DEFAULT_MAX_NODES,
                        help="search node budget (default 10^7)")
    budget.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                        help="per-instance wall clock budget in seconds (default 60)")

    parser = argparse.ArgumentParser(
        prog="domprod",
        description="Domination numbers of direct products of complete "
        "multipartite graphs and unitary Cayley graphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[budget, table],
                       help="exact gamma / gamma_t / upper domination")
    p.add_argument("quantity", choices=sorted(_QUANTITY_BY_VERB))
    p.add_argument("descriptor")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bounds", parents=[table],
                       help="theorem-derived bound intervals")
    p.add_argument("descriptor")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", parents=[table],
                       help="explicit dominating-set constructions")
    p.add_argument("name", choices=list(_CONSTRUCTIONS))
    p.add_argument("target", help="product spec descriptor, or n for consecutive")
    p.add_argument("--m", type=int, default=None,
                   help="diagonal: overshoot (default 0)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("witness", parents=[table],
                       help="certified members of M and M_t")
    p.add_argument("which", choices=["thm6", "prop1"])
    p.add_argument("--j", type=int, default=None,
                   help="thm6: minimum number of prime factors")
    p.add_argument("--family", type=int, choices=[1, 2], default=None,
                   help="prop1: family")
    p.add_argument("--p1", type=int, default=None, help="prop1: first prime")
    p.add_argument("--p2", type=int, default=None, help="prop1: second prime")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("conjecture", parents=[budget, table],
                       help="compare exact upper domination against n/b_1")
    p.add_argument("descriptor")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("jacobsthal", parents=[table],
                       help="Jacobsthal function with extremal runs")
    p.add_argument("range", help="N or A..B")
    p.set_defaults(func=cmd_jacobsthal)

    p = sub.add_parser("reproduce", parents=[budget],
                       help="formula-vs-solver cross-check suites (CSV)")
    p.add_argument("suite", choices=sorted(_SUITES))
    p.add_argument("--max", type=int, default=None,
                   help="override the suite's instance limit")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("scan", parents=[budget, table],
                       help="stream membership certificates for M or M_t")
    p.add_argument("target", choices=["M", "Mt"])
    p.add_argument("--min", type=int, default=None)
    p.add_argument("--max", type=int, default=None)
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
