import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import combinations_with_replacement
from pathlib import Path
from types import SimpleNamespace

import pytest

from domprod import (
    Descriptor,
    ProductSpec,
    bound_report,
    certifies,
    cli,
    factorize,
    gamma_exact,
    gamma_total_exact,
    is_dominating,
    is_minimal_dominating,
    jacobsthal,
    radical,
    unitary_cayley,
)
from domprod import graphs
from domprod.cli import EXIT_BAD_INPUT, EXIT_CAP, EXIT_MISMATCH, EXIT_OK, main
from domprod.numbertheory import JACOBSTHAL_RADICAL_LIMIT


@pytest.fixture(autouse=True)
def cache_file(tmp_path, monkeypatch):
    # keep every test away from the real per-user cache
    path = tmp_path / "cache.jsonl"
    monkeypatch.setenv("DOMPROD_CACHE", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line]


# ==== SOLVE ====


def test_solve_gamma_record(capsys):
    code, out, _ = run(capsys, "solve", "gamma", "ucg:30", "--no-cache")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["quantity"] == "gamma"
    assert rec["value"] == rec["lo"] == rec["hi"] == 4
    assert rec["optimal"] is True
    assert certifies(Descriptor("ucg", ucg_n=30), "gamma", rec["witness"])
    assert rec["descriptor"] == "ucg:30"
    assert rec["tool_version"] == cli.__version__


def test_solve_gammat_uses_reduction(capsys):
    code, out, _ = run(capsys, "solve", "gammat", "ucg:30", "--no-cache")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["value"] == 6 and rec["method"] == "reduction"
    assert certifies(Descriptor("ucg", ucg_n=30), "gamma_total", rec["witness"])


def test_solve_upper_bipartite(capsys):
    code, out, _ = run(capsys, "solve", "upper", "ucg:20", "--no-cache")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["value"] == 10 and rec["optimal"] is True


def test_solve_spec_descriptor(capsys):
    code, out, _ = run(capsys, "solve", "gamma", "K[1,3]xK[1,4]xK[1,5]", "--no-cache")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["value"] == 4 and rec["optimal"] is True


def test_bad_descriptor_exits_2(capsys):
    code, _, err = run(capsys, "solve", "gamma", "K[9,9]x")
    assert code == EXIT_BAD_INPUT and "error:" in err
    code, _, err = run(capsys, "solve", "gamma", "ucg:1")
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("argv", [
    ("bounds", "ucg:99999999999"),
    ("solve", "gamma", "ucg:99999999999", "--no-cache"),
    ("construct", "consecutive", "99999999999"),
    ("jacobsthal", "99999999999"),
])
def test_jacobsthal_radical_limit_exits_3(capsys, argv):
    # g(n) of this n would need masks of 33,333,333,333 bits: a resource
    # cap on valid input, not bad input
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAP and "radical" in err and out == ""


def test_vertex_cap_exits_3(capsys):
    code, _, err = run(capsys, "solve", "gamma", "ucg:3000000")
    assert code == EXIT_CAP and "cap" in err


def test_budget_exhaustion_still_exits_0(capsys):
    # the theorems leave Gamma(K3^4) open in [27, 40], so this searches
    code, out, _ = run(
        capsys,
        "solve", "upper", "K[1,3]xK[1,3]xK[1,3]xK[1,3]", "--nodes", "25", "--no-cache",
    )
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["optimal"] is False
    assert rec["lo"] <= 27 <= rec["hi"]
    assert rec["value"] == len(rec["witness"])


@pytest.mark.parametrize(
    "verb, descriptor, value, checker",
    [
        ("upper", "K[1,3]xK[1,3]xK[1,3]", 9, is_minimal_dominating),
        ("gamma", "K[1,2]xK[1,3]xK[1,5]xK[1,7]", 8, is_dominating),
    ],
)
def test_solve_uses_theorem_layer(capsys, verb, descriptor, value, checker):
    code, out, _ = run(capsys, "solve", verb, descriptor, "--nodes", "1", "--no-cache")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["method"] == "theorem" and rec["nodes"] == 0 and rec["optimal"] is True
    assert rec["value"] == rec["lo"] == rec["hi"] == len(rec["witness"]) == value
    assert rec["provenance"] and all(len(entry) == 2 for entry in rec["provenance"])
    assert checker(Descriptor.parse(descriptor).build(), rec["witness"])


def test_searched_record_has_no_provenance(capsys):
    # gamma(X_6) = 2 is proven, but no construction of 2 vertices applies
    _, out, _ = run(capsys, "solve", "gamma", "ucg:6", "--no-cache")
    (rec,) = records(out)
    assert rec["method"] == "branch-and-bound" and "provenance" not in rec


def test_table_mode(capsys):
    code, out, _ = run(capsys, "solve", "gamma", "ucg:30", "--table", "--no-cache")
    assert code == EXIT_OK
    fields = dict(line.split(None, 1) for line in out.splitlines() if line)
    assert fields["value"] == "4"
    assert fields["optimal"] == "True"


# ==== CACHE ====


def test_cache_write_then_hit(capsys, cache_file):
    # gamma_t(X_105) = 5 takes a search of 14 nodes
    run(capsys, "solve", "gammat", "ucg:105")
    assert cache_file.exists()
    cached = json.loads(cache_file.read_text().splitlines()[0])
    assert cached["descriptor"] == "ucg:105" and cached["optimal"] is True
    # a budget too small to solve fresh must be served from the cache
    code, out, _ = run(capsys, "solve", "gammat", "ucg:105", "--nodes", "1")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["optimal"] is True and rec["value"] == 5


def test_no_cache_flag_skips_cache(capsys, cache_file):
    run(capsys, "solve", "gamma", "ucg:105", "--no-cache")
    assert not cache_file.exists()


def test_corrupt_cached_witness_forces_recompute(capsys, cache_file):
    run(capsys, "solve", "gamma", "ucg:105")
    rec = json.loads(cache_file.read_text().splitlines()[0])
    rec["witness"] = [0, 1]  # not a dominating set: re-verification must fail
    cache_file.write_text(json.dumps(rec) + "\n")
    code, out, _ = run(capsys, "solve", "gamma", "ucg:105")
    assert code == EXIT_OK
    (fresh,) = records(out)
    assert fresh["value"] == 4
    assert certifies(Descriptor("ucg", ucg_n=105), "gamma", fresh["witness"])


def test_theorem_solve_and_its_cache_hit_build_no_graph(capsys, cache_file):
    # the cube corner decides gamma on this 18,480-vertex product; its 8
    # vertices are checked from their own rows, by the construction and
    # then by the cache, so neither run builds the ~40 MB adjacency
    spec = "K[1,2]xK[1,20]xK[1,21]xK[1,22]"
    for _ in ("solved", "served"):
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "solve", "gamma", spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (rec,) = records(out)
        assert code == EXIT_OK and rec["method"] == "theorem" and rec["value"] == 8
        assert peak < 4_000_000, peak
    assert len(cache_file.read_text().splitlines()) == 1  # the second was a hit


@pytest.mark.parametrize(
    "edit, served",
    [
        ({}, True),
        ({"value": 3, "lo": 3, "hi": 3}, False),  # witness has 4 vertices
        ({"lo": 3}, False),
        ({"hi": 5}, False),
        ({"witness": [0, 3, 5, 30]}, False),  # 30 is not a vertex of X_30
        ({"witness": None}, False),
        # the checker sees 4 distinct vertices, the size claims 5
        ({"value": 5, "lo": 5, "hi": 5, "witness": [0, 3, 5, 8, 8]}, False),
        ({"witness": [0, 3, 5, 8.0]}, False),  # the checker cannot take a float
        ({"witness": [False, 3, 5, 8]}, False),  # a bool is not a vertex
        ({"value": 4.0, "lo": 4.0, "hi": 4.0}, False),  # sizes are ints
        ({"optimal": 1}, False),  # only true marks an optimal line
        # true == 1 == len([0]) on X_2, but a bool is not a size
        ({"descriptor": "ucg:2", "value": True, "lo": True, "hi": True, "witness": [0]},
         False),
    ],
)
def test_self_contradicting_cache_line_forces_recompute(capsys, cache_file, edit, served):
    line = {
        "descriptor": "ucg:30", "quantity": "gamma", "value": 4, "lo": 4, "hi": 4,
        "witness": [0, 3, 5, 8], "optimal": True, "method": "branch-and-bound",
        "nodes": -1, "elapsed_ms": 0, "tool_version": cli.__version__,
    }
    line.update(edit)
    cache_file.write_text(json.dumps(line) + "\n")
    code, out, _ = run(capsys, "solve", "gamma", line["descriptor"])
    assert code == EXIT_OK
    (rec,) = records(out)
    assert (rec["nodes"] == -1) == served  # -1 marks the hand-written line
    n = int(line["descriptor"].removeprefix("ucg:"))
    assert all(type(rec[key]) is int for key in ("value", "lo", "hi"))
    assert rec["value"] == rec["lo"] == rec["hi"] == len(rec["witness"]) == {30: 4, 2: 1}[n]
    assert certifies(Descriptor("ucg", ucg_n=n), "gamma", rec["witness"])


def test_cached_theorem_value_is_rederived(capsys, cache_file):
    # a dominating set of 9 vertices passes the witness check, but the
    # theorem layer proves gamma >= 8, not 9, so the line is not served
    spec = "K[1,2]xK[1,3]xK[1,5]xK[1,7]"
    graph = Descriptor.parse(spec).build()
    _, out, _ = run(capsys, "solve", "gamma", spec, "--no-cache")
    witness = records(out)[0]["witness"]
    witness = sorted(witness + [min(set(range(graph.n)) - set(witness))])
    assert len(witness) == 9 and is_dominating(graph, witness)
    line = {
        "descriptor": spec, "quantity": "gamma", "value": 9, "lo": 9, "hi": 9,
        "witness": witness, "optimal": True, "method": "theorem",
        "provenance": [["cube-corner", "lo 9"]],
        "nodes": -1, "elapsed_ms": 0, "tool_version": cli.__version__,
    }
    cache_file.write_text(json.dumps(line) + "\n")
    code, out, _ = run(capsys, "solve", "gamma", spec)
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["nodes"] == 0 and rec["value"] == rec["lo"] == rec["hi"] == 8
    assert is_dominating(graph, rec["witness"])
    # the same line with the true value is served
    _, out, _ = run(capsys, "solve", "gamma", spec, "--no-cache")
    line.update(value=8, lo=8, hi=8, witness=records(out)[0]["witness"])
    cache_file.write_text(json.dumps(line) + "\n")
    _, out, _ = run(capsys, "solve", "gamma", spec)
    assert records(out)[0]["nodes"] == -1


def test_budget_cut_solve_is_not_cached(capsys, cache_file):
    code, out, _ = run(capsys, "solve", "upper", "K[1,3]xK[1,3]xK[1,3]xK[1,3]",
                       "--nodes", "30")
    assert code == EXIT_OK
    assert records(out)[0]["optimal"] is False
    assert not cache_file.exists()


def test_cache_tolerates_garbage_lines(capsys, cache_file):
    # the last line is current and optimal, but a list is no cache key
    unhashable = {"descriptor": ["ucg:105"], "quantity": "gamma",
                  "tool_version": cli.__version__, "optimal": True}
    cache_file.write_text(
        "not json\n{\"half\": 1\n7\n[1, 2]\n\"ucg:105\"\n" + json.dumps(unhashable) + "\n"
    )
    code, out, _ = run(capsys, "solve", "gamma", "ucg:105")
    assert code == EXIT_OK
    assert records(out)[0]["value"] == 4


def test_cache_prefers_optimal_entry(capsys, cache_file):
    run(capsys, "solve", "upper", "K[1,3]xK[1,3]", "--nodes", "30")
    run(capsys, "solve", "upper", "K[1,3]xK[1,3]")
    code, out, _ = run(capsys, "solve", "upper", "K[1,3]xK[1,3]", "--nodes", "1")
    (rec,) = records(out)
    assert rec["optimal"] is True and rec["value"] == 3


# ==== BOUNDS / CONJECTURE ====


def test_bounds_ucg_single_record(capsys):
    code, out, _ = run(capsys, "bounds", "ucg:45")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["quantity"] == "gamma"
    assert rec["exact"] is True and rec["lo"] == rec["hi"] == 3
    assert any(tag == "nonsquarefree-jacobsthal-exact" for tag, _ in rec["provenance"])


def test_bounds_spec_emits_gamma_and_upper(capsys):
    code, out, _ = run(capsys, "bounds", "K[1,3]xK[1,3]")
    assert code == EXIT_OK
    recs = records(out)
    assert [r["quantity"] for r in recs] == ["gamma", "upper"]
    assert all(r["lo"] <= r["hi"] for r in recs)
    upper = recs[1]
    assert upper["exact"] is True and upper["lo"] == 3


def test_bounds_open_case_reports_conjecture(capsys):
    _, out, _ = run(capsys, "bounds", "K[1,5]xK[1,5]xK[1,5]xK[1,5]")
    upper = records(out)[1]
    assert upper["exact"] is False and upper["conjectured"] == 125


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, "conjecture", "K[1,3]xK[1,3]")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["conjectured"] == 3 and rec["agrees"] is True
    code, out, _ = run(capsys, "conjecture", "K[1,3]xK[1,3]xK[1,3]", "--nodes", "20")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["agrees"] is None


def test_conjecture_ucg_witness_is_in_residues(capsys):
    # the search runs on the product form of X_n; the record names its
    # witness in residues mod n, so it checks on X_n itself
    for n in range(2, 61):
        _, out, _ = run(capsys, "conjecture", f"ucg:{n}")
        (rec,) = records(out)
        assert len(rec["witness"]) == rec["value"], n
        assert is_minimal_dominating(unitary_cayley(n), rec["witness"]), n


# ==== CONSTRUCT / WITNESS ====


def test_construct_consecutive(capsys):
    code, out, _ = run(capsys, "construct", "consecutive", "30")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["vertex_set"] == [0, 1, 2, 3, 4, 5]
    assert rec["kind"] == "total_dominating" and rec["verified"] is True


def test_construct_diagonal(capsys):
    code, out, _ = run(capsys, "construct", "diagonal", "K[1,4]xK[1,5]xK[1,7]")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["size"] == 4 and rec["verified"] is True
    code, out, _ = run(
        capsys, "construct", "diagonal", "K[1,4]xK[1,7]xK[1,7]xK[1,7]", "--m", "1"
    )
    assert records(out)[0]["size"] == 6


def test_construct_cube_corner_and_column(capsys):
    _, out, _ = run(capsys, "construct", "cube-corner", "K[1,2]xK[1,3]xK[1,3]xK[1,3]")
    assert records(out)[0]["size"] == 8
    _, out, _ = run(capsys, "construct", "partite-column", "K[2,2]xK[1,3]")
    rec = records(out)[0]
    assert rec["size"] == 6 and rec["kind"] == "minimal_dominating"


def test_construct_hypothesis_failure_exits_2(capsys):
    code, _, err = run(capsys, "construct", "diagonal", "K[1,2]xK[1,3]xK[1,3]")
    assert code == EXIT_BAD_INPUT and "error:" in err
    code, _, _ = run(capsys, "construct", "consecutive", "notanumber")
    assert code == EXIT_BAD_INPUT


def test_witness_thm6(capsys):
    code, out, _ = run(capsys, "witness", "thm6", "--j", "3")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["n"] == 969969 and rec["verified"] is True
    assert rec["size"] == len(rec["D"]) == 10 < rec["g_lower"]


def test_witness_runs_without_numpy():
    # a None entry in sys.modules makes any import of numpy fail
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys; sys.modules['numpy'] = None; "
        "from domprod.cli import main; "
        "sys.exit(main(['witness', 'thm6', '--j', '6']))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert '"verified": true' in proc.stdout


def test_witness_prop1(capsys):
    code, out, _ = run(capsys, "witness", "prop1", "--family", "1", "--p1", "3", "--p2", "5")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["n"] == 30 and rec["dominating_set"] == [0, 16, 21, 25]
    assert rec["size"] == 4 < rec["g_lower"]


def test_witness_missing_flags_exit_2(capsys):
    assert run(capsys, "witness", "thm6")[0] == EXIT_BAD_INPUT
    assert run(capsys, "witness", "prop1", "--family", "1")[0] == EXIT_BAD_INPUT


# ==== JACOBSTHAL ====


def test_jacobsthal_single(capsys):
    code, out, _ = run(capsys, "jacobsthal", "30")
    assert code == EXIT_OK
    (rec,) = records(out)
    assert rec["value"] == 6 and rec["run_start"] == 2 and rec["run_length"] == 5


def test_jacobsthal_range(capsys):
    code, out, _ = run(capsys, "jacobsthal", "28..31")
    assert code == EXIT_OK
    recs = records(out)
    assert [r["n"] for r in recs] == [28, 29, 30, 31]
    assert [r["value"] for r in recs] == [4, 2, 6, 2]


def test_jacobsthal_bad_range_exits_2(capsys):
    assert run(capsys, "jacobsthal", "10..2")[0] == EXIT_BAD_INPUT
    assert run(capsys, "jacobsthal", "x..y")[0] == EXIT_BAD_INPUT


# ==== REPRODUCE ====


def _csv_rows(out):
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["descriptor", "formula", "solver", "match"]
    return rows[1:]


def test_reproduce_eq7_small(capsys):
    code, out, _ = run(capsys, "reproduce", "eq7", "--max", "12")
    assert code == EXIT_OK
    rows = _csv_rows(out)
    assert rows and all(r[3] == "yes" for r in rows)
    assert ["ucg:6", "2", "2", "yes"] in rows


def test_reproduce_thm1_small(capsys):
    code, out, _ = run(capsys, "reproduce", "thm1", "--max", "3")
    assert code == EXIT_OK
    rows = _csv_rows(out)
    assert all(r[3] == "yes" for r in rows)
    assert ["K[1,3]xK[1,3]xK[1,3]", "4", "4", "yes"] in rows


def test_reproduce_thm4_small(capsys):
    code, out, _ = run(capsys, "reproduce", "thm4", "--max", "40")
    assert code == EXIT_OK
    rows = _csv_rows(out)
    assert ["ucg:12", "4", "4", "yes"] in rows


def test_reproduce_upperdom_small(capsys):
    code, out, _ = run(capsys, "reproduce", "upperdom-small", "--max", "12")
    assert code == EXIT_OK
    rows = _csv_rows(out)
    assert all(r[3] == "yes" for r in rows)
    assert ["K[6,2]", "6", "6", "yes"] in rows


def _ucg_domain(limit, squarefree):
    return [f"ucg:{n}" for n in range(2, limit + 1)
            if len(factorize(n)) <= 3 and (radical(n) == n) == squarefree]


def _complete_products(limit):
    return {ProductSpec.from_pairs([(1, b) for b in shape]).descriptor()
            for t in (2, 3) for shape in combinations_with_replacement(range(2, limit + 1), t)}


_SUITE_DOMAINS = [
    ("eq7", 60, "gamma", _ucg_domain(60, True)),
    ("thm4", 60, "gamma", _ucg_domain(60, False)),
    ("thm1", 4, "gamma", _complete_products(4)),
    ("upperdom-small", 12, "upper",
     [ProductSpec.from_pairs(p).descriptor() for p in cli._enum_small_specs(12, 3)]),
]


@pytest.mark.parametrize("suite, limit, quantity, domain", _SUITE_DOMAINS,
                         ids=[case[0] for case in _SUITE_DOMAINS])
def test_reproduce_suite_domains(capsys, suite, limit, quantity, domain):
    # the descriptor column is the suite's domain, enumerated here apart
    # from its stream (thm1's order is its own, so it is compared as a
    # set), and every row's formula is a proven value: its report is exact
    code, out, _ = run(capsys, "reproduce", suite, "--max", str(limit))
    assert code == EXIT_OK
    column = [r[0] for r in _csv_rows(out)]
    if isinstance(domain, set):
        assert len(column) == len(domain) and set(column) == domain
    else:
        assert column == domain
    assert all(bound_report(Descriptor.parse(d), quantity).exact for d in column)


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "bound_report", lambda desc, quantity: SimpleNamespace(lo=99))
    code, out, err = run(capsys, "reproduce", "eq7", "--max", "6")
    assert code == EXIT_MISMATCH
    assert any(r[3] == "NO" for r in _csv_rows(out))
    assert "mismatch" in err


# ==== SCAN ====


def test_scan_m_small_range(capsys):
    code, out, _ = run(capsys, "scan", "M", "--min", "2", "--max", "12")
    assert code == EXIT_OK
    by_n = {r["n"]: r for r in records(out)}
    assert set(by_n) == set(range(2, 13))
    members = {n for n, r in by_n.items() if r["status"] == "member"}
    assert members == {2, 3, 5, 6, 7, 10, 11}
    for n in members:
        rec = by_n[n]
        assert rec["value"] < rec["g"]
        assert len(rec["witness"]) == rec["value"]
        assert certifies(Descriptor("ucg", ucg_n=n), "gamma", rec["witness"])
    for n in set(by_n) - members:
        assert by_n[n]["status"] == "non-member"
        assert by_n[n]["lo"] >= by_n[n]["g"]


def test_scan_m_finds_30(capsys):
    _, out, _ = run(capsys, "scan", "M", "--min", "30", "--max", "30")
    (rec,) = records(out)
    assert rec["status"] == "member" and rec["value"] == 4 and rec["g"] == 6


def test_scan_mt_small_range_is_empty(capsys):
    code, out, _ = run(capsys, "scan", "Mt", "--min", "2", "--max", "12")
    assert code == EXIT_OK
    assert all(r["status"] == "non-member" for r in records(out))


def test_scan_skips_over_cap(capsys, monkeypatch):
    def no_jacobsthal(n):
        raise AssertionError(f"g({n}) computed for an n that is skipped")

    monkeypatch.setattr(cli, "jacobsthal_run", no_jacobsthal)
    _, out, _ = run(capsys, "scan", "M", "--min", "4849845", "--max", "4849845")
    (rec,) = records(out)
    assert rec["status"] == "skipped" and "cap" in rec["reason"]
    # the prime radical of 100000007 exceeds JACOBSTHAL_RADICAL_LIMIT, so
    # the cap must be checked before any bound works out g(n)
    assert radical(100000007) > JACOBSTHAL_RADICAL_LIMIT
    for target in ("M", "Mt"):
        code, out, _ = run(
            capsys, "scan", target, "--min", "100000007", "--max", "100000007"
        )
        (rec,) = records(out)
        assert code == EXIT_OK
        assert rec["status"] == "skipped" and "cap" in rec["reason"]


def test_dense_cap_exits_3_and_scan_skips(capsys, monkeypatch):
    # gamma_t(X_105) = 5 takes a search, so solve must build X_105; the
    # cap is lowered so that no test can allocate much
    monkeypatch.setattr(graphs, "DENSE_VERTEX_CAP", 100)
    code, out, err = run(capsys, "solve", "gammat", "ucg:105", "--no-cache")
    assert code == EXIT_CAP and "dense cap" in err and out == ""
    code, out, _ = run(capsys, "scan", "Mt", "--min", "104", "--max", "106")
    assert code == EXIT_OK
    recs = records(out)
    assert [r["n"] for r in recs] == [104, 105, 106]
    assert recs[1]["status"] == "skipped" and "dense cap" in recs[1]["reason"]


@pytest.mark.parametrize("target, hi", [("M", 150), ("Mt", 60)])
def test_scan_agrees_with_plain_search(capsys, target, hi):
    # scan asks solve, which takes the theorem layer's shortcut; the
    # plain search on the built graph must give the same verdicts
    search = gamma_total_exact if target == "Mt" else gamma_exact
    code, out, _ = run(capsys, "scan", target, "--min", "2", "--max", str(hi))
    assert code == EXIT_OK
    recs = records(out)
    assert [r["n"] for r in recs] == list(range(2, hi + 1))
    for rec in recs:
        n = rec["n"]
        want = search(unitary_cayley(n))
        assert want.optimal and rec["g"] == jacobsthal(n), n
        assert rec["status"] == ("member" if want.value < rec["g"] else "non-member"), n
        assert rec["value"] == want.value, n


def test_scan_2470_exits_0(capsys):
    # X_2470 is bipartite with sides of 1,235 vertices, more than
    # Python's default limit of 1,000 frames
    code, out, _ = run(capsys, "scan", "M", "--min", "2470", "--max", "2470")
    (rec,) = records(out)
    assert code == EXIT_OK
    assert rec["status"] == "non-member" and rec["value"] == rec["g"] == 8


def test_scan_undecided_under_tiny_budget(capsys):
    _, out, _ = run(
        capsys, "scan", "M", "--min", "1155", "--max", "1155", "--nodes", "200"
    )
    (rec,) = records(out)
    assert rec["status"] == "undecided" and rec["reason"] == "budget exhausted"


# ==== MISC ====


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert cli.__version__ in capsys.readouterr().out


# one cheap, valid invocation of each subcommand, and the options it reads
_BASE_ARGV = {
    "solve": ["solve", "gamma", "ucg:6"],
    "bounds": ["bounds", "ucg:6"],
    "construct": ["construct", "consecutive", "6"],
    "witness": ["witness", "prop1", "--family", "1", "--p1", "3", "--p2", "5"],
    "conjecture": ["conjecture", "K[1,2]xK[1,3]"],
    "jacobsthal": ["jacobsthal", "6"],
    "reproduce": ["reproduce", "eq7", "--max", "6"],
    "scan": ["scan", "M", "--max", "6"],
}
_OPTIONS = {
    "--nodes": ["--nodes", "1000"],
    "--time-limit": ["--time-limit", "10"],
    "--no-cache": ["--no-cache"],
    "--table": ["--table"],
}
_READS = {
    "solve": {"--nodes", "--time-limit", "--no-cache", "--table"},
    "bounds": {"--table"},
    "construct": {"--table"},
    "witness": {"--table"},
    "conjecture": {"--nodes", "--time-limit", "--table"},
    "jacobsthal": {"--table"},
    "reproduce": {"--nodes", "--time-limit"},
    "scan": {"--nodes", "--time-limit", "--table"},
}


def _exit_code(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects unknown options this way
        code = exc.code
    capsys.readouterr()
    return code


def test_commands_take_only_the_options_they_read(capsys):
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_BASE_ARGV) == set(_READS)
    accepted = 0
    for command, base in _BASE_ARGV.items():
        shown = {opt for opt in _OPTIONS if opt in sub.choices[command].format_help()}
        assert shown == _READS[command], command
        for option, extra in _OPTIONS.items():
            code = _exit_code(capsys, base + extra)
            if option in _READS[command]:
                assert code == EXIT_OK, (command, option)
                accepted += 1
            else:
                assert code == EXIT_BAD_INPUT, (command, option)
    assert accepted == 16
    # options that only one choice of construct or witness reads
    for argv, want in (
        (["construct", "consecutive", "30", "--m", "7"], EXIT_BAD_INPUT),
        (["construct", "cube-corner", "K[1,2]xK[1,3]xK[1,3]xK[1,3]", "--m", "0"],
         EXIT_BAD_INPUT),
        (["construct", "diagonal", "K[1,4]xK[1,5]xK[1,7]", "--m", "0"], EXIT_OK),
        (["witness", "thm6", "--j", "2", "--family", "2", "--p1", "1"], EXIT_BAD_INPUT),
        (["witness", "thm6", "--j", "2", "--p2", "5"], EXIT_BAD_INPUT),
        (["witness", "thm6", "--j", "2"], EXIT_OK),
        (["witness", "prop1", "--family", "1", "--p1", "3", "--p2", "5", "--j", "4"],
         EXIT_BAD_INPUT),
    ):
        assert _exit_code(capsys, argv) == want, argv


def test_records_keep_their_fields(capsys):
    solved = {
        "descriptor", "quantity", "value", "lo", "hi", "witness", "optimal",
        "method", "nodes", "elapsed_ms", "tool_version",
    }

    def keys(*argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        return [set(rec) for rec in records(out)]

    assert keys("solve", "gamma", "ucg:6", "--no-cache") == [solved]
    assert keys(
        "solve", "upper", "K[1,3]xK[1,3]xK[1,3]", "--no-cache"
    ) == [solved | {"provenance"}]
    bounds = {
        "descriptor", "quantity", "lo", "hi", "exact", "conjectured",
        "provenance", "tool_version",
    }
    assert keys("bounds", "K[1,3]xK[1,3]") == [bounds, bounds]
    assert keys("construct", "cube-corner", "K[1,2]xK[1,3]xK[1,3]xK[1,3]") == [{
        "descriptor", "construction", "kind", "size", "vertex_set", "verified",
        "tool_version",
    }]
    assert keys("witness", "thm6", "--j", "3") == [{
        "witness", "j", "n", "q", "k", "primes", "D", "size", "y", "z",
        "run_length", "g_lower", "verified", "tool_version",
    }]
    assert keys("witness", "prop1", "--family", "2", "--p1", "5", "--p2", "7") == [{
        "witness", "family", "n", "p1", "p2", "x", "run_length", "dominating_set",
        "size", "g_lower", "verified", "tool_version",
    }]
    assert keys("conjecture", "K[1,3]xK[1,3]") == [solved | {"conjectured", "agrees"}]


# Exact stdout, stderr and exit code, with elapsed_ms blanked: a changed
# value or a reordered provenance entry fails here, not only a changed key.
# The cases cover the X_n product form, its K_2 split and repeated-factor
# bound, each construction's kind and numbering (a blowup first factor's
# partite column among them), the order of the complete-product and
# diagonal sides, a product-form construction lifted to X_n, the Theorem 6
# witness on both sides of the vertex cap and the Proposition 1
# witnesses, the conjecture on X_n, a reproduction suite, bad input, and
# the radical cap.
_PINNED = [
    (
        ["bounds", "ucg:12"],
        '{"conjectured": null, "descriptor": "ucg:12", "exact": true, "hi": 4, '
        '"lo": 4, "provenance": [["blowup-lower", "lo 2"], '
        '["nonsquarefree-jacobsthal-exact", "lo 4"], ["repeated-factor-lower", '
        '"lo 4"], ["all-vertices", "hi 12"], ["consecutive-run", "hi 4"], '
        '["nonsquarefree-jacobsthal-exact", "hi 4"]], "quantity": "gamma", '
        '"tool_version": "0.1.0"}\n',
        "", EXIT_OK,
    ),
    (
        ["bounds", "ucg:30"],
        '{"conjectured": null, "descriptor": "ucg:30", "exact": true, "hi": 4, '
        '"lo": 4, "provenance": [["complete-product", "lo 4"], '
        '["squarefree-small-omega", "lo 4"], ["complete-product", "hi 4"], '
        '["consecutive-run", "hi 6"], ["squarefree-small-omega", "hi 4"]], '
        '"quantity": "gamma", "tool_version": "0.1.0"}\n',
        "", EXIT_OK,
    ),
    (
        ["bounds", "K[1,2]xK[1,2]xK[1,3]"],
        '{"conjectured": null, "descriptor": "K[1,2]xK[1,2]xK[1,3]", "exact": true, '
        '"hi": 4, "lo": 4, "provenance": [["trivial", "lo 1"], ["k2-factor-reduction", '
        '"lo 4"], ["complete-product", "lo 4"], ["all-vertices", "hi 12"], '
        '["k2-factor-reduction", "hi 4"], ["complete-product", "hi 4"]], '
        '"quantity": "gamma", "tool_version": "0.1.0"}\n{"conjectured": null, '
        '"descriptor": "K[1,2]xK[1,2]xK[1,3]", "exact": true, "hi": 6, "lo": 6, '
        '"provenance": [["partite-column", "lo 6"], ["matching-partition-exact", '
        '"hi 6"]], "quantity": "upper", "tool_version": "0.1.0"}\n',
        "", EXIT_OK,
    ),
    (
        ["bounds", "K[2,2]xK[1,3]"],
        '{"conjectured": null, "descriptor": "K[2,2]xK[1,3]", "exact": false, '
        '"hi": 12, "lo": 2, "provenance": [["trivial", "lo 1"], ["blowup-lower", '
        '"lo 2"], ["all-vertices", "hi 12"]], "quantity": "gamma", '
        '"tool_version": "0.1.0"}\n{"conjectured": null, '
        '"descriptor": "K[2,2]xK[1,3]", "exact": true, "hi": 6, "lo": 6, '
        '"provenance": [["partite-column", "lo 6"], ["matching-partition-exact", '
        '"hi 6"]], "quantity": "upper", "tool_version": "0.1.0"}\n',
        "", EXIT_OK,
    ),
    (
        ["solve", "gamma", "K[1,2]xK[1,3]xK[1,5]xK[1,7]", "--no-cache"],
        '{"descriptor": "K[1,2]xK[1,3]xK[1,5]xK[1,7]", "elapsed_ms": 0, "hi": 8, '
        '"lo": 8, "method": "theorem", "nodes": 0, "optimal": true, '
        '"provenance": [["small-first-factor-lower", "lo 8"], ["cube-corner", "lo 8"], '
        '["cube-corner", "hi 8"]], "quantity": "gamma", "tool_version": "0.1.0", '
        '"value": 8, "witness": [0, 8, 36, 42, 105, 113, 141, 147]}\n',
        "", EXIT_OK,
    ),
    (
        ["construct", "diagonal", "K[1,4]xK[1,5]xK[1,7]"],
        '{"construction": "diagonal", "descriptor": "K[1,4]xK[1,5]xK[1,7]", '
        '"kind": "total_dominating", "size": 4, "tool_version": "0.1.0", '
        '"verified": true, "vertex_set": [0, 43, 86, 129]}\n',
        "", EXIT_OK,
    ),
    (
        ["construct", "partite-column", "K[1,3]xK[1,4]"],
        '{"construction": "partite-column", "descriptor": "K[1,3]xK[1,4]", '
        '"kind": "minimal_dominating", "size": 4, "tool_version": "0.1.0", '
        '"verified": true, "vertex_set": [0, 1, 2, 3]}\n',
        "", EXIT_OK,
    ),
    (
        ["construct", "t-plus-two", "K[1,4]xK[1,4]xK[1,5]xK[1,5]"],
        '{"construction": "t-plus-two", "descriptor": "K[1,4]xK[1,4]xK[1,5]xK[1,5]", '
        '"kind": "dominating", "size": 6, "tool_version": "0.1.0", "verified": true, '
        '"vertex_set": [0, 49, 124, 131, 262, 393]}\n',
        "", EXIT_OK,
    ),
    (
        ["construct", "cube-corner", "K[1,2]xK[1,3]xK[1,5]xK[1,7]"],
        '{"construction": "cube-corner", "descriptor": "K[1,2]xK[1,3]xK[1,5]xK[1,7]", '
        '"kind": "dominating", "size": 8, "tool_version": "0.1.0", "verified": true, '
        '"vertex_set": [0, 8, 36, 42, 105, 113, 141, 147]}\n',
        "", EXIT_OK,
    ),
    (
        ["construct", "partite-column", "K[2,2]xK[1,3]"],
        '{"construction": "partite-column", "descriptor": "K[2,2]xK[1,3]", '
        '"kind": "minimal_dominating", "size": 6, "tool_version": "0.1.0", '
        '"verified": true, "vertex_set": [0, 1, 2, 6, 7, 8]}\n',
        "", EXIT_OK,
    ),
    (
        ["bounds", "K[1,4]xK[1,5]xK[1,7]"],
        '{"conjectured": null, "descriptor": "K[1,4]xK[1,5]xK[1,7]", "exact": true, '
        '"hi": 4, "lo": 4, "provenance": [["trivial", "lo 1"], ["complete-product", '
        '"lo 4"], ["all-vertices", "hi 140"], ["diagonal-total", "hi 4"], '
        '["complete-product", "hi 4"]], "quantity": "gamma", "tool_version": "0.1.0"}\n'
        '{"conjectured": null, "descriptor": "K[1,4]xK[1,5]xK[1,7]", "exact": true, '
        '"hi": 35, "lo": 35, "provenance": [["partite-column", "lo 35"], '
        '["three-factor-exact", "hi 35"]], "quantity": "upper", "tool_version": "0.1.0"}\n',
        "", EXIT_OK,
    ),
    (
        ["bounds", "K[1,3]xK[2,3]"],
        '{"conjectured": null, "descriptor": "K[1,3]xK[2,3]", "exact": false, '
        '"hi": 18, "lo": 3, "provenance": [["trivial", "lo 1"], ["blowup-lower", '
        '"lo 3"], ["all-vertices", "hi 18"]], "quantity": "gamma", '
        '"tool_version": "0.1.0"}\n{"conjectured": null, "descriptor": "K[1,3]xK[2,3]", '
        '"exact": true, "hi": 6, "lo": 6, "provenance": [["partite-column", "lo 6"], '
        '["few-factor-exact", "hi 6"]], "quantity": "upper", "tool_version": "0.1.0"}\n',
        "", EXIT_OK,
    ),
    (
        ["solve", "gamma", "ucg:105", "--no-cache"],
        '{"descriptor": "ucg:105", "elapsed_ms": 0, "hi": 4, "lo": 4, "method": "theorem", '
        '"nodes": 0, "optimal": true, "provenance": [["complete-product", "lo 4"], '
        '["squarefree-small-omega", "lo 4"], ["four-corner", "hi 4"]], '
        '"quantity": "gamma", "tool_version": "0.1.0", "value": 4, '
        '"witness": [0, 36, 85, 91]}\n',
        "", EXIT_OK,
    ),
    (
        ["construct", "consecutive", "30"],
        '{"construction": "consecutive", "descriptor": "ucg:30", '
        '"kind": "total_dominating", "size": 6, "tool_version": "0.1.0", '
        '"verified": true, "vertex_set": [0, 1, 2, 3, 4, 5]}\n',
        "", EXIT_OK,
    ),
    (
        ["witness", "thm6", "--j", "3"],
        '{"D": [0, 1, 2, 3, 4, 5, 6, 7, 8, 646645], "g_lower": 11, "j": 3, "k": 4, '
        '"n": 969969, "primes": [11, 13, 17, 19], "q": 7, "run_length": 10, '
        '"size": 10, "tool_version": "0.1.0", "verified": true, "witness": "thm6", '
        '"y": 646645, "z": 913779}\n',
        "", EXIT_OK,
    ),
    (
        ["witness", "thm6", "--j", "8"],
        '{"D": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 11327066088025], '
        '"g_lower": 17, "j": 8, "k": 8, "n": 16990599132039, "primes": [17, 19, 23, '
        '29, 31, 37, 41, 43], "q": 13, "run_length": 16, "size": 16, '
        '"tool_version": "0.1.0", "verified": false, "witness": "thm6", '
        '"y": 11327066088025, "z": 8836739828058}\n',
        "", EXIT_OK,
    ),
    (
        ["witness", "prop1", "--family", "1", "--p1", "3", "--p2", "5"],
        '{"dominating_set": [0, 16, 21, 25], "family": 1, "g_lower": 5, "n": 30, '
        '"p1": 3, "p2": 5, "run_length": 4, "size": 4, "tool_version": "0.1.0", '
        '"verified": true, "witness": "prop1", "x": 2}\n',
        "", EXIT_OK,
    ),
    (
        ["witness", "prop1", "--family", "2", "--p1", "5", "--p2", "7"],
        '{"dominating_set": [0, 36, 85, 91, 105, 141, 190, 196], "family": 2, '
        '"g_lower": 10, "n": 210, "p1": 5, "p2": 7, "run_length": 9, "size": 8, '
        '"tool_version": "0.1.0", "verified": true, "witness": "prop1", "x": 2}\n',
        "", EXIT_OK,
    ),
    (
        ["conjecture", "ucg:12"],
        '{"agrees": true, "conjectured": 6, "descriptor": "ucg:12", "elapsed_ms": 0, '
        '"hi": 6, "lo": 6, "method": "reduction", "nodes": 0, "optimal": true, '
        '"quantity": "upper", "tool_version": "0.1.0", "value": 6, "witness": [0, 2, '
        '4, 6, 8, 10]}\n',
        "", EXIT_OK,
    ),
    (
        ["reproduce", "thm1", "--max", "3"],
        'descriptor,formula,solver,match\r\n"K[1,2]xK[1,2]",2,2,yes\r\n'
        '"K[1,2]xK[1,2]xK[1,2]",4,4,yes\r\n"K[1,2]xK[1,2]xK[1,3]",4,4,yes\r\n'
        '"K[1,2]xK[1,3]",2,2,yes\r\n"K[1,2]xK[1,3]xK[1,3]",4,4,yes\r\n'
        '"K[1,3]xK[1,3]",3,3,yes\r\n"K[1,3]xK[1,3]xK[1,3]",4,4,yes\r\n',
        "", EXIT_OK,
    ),
    (
        ["solve", "gamma", "K[1,1]"],
        "",
        "error: bad factor 'K[1,1]': need at least 2 partite sets, got 1\n", EXIT_BAD_INPUT,
    ),
    (
        ["construct", "t-plus-two", "K[1,3]xK[1,3]"],
        "",
        "error: need at least 4 factors, got 2\n", EXIT_BAD_INPUT,
    ),
    # input checks of scan, reproduce and construct
    (["scan", "M"], "", "error: scan needs --max\n", EXIT_BAD_INPUT),
    (["scan", "M", "--min", "10", "--max", "5"], "", "error: bad range [10, 5]\n",
     EXIT_BAD_INPUT),
    # an empty suite is refused: below 2 every suite is empty, and thm4's
    # smallest n with a repeated prime factor is 4
    (["reproduce", "eq7", "--max", "1"], "", "error: reproduce eq7 has no rows at --max 1\n",
     EXIT_BAD_INPUT),
    (["reproduce", "thm4", "--max", "2"], "",
     "error: reproduce thm4 has no rows at --max 2\n", EXIT_BAD_INPUT),
    (["reproduce", "thm4", "--max", "3"], "",
     "error: reproduce thm4 has no rows at --max 3\n", EXIT_BAD_INPUT),
    (["construct", "diagonal", "ucg:30"], "",
     "error: construction 'diagonal' needs a product spec\n", EXIT_BAD_INPUT),
    (["construct", "consecutive", "1"], "", "error: need n >= 2, got 1\n", EXIT_BAD_INPUT),
    (["construct", "diagonal", "K[1,5]xK[1,6]xK[1,7]", "--m", "-1"], "",
     "error: m must be nonnegative, got -1\n", EXIT_BAD_INPUT),
    (
        ["jacobsthal", "100000007"],
        "",
        "error: jacobsthal(100000007): radical 100000007 exceeds 100000000\n", EXIT_CAP,
    ),
]


@pytest.mark.parametrize(
    "argv, out, err, code", _PINNED, ids=[" ".join(case[0]) for case in _PINNED]
)
def test_records_are_pinned(capsys, argv, out, err, code):
    got_code, got_out, got_err = run(capsys, *argv)
    got_out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', got_out)
    assert (got_out, got_err, got_code) == (out, err, code)
