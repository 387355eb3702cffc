"""Smoke tests of the benchmark itself at tiny sizes (not part of the
program's test suite):

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import compare
import run
import tracing
import workloads as wl

PROG = run.import_program()


def _tiny_ops(t7=6, p0=757, search_seed=1):
    return [
        wl.Op(["search", "7", "--seed", "1", "--restarts", "3", "--prob", "0.1",
               "--jobs", "1", "--record", "s7.json"],
              kind="search", q=7, out_file="s7.json", expect={"seed": search_seed}),
        wl.Op(["exact", "7"], kind="exact", q=7, expect={"t": t7}),
        wl.Op(["bounds", "--qlist", "43,121", "--names", "B", "--out", "b.csv"],
              kind="bounds", out_file="b.csv", expect={"name": "B", "qs": [43, 121]}),
        wl.Op(["nrc", "--p0", "1"], kind="p0", expect={"h": 1, "p0": p0}),
        wl.Op(["verify"], kind="verify", expect={"last": wl.VERIFY_LAST_LINE}),
    ]


def _oks(ops, tmp_path, tracer=None):
    res = run.run_pass(PROG, ops, wl.Checker(), str(tmp_path), tracer)
    return [r["ok"] for r in res["ops"]]


def test_benchmark_json_matches_definitions():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.benchmark_spec()


def test_tiny_ops_pass(tmp_path):
    assert _oks(_tiny_ops(), tmp_path) == [True] * 5


def test_wrong_expected_values_count_as_failures(tmp_path, monkeypatch):
    ops = _tiny_ops(t7=7, p0=758, search_seed=2)
    monkeypatch.setitem(wl.BOUND_REFERENCE["B"], 43, 25.0)
    assert _oks(ops, tmp_path) == [False, False, False, False, True]


def test_known_defect_is_a_failure_but_flagged(tmp_path):
    op = wl.Op(["bounds", "--qlist", "5,7", "--names", "A", "--out", "a.csv"],
               kind="bounds", out_file="a.csv", known_defect=wl.Q5_DEFECT,
               expect={"name": "A", "qs": [5, 7]})
    (r,) = run.run_pass(PROG, [op], wl.Checker(), str(tmp_path))["ops"]
    assert not r["ok"] and r["known_defect"] and r["rc"] == 2


def test_workload_inputs_depend_only_on_seed():
    for w in wl.WORKLOADS.values():
        assert ([o.argv for o in w.make_ops(3)] == [o.argv for o in w.make_ops(3)])
    assert wl.prime_powers_up_to(300) == PROG.bounds.prime_powers_up_to(300)


def test_traced_counts_repeat_and_tracing_is_removed(tmp_path):
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer(PROG)
        assert _oks(_tiny_ops(), tmp_path, tracer) == [True] * 5
        m = tracer.metrics(0.0)
        counts.append({k: m[k] for k in m if ".calls." in k or k in (
            "search.pair_mask_calls", "bounds.B.scan_w", "nrc.is_prime_calls",
            "search.restarts", "bounds.rows")})
    assert counts[0] == counts[1]
    assert counts[0]["search.pair_mask_calls"] > 0 and counts[0]["gf.calls.mul"] > 0
    assert counts[0]["search.restarts"] == 3  # exact q=7 enumerates without greedy
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
    assert PROG.cli.build_conic_model is PROG.geometry.build_conic_model
    assert PROG.gf.FieldCtx.add.__name__ == "add"


@pytest.mark.parametrize("q", [7, 8, 9, 16, 25, 27, 32])
def test_ac_check_agrees_with_the_program(q):
    model = PROG.geometry.build_conic_model(q)
    rng = random.Random(q)
    witness = PROG.search.randomized_greedy(model, seed=1, restarts=2).witness
    subsets = [witness, witness[:-1]] + [rng.sample(model.params, rng.randrange(3, q + 1))
                                         for _ in range(100)]
    verdicts = [(wl.covers_plane(q, s), PROG.search.is_ac_subset(model, s)) for s in subsets]
    assert all(a == b for a, b in verdicts)
    assert verdicts[0] == (True, True)


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    noisy = [v * (1.3 if i % 2 else 0.8) for i, v in enumerate(parent)]

    def v(change):
        return compare.verdict(parent, change, list(zip(parent, change)), "lower", 0.15)[0]
    assert (v(faster), v(slower), v(noisy)) == ("improved", "regressed", "unresolved")


def test_no_result_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
