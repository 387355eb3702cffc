import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conicac import cli
from conicac.geometry import MODEL_MAX_Q, build_conic_model
from conicac.nrc import P0_MAX
from conicac.search import is_ac_subset
from oracles import parse_param


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exact_command(capsys):
    code, out, _ = run(capsys, "exact", "9")
    assert code == cli.EXIT_OK
    assert out.startswith("q=9 t=6 witness=")


# `ac exact q` stdout for every prime power 5 <= q <= 25, recorded with the
# scalar Moebius canonicaliser, and for q=27, recorded with the cross-ratio
# canonicaliser at base size 6; the search must reproduce it byte for byte.
EXACT_STDOUT = {
    5: "q=5 t=5 witness=0,1,2,3,4",
    7: "q=7 t=6 witness=0,1,2,3,4,5",
    8: "q=8 t=6 witness=6,inf,7,3,1,4",
    9: "q=9 t=6 witness=6,inf,4,2,1,5",
    11: "q=11 t=8 witness=6,9,4,7,3,10,0,5",
    13: "q=13 t=8 witness=12,0,9,5,7,3,6,inf",
    16: "q=16 t=9 witness=13,inf,12,7,3,15,2,5,6",
    17: "q=17 t=10 witness=13,inf,9,5,3,12,4,16,6,0",
    19: "q=19 t=11 witness=13,17,9,12,6,7,2,5,inf,4,14",
    23: "q=23 t=12 witness=13,17,9,12,6,15,1,inf,4,11,16,0",
    25: "q=25 t=12 witness=24,1,17,10,13,3,15,21,8,7,0,20",
    27: "q=27 t=13 witness=24,1,17,10,13,25,8,5,15,11,3,26,2",
}


@pytest.mark.parametrize("q", sorted(EXACT_STDOUT))
def test_exact_stdout_pinned(capsys, q):
    code, out, err = run(capsys, "exact", str(q))
    assert code == cli.EXIT_OK and err == ""
    assert out == EXACT_STDOUT[q] + "\n"


# The rest of `EXACT_T`, recorded with the cross-ratio canonicaliser and the
# DFS that ORs each new point with the whole subset.
EXACT_STDOUT_SLOW = {
    29: "q=29 t=13 witness=23,22,25,16,14,6,5,8,18,10,9,21,12",
    31: "q=31 t=14 witness=3,12,25,30,21,inf,7,6,27,26,15,29,13,4",
    32: "q=32 t=15 witness=26,inf,25,15,31,16,10,18,5,30,9,27,12,19,14",
}


@pytest.mark.slow
@pytest.mark.parametrize("q", sorted(EXACT_STDOUT_SLOW))
def test_exact_stdout_pinned_above_27(capsys, q):
    """Budget, measured on a 2-vCPU VM: 0.23-0.28 s at q=29, 0.47-0.52 s
    at q=31 and 0.99-1.04 s at q=32 in a fresh process (0.08, 0.31 and
    0.78 s in one pytest run).  Deselected by default; `python -m pytest
    -q -m slow tests` runs it."""
    code, out, err = run(capsys, "exact", str(q))
    assert code == cli.EXIT_OK and err == ""
    assert out == EXACT_STDOUT_SLOW[q] + "\n"


# Past the paper's table: t(37) and t(43), computed by this repository.
EXACT_STDOUT_FORCED = {
    37: "q=37 t=16 witness=26,33,19,23,13,7,2,inf,20,35,31,12,32,22,25,30",
    43: "q=43 t=16 witness=26,33,19,23,13,11,0,30,35,2,21,3,37,28,inf,10",
}


@pytest.mark.slow
@pytest.mark.parametrize("q", sorted(EXACT_STDOUT_FORCED))
def test_exact_stdout_pinned_past_32(capsys, q):
    """Budget, measured on a 2-vCPU VM: 18 s at q=37 and 59 s at q=43 in a
    fresh process, at 50 and 108 MB peak RSS (12 and 54 s in one pytest
    run)."""
    code, out, err = run(capsys, "exact", str(q), "--force")
    assert code == cli.EXIT_OK and err == ""
    assert out == EXACT_STDOUT_FORCED[q] + "\n"


def test_exact_ceiling_checked_before_model_build(capsys, monkeypatch):
    def no_build(q):
        raise AssertionError("model built for a refused q")

    monkeypatch.setattr(cli, "build_conic_model", no_build)
    code, out, err = run(capsys, "exact", "64")
    assert code == cli.EXIT_USAGE and out == ""
    assert "ceiling" in err and "Traceback" not in err


def test_exact_limit_checked_before_model_build(capsys, monkeypatch):
    def no_build(q):
        raise AssertionError("model built for a refused q")

    monkeypatch.setattr(cli, "build_conic_model", no_build)
    code, out, err = run(capsys, "exact", str(cli.EXACT_MAX_Q + 3), "--force")
    assert code == cli.EXIT_USAGE and out == ""
    assert "limit" in err and "Traceback" not in err


def test_exact_force_passes_the_ceiling(capsys, monkeypatch):
    monkeypatch.setattr(cli, "exhaustive_min_ac", lambda model: (3, [0, 1, model.inf]))
    code, out, err = run(capsys, "exact", "37", "--force")
    assert code == cli.EXIT_OK and err == ""
    assert out == "q=37 t=3 witness=0,1,inf\n"


def test_exact_rejects_bad_q(capsys):
    code, _, err = run(capsys, "exact", "10")
    assert code == cli.EXIT_USAGE and "prime power" in err
    code, _, err = run(capsys, "exact", "4")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "exact", "49")
    assert code == cli.EXIT_USAGE and "ceiling" in err


def test_search_command_and_record(tmp_path, capsys):
    rec = tmp_path / "run.json"
    code, out1, _ = run(capsys, "search", "13", "--seed", "5",
                        "--restarts", "40", "--record", str(rec))
    assert code == cli.EXIT_OK
    q, size, names = out1.strip().split(";")
    assert q == "13" and 8 <= int(size) <= 10
    assert len(names.split(",")) == int(size)

    data = json.loads(rec.read_text())
    assert data["command"] == "search" and data["seed"] == 5
    assert data["parameters"]["q"] == 13
    assert data["outputs"]["witness_line"] == out1.strip()

    # replaying the recorded parameters reproduces the witness exactly
    code, out2, _ = run(capsys, "search", "13", "--seed", "5", "--restarts", "40")
    assert out2 == out1


def test_search_inf_in_witness(capsys):
    code, out, _ = run(capsys, "search", "5", "--restarts", "10")
    assert code == cli.EXIT_OK
    # q=5 minimum is 5 of the 6 conic points, so some witness names inf
    assert out.strip().startswith("5;5;")


def test_search_refuses_a_result_not_marked_ac(capsys, monkeypatch):
    real = cli.randomized_greedy

    def not_ac(*args, **kwargs):
        res = real(*args, **kwargs)
        res.is_ac = False
        return res

    monkeypatch.setattr(cli, "randomized_greedy", not_ac)
    with pytest.raises(AssertionError, match="non-AC witness"):
        cli.main(["search", "7", "--restarts", "2"])
    assert capsys.readouterr().out == ""


def test_bounds_command_csv(tmp_path, capsys):
    code, out, _ = run(capsys, "bounds", "--qlist", "11", "--names", "A,C")
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q,bound,value,value_star"
    assert lines[1].startswith("11,A,8,1.557")
    assert lines[2].startswith("11,C,")

    path = tmp_path / "b.csv"
    code, out, _ = run(capsys, "bounds", "--qlist", "9,101", "--names", "B",
                       "--out", str(path))
    assert code == cli.EXIT_OK
    lines = path.read_text().strip().splitlines()
    # B is infeasible at q=9: only the header and the q=101 row appear
    assert lines[0] == "q,bound,value,value_star"
    assert len(lines) == 2 and lines[1].startswith("101,B,")


def test_bounds_skips_infeasible_a_at_q5(capsys):
    code, out, _ = run(capsys, "bounds", "--qlist", "5,7", "--names", "A")
    assert code == cli.EXIT_OK
    assert [line.split(",")[0] for line in out.strip().splitlines()[1:]] == ["7"]
    code, out, _ = run(capsys, "bounds", "--qlist", "5")
    assert code == cli.EXIT_OK
    assert "5,A," not in out and out.startswith("q,bound,value,value_star")


def test_bounds_keeps_qlist_order_and_duplicates(capsys):
    code, out, _ = run(capsys, "bounds", "--qlist", "11,7,5,11", "--names", "A")
    assert code == cli.EXIT_OK
    assert [line.split(",")[:3] for line in out.strip().splitlines()[1:]] == [
        ["11", "A", "8"], ["7", "A", "6"], ["11", "A", "8"]]


@pytest.mark.parametrize("names, sha256", [
    ("A,B,C,theta", "8d4641fc5d66a46589c406ddea6ec6110458c46403ee492948fa0ed271fe50b1"),
    ("A", "6e638056922aeb353589c03212cf9d1eb6e64701f4d8982251fcea7ef5772a5e"),
], ids=["default-names", "A"])
def test_bounds_fig1_csv_pinned(tmp_path, capsys, names, sha256):
    """The fig1 CSV, byte for byte, as the scalar per-q code wrote it."""
    path = tmp_path / "fig1.csv"
    code, _, _ = run(capsys, "bounds", "--grid", "fig1", "--names", names, "--out", str(path))
    assert code == cli.EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_bounds_chunk_boundaries_do_not_change_the_csv(capsys, monkeypatch):
    argv = ("bounds", "--qlist", "11,7,5,13,16,43,11,101,9,49")
    code, whole, _ = run(capsys, *argv)
    assert code == cli.EXIT_OK and len(whole.splitlines()) == 1 + 9 + 3 + 10 + 10  # A B C theta
    for chunk in (1, 3, 4):
        monkeypatch.setattr(cli, "BOUNDS_CHUNK", chunk)
        assert run(capsys, *argv) == (cli.EXIT_OK, whole, "")


HUGE_PRIME = "1000000000000000003"  # trial division to 10^9 would hang


def run_subprocess(*argv, timeout=20):
    """`python -m conicac.cli ARGV` with a timeout, so that a hang fails the test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "conicac.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("q, code", [
    (HUGE_PRIME, cli.EXIT_USAGE),
    (str(cli.BOUNDS_Q_MAX + 19), cli.EXIT_USAGE),
    ("4294967311", cli.EXIT_OK),              # 2^32 + 15, prime
])
def test_bounds_q_limit(tmp_path, q, code):
    """q above BOUNDS_Q_MAX exits 2 before --out is opened.  In a
    subprocess with a timeout, so that a hang fails the test."""
    csv = tmp_path / "c.csv"
    out = run_subprocess("bounds", "--qlist", f"7,{q}", "--names", "C", "--out", str(csv))
    assert out.returncode == code
    if code == cli.EXIT_USAGE:
        assert out.stderr == f"error: q={q} is above the ac bounds limit {cli.BOUNDS_Q_MAX}\n"
        assert not csv.exists()
    else:
        assert [line.split(",")[0] for line in csv.read_text().splitlines()] == ["q", "7", q]


@pytest.mark.parametrize("argv, message", [
    (("search", HUGE_PRIME, "--restarts", "1"), "exceeds the table-backed field limit"),
    (("exact", HUGE_PRIME, "--force"), "exceeds the table-backed field limit"),
    (("nrc", "--range", HUGE_PRIME), f"above the bounds limit {cli.BOUNDS_Q_MAX}"),
])
def test_huge_prime_q_is_refused_before_factoring(argv, message):
    out = run_subprocess(*argv)
    assert out.returncode == cli.EXIT_USAGE and out.stdout == ""
    assert out.stderr.startswith("error: ") and message in out.stderr


@pytest.mark.parametrize("argv", [("search", "1048576", "--restarts", "1"),
                                  ("exact", "1048576", "--force")])
def test_q_above_the_model_limit_is_refused(argv):
    """2^20 passes the field limit, but its conic model would take TiB: the
    command exits 2 before building the field."""
    out = run_subprocess(*argv)
    assert out.returncode == cli.EXIT_USAGE and out.stdout == ""
    assert out.stderr == f"error: q=1048576 exceeds the conic model limit {MODEL_MAX_Q}\n"


@pytest.mark.slow
def test_search_1024_in_bounded_memory():
    """`ac search 1024` finds an AC witness in a child whose peak RSS stays
    under 400 MB; a table of sigma_P(t) for every t and P took 2.1 GB there.
    Budget, measured on a 2-vCPU VM: about 1.3 s at 87 MB."""
    out = run_subprocess("search", "1024", "--restarts", "1", timeout=300)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert out.returncode == cli.EXIT_OK and out.stderr == ""
    q, size, names = out.stdout.strip().split(";")
    model = build_conic_model(1024)
    witness = [parse_param(model, name) for name in names.split(",")]
    assert (q, int(size)) == ("1024", len(witness))
    assert is_ac_subset(model, witness)
    assert peak_mb < 400, peak_mb


def test_verify_huge_prime_row_fails_without_hanging(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(f"q,tbar\n49,18\n{HUGE_PRIME},10\n")
    out = run_subprocess("verify", str(path))
    assert out.returncode == cli.EXIT_FAIL
    assert f"q={HUGE_PRIME} tbar=10 FAIL: q={HUGE_PRIME} is above the bounds limit" in out.stdout
    assert out.stdout.splitlines()[-1] == f"{path}: 1/2 rows pass"


@pytest.mark.parametrize("argv", [
    ("verify", "{missing}/t.csv"),
    ("bounds", "--qlist", "11", "--out", "{missing}/x.csv"),
    ("search", "7", "--restarts", "2", "--record", "{missing}/r.json"),
])
def test_bad_paths_are_usage_errors(tmp_path, capsys, argv):
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [("--qlist", "6"), ("--qlist", "7,6"), ("--qlist", "4")])
def test_bounds_rejects_q_that_is_not_a_prime_power_from_5(tmp_path, capsys, argv):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: q=") and "prime power" in err
    path = tmp_path / "b.csv"
    code, _, _ = run(capsys, "bounds", *argv, "--out", str(path))
    assert code == cli.EXIT_USAGE and not path.exists()


@pytest.mark.parametrize("prob", ["1.5", "-3", "nan"])
def test_search_rejects_prob_outside_unit_interval(capsys, prob):
    code, out, err = run(capsys, "search", "7", "--restarts", "2", "--prob", prob)
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: random_step_prob")


@pytest.mark.parametrize("setting", [("--jobs", "0"), ("--prob", "2"), ("--restarts", "0")])
def test_search_settings_checked_before_model_build(tmp_path, capsys, monkeypatch, setting):
    def no_build(q):
        raise AssertionError("model built for refused settings")

    monkeypatch.setattr(cli, "build_conic_model", no_build)
    rec = tmp_path / "r.json"
    code, out, err = run(capsys, "search", "361", *setting, "--record", str(rec))
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ") and not rec.exists()


@pytest.mark.parametrize("q", ["3", "6", "5000"])
def test_refused_q_leaves_an_existing_record_unchanged(tmp_path, capsys, q):
    # q < 4, not a prime power, above the model limit
    rec = tmp_path / "r.json"
    rec.write_bytes(b'{"command": "search"}\n')
    code, out, err = run(capsys, "search", q, "--restarts", "1", "--record", str(rec))
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("error: ")
    assert rec.read_bytes() == b'{"command": "search"}\n'


def test_bounds_rejects_unknown_name(capsys):
    code, _, err = run(capsys, "bounds", "--qlist", "11", "--names", "A,Z")
    assert code == cli.EXIT_USAGE and "unknown bound" in err


@pytest.mark.parametrize("names", ["A,A", "B,theta, B"])
def test_bounds_rejects_a_repeated_name(capsys, names):
    code, out, err = run(capsys, "bounds", "--qlist", "7", "--names", names)
    repeated = names.split(",")[0]
    assert code == cli.EXIT_USAGE and out == ""
    assert f"bound name {repeated!r} given more than once" in err


def test_bounds_needs_a_grid(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ("nrc", "--p0", "1", "--complete", "8", "6"),
    ("nrc", "--range", "25", "--c", "1.6"),
    ("nrc", "--complete", "5", "2", "--c", "1.6"),
    ("bounds", "--qlist", "7", "--grid", "fig1"),
    ("search", "7", "--jobs", "0"),
    ("search", "7", "--jobs", "-1"),
    ("nrc", "--p0", "1", "--c", "0"),
    ("nrc", "--p0", "1", "--c", "-1"),
])
def test_conflicting_or_invalid_settings_are_usage_errors(capsys, argv):
    """Each input is set one way: a second mode, a setting the chosen mode
    ignores, or a value outside its domain exits 2 before any output."""
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_USAGE and out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_nrc_p0_rejects_non_finite_c_without_hanging(c):
    # in a subprocess with a timeout: a p0 search that never crosses never ends
    out = run_subprocess("nrc", "--p0", "1", "--c", c, timeout=60)
    assert out.returncode == cli.EXIT_USAGE and out.stdout == ""
    assert out.stderr.startswith("error: c=")


@pytest.mark.parametrize("c", ["1e6", "1e308"])
def test_nrc_p0_refuses_a_p0_past_the_walk_limit_without_hanging(c):
    # c = 1e6 crosses far above P0_MAX; at 1e308, 4c overflows to inf and the
    # margin is -inf at every prime.  Both are refused before the walk.
    out = run_subprocess("nrc", "--p0", "1", "--c", c, timeout=60)
    assert out.returncode == cli.EXIT_USAGE and out.stdout == ""
    assert out.stderr.startswith("error: c=") and f"walk limit {P0_MAX}" in out.stderr


def test_verify_embedded(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == cli.EXIT_OK
    assert "55/55 rows pass" in out


def test_verify_csv_failure(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("q,tbar\n49,18\n49,999\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == cli.EXIT_FAIL
    assert "1/2 rows pass" in out.splitlines()[-1]
    assert "FAIL" in out


def test_verify_rows_that_theta_refuses_fail_alone(tmp_path, capsys):
    """A row with q < 5 or q not a prime power fails with Theta's reason and
    gets no star check; every other row keeps its verdict."""
    path = tmp_path / "t.csv"
    path.write_text("q,tbar,tstar\n1,3,1.0\n0,3,1.0\n4,3,1.0\n100,20,1.3\n49,18,1.31\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == cli.EXIT_FAIL and err == ""
    assert out.splitlines() == [
        "q=1 tbar=3 FAIL: q must be >= 5",
        "q=0 tbar=3 FAIL: q must be >= 5",
        "q=4 tbar=3 FAIL: q must be >= 5",
        "q=100 tbar=20 FAIL: q=100 is not a prime power",
        "q=49 tbar=18 ok",
        f"{path}: 1/5 rows pass",
    ]


def test_verify_csv_malformed(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("q,tbar\n49,xyz\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == cli.EXIT_USAGE and "line 2" in err


def test_verify_csv_nan_star_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("q,tbar,tstar\n1024,127,nan\n2048,194,NaN\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == cli.EXIT_USAGE and out == ""
    assert err == "error: line 2: non-finite tstar in '1024,127,nan'\n"


def test_nrc_p0(capsys):
    code, out, _ = run(capsys, "nrc", "--p0", "1")
    assert code == cli.EXIT_OK and out.strip() == "h=1 c=1.525 p0=757"
    code, out, _ = run(capsys, "nrc", "--p0", "2", "--c", "1.62")
    assert out.strip() == "h=2 c=1.62 p0=1543"


def test_nrc_range(capsys):
    code, out, _ = run(capsys, "nrc", "--range", "25")
    assert code == cli.EXIT_OK and out.strip() == "q=25 N-range=[3,12]"
    code, out, _ = run(capsys, "nrc", "--range", "5")
    assert out.strip() == "q=5 N-range=empty"


def test_nrc_complete(capsys):
    code, out, _ = run(capsys, "nrc", "--complete", "5", "2")
    assert code == cli.EXIT_OK and out.strip() == "q=5 N=2: complete"
    code, out, _ = run(capsys, "nrc", "--complete", "4", "2")
    assert out.strip() == "q=4 N=2: extendable by 1 point(s)"


def test_nrc_usage_errors(capsys):
    code, _, err = run(capsys, "nrc")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "nrc", "--complete", "6", "2")
    assert code == cli.EXIT_USAGE and "prime power" in err
    code, _, err = run(capsys, "nrc", "--complete", "31", "8")
    assert code == cli.EXIT_USAGE and "too large" in err
    code, _, err = run(capsys, "nrc", "--range", "4")
    assert code == cli.EXIT_USAGE and err == "error: q must be >= 5\n"
    code, _, err = run(capsys, "nrc", "--range", "6")
    assert code == cli.EXIT_USAGE and err == "error: q=6 is not a prime power\n"


@pytest.mark.parametrize("q, n", [(1000003, 2), (10007, 10000)])
def test_nrc_complete_refuses_oversized_instances_before_building(capsys, monkeypatch, q, n):
    def no_field(q):
        raise AssertionError("field built for a refused instance")

    monkeypatch.setattr(cli, "field_for_order", no_field)
    code, out, err = run(capsys, "nrc", "--complete", str(q), str(n))
    assert code == cli.EXIT_USAGE and out == ""
    assert "instance too large" in err and "Traceback" not in err


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
