"""Command-line interface: payload schemas, formats, and exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistcode.cli import main
from twistcode.projgeom import class_reps_range

import naive_ref
from helpers import LINE_FLAGS_SHA256, flat_codewords, prime_power, system


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    text = buf.getvalue()
    try:
        return code, json.loads(text)
    except json.JSONDecodeError:
        return code, text


def test_params_profile():
    code, out = run("params", "--q", "4", "--j", "1", "--n", "2")
    assert code == 0
    assert out["schema_version"] == 1
    assert out["command"] == "params"
    assert out["length"] == 105
    assert out["ambient_dimension"] == 9
    assert out["code_dimension"] == 9
    assert out["min_distance"] == 56
    assert out["theta_bounds"] == {"1": 6, "2": 4, "3": 7}
    assert out["cardinalities"] == {
        "base": 21, "singular": 41, "quasi_singular": 45, "spread_type": 21}
    assert out["config"]["fixed_subfield"] == 2
    assert out["config"]["sigma_order"] == 2


def test_params_accepts_p_t_form():
    code, out = run("params", "--p", "2", "--t", "2", "--j", "1", "--n", "2")
    assert code == 0
    assert out["config"]["q"] == 4
    code, out = run("params", "--q", "4", "--p", "2", "--j", "1", "--n", "2")
    assert code == 2
    assert out["error"]["type"] == "ValueError"


def test_sigma_exp_alias():
    code, out = run("params", "--q", "9", "--sigma-exp", "3", "--n", "2")
    assert code == 0
    assert out["config"]["j"] == 1
    code, out = run("params", "--q", "9", "--sigma-exp", "5", "--n", "2")
    assert code == 2


def test_system_allows_identity_twist():
    code, out = run("system", "--q", "4", "--n", "2")
    assert code == 0
    assert out["span_rank"] == 8
    assert out["injective"] is True
    code, out = run("system", "--q", "4", "--j", "1", "--n", "2")
    assert code == 0
    assert out["span_rank"] == 9


def test_other_commands_reject_identity_twist():
    for cmd in ("theta", "classify"):
        code, out = run(cmd, "--q", "4", "--n", "2",
                        "--matrix", "1,0,0;0,1,0;0,0,1")
        assert code == 2
        assert "identity twist" in out["error"]["message"]
    code, out = run("spectrum", "--q", "4", "--n", "2")
    assert code == 2


def test_theta_identity_matrix():
    code, out = run("theta", "--q", "4", "--j", "1", "--n", "2",
                    "--matrix", "1,0,0;0,1,0;0,0,1")
    assert code == 0
    assert out["theta"] == 7
    assert out["weight"] == 56
    assert out["vanishing_flags"] == 49
    assert out["kernel_classes"] == 0
    assert out["identity_checked"] is True


def test_theta_rejects_malformed_matrix():
    code, out = run("theta", "--q", "4", "--j", "1", "--n", "2",
                    "--matrix", "1,0;0,1")
    assert code == 2
    code, out = run("theta", "--q", "4", "--j", "1", "--n", "2",
                    "--matrix", "1,0,x;0,1,0;0,0,1")
    assert code == 2
    code, out = run("theta", "--q", "4", "--j", "1", "--n", "2",
                    "--matrix", "0,0,0;0,0,0;0,0,0")
    assert code == 2


def test_classify_matrix_units():
    code, out = run("classify", "--q", "4", "--j", "1", "--n", "2",
                    "--matrix", "0,1,0;0,0,0;0,0,0")
    assert code == 0
    assert out["kind"] == "singular"
    assert out["cardinality"] == 41
    assert out["rank"] == 1
    assert out["is_hyperplane"] is True
    code, out = run("classify", "--q", "4", "--j", "1", "--n", "2",
                    "--matrix", "1,0,0;0,0,0;0,0,0")
    assert code == 0
    assert out["kind"] == "quasi_singular"
    assert out["cardinality"] == 45


def test_spectrum_json_and_csv_agree():
    code, out = run("spectrum", "--q", "4", "--j", "1", "--n", "2")
    assert code == 0
    assert out["mode"] == "exhaustive"
    assert out["counts"]["56"] == 1080
    assert sum(out["counts"].values()) == 4 ** 9
    code, text = run("spectrum", "--q", "4", "--j", "1", "--n", "2",
                     "--format", "csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "weight,count"
    weights = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert weights == sorted(weights)
    parsed = {str(w): int(c) for w, c in
              (ln.split(",") for ln in lines[1:])}
    assert parsed == out["counts"]


def test_spectrum_thread_count_does_not_change_output():
    _, a = run("spectrum", "--q", "4", "--j", "1", "--n", "2",
               "--threads", "1")
    _, b = run("spectrum", "--q", "4", "--j", "1", "--n", "2",
               "--threads", "2")
    assert a == b


def _stdout(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("q, classes", [(4, 85), (8, 585), (16, 4369)])
def test_minimality_witness_at_n1(q, classes):
    argv = ("minimality", "--q", str(q), "--j", "1", "--n", "1")
    (c1, text), (c2, text2) = (_stdout(*argv, "--threads", th)
                               for th in ("1", "2"))
    assert c1 == c2 == 0 and text == text2
    out = json.loads(text)
    assert out["minimal"] is False and out["classes_checked"] == classes
    assert out["witness_index"] == 0
    assert out["witness"] == [[0, 0], [0, 1]]
    assert out["covering"] == [[1, 0], [0, 0]]
    # the witness is the first class whose zero rows have rank < k - 1
    ps = system(*prime_power(q), 1, 1)
    nf = naive_ref.make_naive(q)
    R = class_reps_range(q, ps.k, 0, classes, dtype=ps.ctx.dtype)
    first = next(i for i, zero in enumerate(flat_codewords(ps, R) == 0)
                 if naive_ref.naive_rank(nf, ps.flat[zero].tolist()) < ps.k - 1)
    assert out["witness_index"] == first


def test_minwords_payload():
    argv = ("minwords", "--q", "4", "--j", "1", "--n", "2")
    (c1, text), (c2, text2) = (_stdout(*argv, "--threads", th)
                               for th in ("1", "2"))
    assert c1 == c2 == 0 and text == text2
    out = json.loads(text)
    assert {k: out[k] for k in ("classes", "condition_classes", "mismatches",
                                "first_mismatch", "ok")} == {
        "classes": 87381, "condition_classes": 360, "mismatches": 0,
        "first_mismatch": None, "ok": True}


def test_minimality_beyond_the_pair_cap_fails_fast():
    # (8, 2) has 19,173,961 classes, under the class cap, but ranking their
    # zero rows would take minutes: 1.26e10 class x flag pairs
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcode.cli", "minimality", "--q", "8",
         "--j", "1", "--n", "2"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2, proc.stderr
    msg = json.loads(proc.stdout)["error"]["message"]
    assert msg == ("12597292377 class x flag pairs exceed the exhaustive cap "
                   "1000000000")


def test_sampled_spectrum_reports_mode():
    code, out = run("spectrum", "--q", "4", "--j", "1", "--n", "2",
                    "--sample", "200", "--seed", "9")
    assert code == 0
    assert out["mode"] == "sampled"
    assert sum(out["counts"].values()) == 200


def test_sampled_spectrum_beyond_the_table_fields():
    code, out = run("spectrum", "--q", "2048", "--j", "1", "--n", "1",
                    "--sample", "10")
    assert code == 0
    assert out["mode"] == "sampled"
    assert sum(out["counts"].values()) == 10


def test_out_writes_file():
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "payload.json"
        code, text = run("params", "--q", "4", "--j", "1", "--n", "2",
                         "--out", str(target))
        assert code == 0
        assert text == ""
        assert json.loads(target.read_text())["length"] == 105


def test_spread_budget_exhaustion_exit_code():
    code, out = run("spread", "--q", "4", "--j", "1", "--n", "1",
                    "--attempts", "60", "--seed", "4")
    assert code == 1
    err = out["error"]
    assert err["type"] == "SearchBudgetExhausted"
    assert err["attempts"] == 60
    assert err["histogram"] == {"3": 60}


def test_spread_beyond_the_table_fields_exhausts_cleanly():
    # q = 4096 has no q x q tables; s + 1 = 65 points of PG(1, 64) are fixed
    code, out = run("spread", "--q", "4096", "--j", "6", "--n", "1",
                    "--attempts", "1")
    assert code == 1
    assert out["error"]["type"] == "SearchBudgetExhausted"
    assert out["error"]["histogram"] == {"65": 1}


def test_spread_default_attempts():
    code, out = run("spread", "--q", "4", "--j", "1", "--n", "1")
    assert code == 1
    assert out["error"]["attempts"] == 1000
    assert out["error"]["histogram"] == {"3": 1000}


def test_unusable_counts_are_usage_errors():
    for argv in (("spectrum", "--q", "4", "--j", "1", "--n", "2",
                  "--threads", "-3"),
                 ("autcheck", "--q", "4", "--j", "1", "--n", "1",
                  "--trials", "-1"),
                 ("autcheck", "--q", "4", "--j", "1", "--n", "1",
                  "--nonkernel", "-5"),
                 ("spread", "--q", "4", "--j", "1", "--n", "1",
                  "--attempts", "0"),
                 ("spread", "--q", "4", "--j", "1", "--n", "1",
                  "--attempts", "-4")):
        code, out = run(*argv)
        assert code == 2, argv
        assert out["error"]["type"] == "ValueError"
        assert argv[-2] in out["error"]["message"]


def test_spread_precondition_failures():
    code, out = run("spread", "--q", "4", "--j", "1", "--n", "2",
                    "--attempts", "5")
    assert code == 2
    code, out = run("spread", "--q", "8", "--j", "1", "--n", "1",
                    "--attempts", "5")
    assert code == 2


def test_fpf_witness_payload():
    code, out = run("fpf", "--q", "9", "--j", "1", "--n", "1")
    assert code == 0
    assert out["theta"] == 0
    assert out["weight"] == 10
    assert out["cardinality"] == 0
    assert out["seed"] == 0xF1E1D
    assert out["attempts"] >= 1
    assert "model_degree" not in out and "omega_power" not in out
    nf = naive_ref.make_naive(9)
    assert naive_ref.naive_theta(nf, 1, out["matrix"]) == 0
    assert out["type"] in ("plain", "spread_type")
    # gcd((4^2-1)/3, 2-1) = 1, and the witness exists all the same
    code, out = run("fpf", "--q", "4", "--j", "1", "--n", "1")
    assert code == 0
    assert out["theta"] == 0
    assert out["weight"] == 5
    assert naive_ref.naive_theta(naive_ref.make_naive(4), 1,
                                 out["matrix"]) == 0


@given(st.sampled_from([4, 8, 9, 16, 25, 27]).flatmap(
           lambda q: st.tuples(st.just(q),
                               st.integers(0, prime_power(q)[1] - 1))),
       st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=5000)
def test_fpf_argv_fuzz(qj, n):
    q, j = qj
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run("fpf", "--q", str(q), "--j", str(j), "--n", str(n))
    assert isinstance(out, dict), out
    assert "Traceback" not in err.getvalue()
    if j == 0:
        assert code == 2
        assert out["error"]["type"] == "ValueError"
        return
    assert code == 0
    assert out["theta"] == 0
    assert out["weight"] == q ** (n - 1) * (q ** (n + 1) - 1) // (q - 1)


def test_autcheck_smoke():
    code, out = run("autcheck", "--q", "4", "--j", "1", "--n", "1",
                    "--trials", "25", "--nonkernel", "25", "--seed", "3")
    assert code == 0
    assert out["ok"] is True
    assert out["trials"] == 25
    assert out["weight_failures"] == 0


def test_autcheck_beyond_the_table_fields():
    # no q x q tables above q = 1024: log-table products, XOR sums (p = 2)
    # and Zech sums (p = 3)
    for q, count in (("2048", "1"), ("2187", "2")):
        code, out = run("autcheck", "--q", q, "--j", "1", "--n", "1",
                        "--trials", count, "--nonkernel", count)
        assert code == 0, q
        assert out["ok"] is True, q


def test_classify_on_the_single_line_of_pg1_2048():
    # PG(1, 2048) has one line of 2049 points; a fresh interpreter with a
    # timeout, so that a hang fails this test instead of stalling the suite
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcode.cli", "classify", "--q", "2048",
         "--j", "1", "--n", "1", "--matrix", "1,0;0,1"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "classify"


def test_sampled_spectrum_builds_no_system():
    # a sampled spectrum reads only the field, the twist and n; building the
    # flag geometry of PG(1, 65536) first took minutes
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "twistcode.cli", "spectrum", "--q", "65536",
         "--j", "8", "--n", "1", "--sample", "50"],
        capture_output=True, text=True, env=env, timeout=15)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["mode"] == "sampled" and out["classes"] == 50
    assert sum(out["counts"].values()) == 50
    assert out["config"]["fixed_subfield"] == 256
    # the identity twist is still refused, and so are more functional
    # classes than the point cap
    for argv in (("--q", "4", "--n", "2"), ("--q", "4", "--j", "1", "--n", "40")):
        code, out = run("spectrum", *argv, "--sample", "3")
        assert code == 2 and out["error"]["type"] == "ValueError", argv


def test_lines_summary_and_csv():
    code, out = run("lines", "--q", "4", "--j", "1", "--n", "2")
    assert code == 0
    assert out["flags_per_line"] == 5
    assert set(out["families"]) == {"point-pencil", "hyperplane-pencil"}
    assert out["count"] == sum(out["families"].values())
    code, text = run("lines", "--q", "4", "--j", "1", "--n", "2",
                     "--format", "csv")
    rows = text.strip().splitlines()
    assert rows[0] == "family,flags"
    assert len(rows) - 1 == out["count"]
    assert all(len(r.split(",")[1].split()) == 5 for r in rows[1:])


# sha256 of the `lines` stdout: its rows, their order and the family
# split are part of the CLI contract
LINES_SHA256 = {
    ("2", "csv"): "0e80b47a9fae6041b84ed34ae7875df274cc1b067b71e01c9f719564cbc5004a",
    ("2", "json"): "615965c1674369ccaf2b9eff74fef381399a619701edc6a7e53070a6ef538700",
    ("3", "csv"): "f43be88956fa4bf3f7157e881a7d175d50b57e2eca9fce6a7776b96de5476390",
    ("3", "json"): "ae3b21f2ff08c4e04c270e0b395576270aca5fcadd05bf289633f04aa3847a8c",
}


@pytest.mark.parametrize("n,fmt", sorted(LINES_SHA256))
def test_lines_stdout_is_pinned(n, fmt):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["lines", "--q", "4", "--j", "1", "--n", n,
                     "--format", fmt])
    assert code == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == LINES_SHA256[n, fmt]


def test_lines_at_a_prime_q():
    # the lines of Gamma do not depend on sigma, so lines runs at j = 0 and
    # prints the pinned line_flags rows
    code, out = run("lines", "--q", "3", "--n", "3")
    assert code == 0 and out["config"]["j"] == 0
    assert out["families"] == {"point-pencil": 520, "hyperplane-pencil": 520}
    code, text = run("lines", "--q", "3", "--n", "3", "--format", "csv")
    assert code == 0
    rows = text.strip().splitlines()[1:]
    flags = np.array([r.split(",")[1].split() for r in rows], dtype=np.int32)
    npp = sum(r.startswith("point-pencil,") for r in rows)
    assert (hashlib.sha256(flags.tobytes()).hexdigest(), npp) == \
        LINE_FLAGS_SHA256[3, 3]


def test_bad_field_is_a_usage_error():
    code, out = run("params", "--q", "6", "--n", "1")
    assert code == 2
    code, out = run("params", "--q", "4", "--n", "0")
    assert code == 2
    # a field or a class count far beyond the caps fails fast: a fresh
    # interpreter with a timeout, so that a hang fails this test
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    prime = "1000000000000000000000007"
    for argv in (("--q", prime, "--n", "1"), ("--p", prime, "--n", "1"),
                 ("--p", "2", "--t", "100000000", "--n", "1"),
                 ("--p", "2", "--t", "100000000", "--sigma-exp", "5",
                  "--n", "1"),
                 ("--q", "4", "--j", "1", "--n", "3000"),
                 ("--q", "4", "--j", "1", "--n", "100000")):
        proc = subprocess.run(
            [sys.executable, "-m", "twistcode.cli", "params", *argv],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert json.loads(proc.stdout)["error"]["type"] == "ValueError", argv


def test_huge_n_is_a_short_usage_error():
    # every count capped by the flag or point cap is refused from n alone,
    # in a fresh interpreter with a timeout, so that a hang fails this test
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for n in (str(10 ** 30), "4000"):
        for cmd in (["system"], ["lines"], ["fpf"], ["theta", "--matrix", "1"],
                    ["spectrum", "--sample", "3"]):
            argv = [*cmd, "--q", "4", "--j", "1", "--n", n]
            proc = subprocess.run(
                [sys.executable, "-m", "twistcode.cli", *argv],
                capture_output=True, text=True, env=env, timeout=10)
            assert proc.returncode == 2, (argv, proc.stderr)
            error = json.loads(proc.stdout)["error"]
            assert error["type"] == "ValueError", argv
            assert len(error["message"]) < 200, argv
    # a count that prints keeps its message
    code, out = run("system", "--q", "4", "--j", "1", "--n", "12")
    assert code == 2
    assert out["error"]["message"] == ("125099980328505 flags exceed the "
                                       "10000000 cap")


def test_huge_sample_is_a_short_usage_error():
    # a sample above the exhaustive cap is refused before any draw, in a
    # fresh interpreter with a timeout: no memory error, no traceback
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    for sample in (str(10 ** 11), str(10 ** 30)):
        argv = ["spectrum", "--q", "4", "--j", "1", "--n", "2",
                "--sample", sample]
        proc = subprocess.run(
            [sys.executable, "-m", "twistcode.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2, (argv, proc.stderr)
        error = json.loads(proc.stdout)["error"]
        assert error["type"] == "ValueError", argv
        assert len(error["message"]) < 200, argv
        assert error["message"] == f"{sample} samples exceed the cap 20000000"


_HUGE = st.integers(-10 ** 30, 10 ** 30)


@given(st.sampled_from(["--q", "--p"]), st.sampled_from([2, 3, 4, 9]) | _HUGE,
       st.none() | st.integers(1, 3) | _HUGE,
       st.sampled_from([None, "--j", "--sigma-exp"]), st.integers(0, 3) | _HUGE,
       st.integers(1, 3) | _HUGE)
@settings(max_examples=100, deadline=10000)
def test_params_argv_fuzz(field, size, t, twist, e, n):
    # small values make real fields and profiles; any other may pass a cap
    # by far
    argv = [field, str(size), "--n", str(n)]
    if field == "--p" and t is not None:
        argv += ["--t", str(t)]
    if twist is not None:
        argv += [twist, str(e)]
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run("params", *argv)
    assert code in (0, 2), argv
    assert isinstance(out, dict), argv
    assert "Traceback" not in err.getvalue()
