"""Command line front end: JSON records, exit codes, byte determinism."""

import json
import os
import subprocess
import sys

import pytest

X_QCV = "registers: ancilla=1 input=0 witness=1\nX 0\n"
H_QCV = "registers: ancilla=1 input=0 witness=1\nH 0\n"
H_NO_WITNESS_QCV = "registers: ancilla=1 input=0 witness=0\nH 0\n"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qcount.cli", *args],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )


def run_json(*args):
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1  # exactly one record per invocation
    return json.loads(lines[0])


@pytest.fixture
def circuits(tmp_path):
    paths = {}
    for name, text in [("x", X_QCV), ("h", H_QCV), ("h0", H_NO_WITNESS_QCV)]:
        p = tmp_path / f"{name}.qcv"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_exact_count_worked_example(circuits):
    rec = run_json("exact-count", circuits["x"], "--c", "0.666", "--s", "0.333")
    assert rec["N_geq_c"] == 2
    assert rec["N_geq_s"] == 2
    assert rec["op"] == "exact-count"
    assert rec["schema_version"] == 1
    assert rec["config"]["c"] == 0.666


def test_path_sum_worked_example(circuits):
    rec = run_json("path-sum", circuits["h0"], "--mode", "exact")
    assert (rec["g"], rec["f"]) == (1, 0)
    assert rec["trace"] == 0.5


def test_estimate_trace_record_fields(circuits):
    rec = run_json("estimate-trace", circuits["x"], "--M", "16", "--seed", "7")
    for key in ("circuit_hash", "x", "M", "epsilon", "value", "normalization", "seed"):
        assert key in rec
    assert rec["value"] == 2.0  # sure acceptor
    assert rec["seed"] == 7


def test_validate_dqc1(circuits):
    rec = run_json("validate-dqc1", circuits["x"])
    assert rec["valid"] is True
    assert rec["ancilla_bound"] == 3


def test_rect_poly_reports_zero_violations():
    rec = run_json("rect-poly", "--t", "0.5", "--width", "0.2", "--eps", "0.1")
    assert rec["violations"] == 0
    assert rec["degree"] <= rec["degree_budget"]


def test_svt_amplify_sandwich(circuits):
    rec = run_json(
        "svt-amplify", circuits["x"], "--c", "0.666", "--s", "0.333", "--eps", "0.05"
    )
    assert rec["satisfied"] is True
    assert rec["lower"] <= rec["trace_amplified"] <= rec["upper"]


def test_reduce_interval_worked_example(circuits):
    rec = run_json("reduce-interval", circuits["h"], "--M", "8")
    assert rec["estimate"] == 1.125
    assert rec["within_bound"] is True


def test_reduce_pad_worked_example(circuits):
    rec = run_json("reduce-pad", circuits["h"], "--u-exponent", "0.5", "--eps", "0.9")
    assert rec["pad_qubits"] == 4
    assert rec["in_interval"] is True


def test_decide_avg_accept(circuits):
    rec = run_json("decide-avg-accept", circuits["x"], "--seed", "3")
    assert rec["answer"] == "YES"
    assert rec["promise_violated"] is False


def test_unknown_subcommand_exits_1():
    assert run_cli("frobnicate").returncode == 1


def test_missing_file_exits_2(circuits):
    proc = run_cli("exact-count", "/no/such/file.qcv", "--c", "0.6", "--s", "0.3")
    assert proc.returncode == 2


def test_bad_flag_exits_2(circuits):
    proc = run_cli("estimate-trace", circuits["x"], "--M", "16")  # no --seed
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args,env",
    [
        (("exact-count", "{x}", "--c", "0.3", "--s", "0.6"), None),
        (("estimate-trace", "{x}", "--M", "16", "--seed", "-1"), None),
        (
            ("path-sum", "{x}", "--mode", "sampled", "--samples", "64", "--seed", str(2**64)),
            None,
        ),
        (("decide-avg-accept", "{x}", "--seed", "-1"), None),
        (("reduce-interval", "{h}", "--M", "8", "--seed", str(2**64)), None),
        (("reduce-pad", "{h}", "--u-exponent", "0.5", "--eps", "0.9", "--seed", "-1"), None),
        (("reduce-interval", "{h}", "--M", "0"), None),
        (("exact-count", "{x}", "--c", "0.6", "--s", "0.3"), {"QCOUNT_DENSE_CAP": "abc"}),
        (("reduce-pad", "{h}", "--u-exponent", "0.5", "--eps", "nan"), None),
        (("svt-amplify", "{x}", "--c", "0.6", "--s", "0.3", "--eps", "1e-300"), None),
        (("validate-dqc1", "{x}", "--x", "2"), None),
    ],
    ids=[
        "c-below-s",
        "estimate-trace-seed-negative",
        "path-sum-seed-too-large",
        "decide-seed-negative",
        "reduce-interval-seed-too-large",
        "reduce-pad-seed-negative",
        "reduce-interval-M-0",
        "dense-cap-not-integer",
        "reduce-pad-eps-nan",
        "svt-amplify-eps-below-safety",
        "validate-dqc1-bad-x",
    ],
)
def test_precondition_violation_exits_2(circuits, args, env):
    proc = run_cli(*[a.format(**circuits) for a in args], env=env)
    assert proc.returncode == 2
    assert f"qcount {args[0]}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qcount.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_malformed_circuit_exits_2(tmp_path):
    p = tmp_path / "bad.qcv"
    p.write_text("registers: ancilla=1 input=0 witness=1\nCNOT 0 1\n")
    proc = run_cli("exact-count", str(p), "--c", "0.6", "--s", "0.3")
    assert proc.returncode == 2


def test_sampled_mode_requires_seed(circuits):
    proc = run_cli("path-sum", circuits["x"], "--mode", "sampled", "--samples", "64")
    assert proc.returncode == 2


def test_random_strategy_requires_seed(circuits):
    proc = run_cli(
        "reduce-interval", circuits["h"], "--M", "8", "--delta-strategy", "random"
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("estimate-trace", "{x}", "--M", "64", "--seed", "11"),
        ("path-sum", "{x}", "--mode", "sampled", "--samples", "128", "--seed", "5"),
        ("decide-avg-accept", "{h}", "--seed", "21"),
        (
            "reduce-interval",
            "{h}",
            "--M",
            "8",
            "--delta-strategy",
            "random",
            "--eps-strategy",
            "random",
            "--seed",
            "13",
        ),
        (
            "reduce-pad",
            "{h}",
            "--u-exponent",
            "0.5",
            "--eps",
            "0.9",
            "--delta-strategy",
            "random",
            "--eps-strategy",
            "random",
            "--seed",
            "99",
        ),
    ],
)
def test_stochastic_subcommands_are_byte_deterministic(circuits, args):
    resolved = [a.format(**circuits) for a in args]
    first = run_cli(*resolved)
    second = run_cli(*resolved)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


def test_config_echo_round_trips(circuits):
    rec = run_json("estimate-trace", circuits["x"], "--M", "32", "--seed", "4")
    assert rec["config"]["M"] == 32
    assert rec["config"]["seed"] == 4
    assert rec["config"]["circuit"] == circuits["x"]
