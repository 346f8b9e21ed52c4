"""Command line front end: JSON records, exit codes, byte determinism."""

import errno
import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgen import random_circuit
from qcount.circuit import Gate, VerifierCircuit

X_QCV = "registers: ancilla=1 input=0 witness=1\nX 0\n"
H_QCV = "registers: ancilla=1 input=0 witness=1\nH 0\n"
H_NO_WITNESS_QCV = "registers: ancilla=1 input=0 witness=0\nH 0\n"
TWO_INPUT_QCV = "registers: ancilla=1 input=2 witness=1\nH 0\nTOF 1 2 0\nH 3\n"
COMMENT_ONLY_QCV = "# registers: ancilla=1 input=0 witness=1\n"
QUBITS_64_QCV = "registers: ancilla=1 input=0 witness=63\nH 0\n"
H_1001_QCV = "registers: ancilla=1 input=0 witness=1\n" + "H 0\n" * 1001
WITNESS_60_QCV = "registers: ancilla=1 input=0 witness=60\nH 0\n"
WITNESS_1100_QCV = "registers: ancilla=1 input=0 witness=1100\nH 0\n"
SUBCOMMANDS = (
    "decide-avg-accept",
    "estimate-trace",
    "exact-count",
    "path-sum",
    "rect-poly",
    "reduce-interval",
    "reduce-pad",
    "svt-amplify",
    "validate-dqc1",
)


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
    for name, text in [
        ("x", X_QCV),
        ("h", H_QCV),
        ("h0", H_NO_WITNESS_QCV),
        ("i2", TWO_INPUT_QCV),
        ("comment", COMMENT_ONLY_QCV),
        ("q64", QUBITS_64_QCV),
        ("h1001", H_1001_QCV),
        ("w60", WITNESS_60_QCV),
        ("w1100", WITNESS_1100_QCV),
    ]:
        p = tmp_path / f"{name}.qcv"
        p.write_text(text)
        paths[name] = str(p)
    (tmp_path / "utf16.qcv").write_bytes(X_QCV.encode("utf-16"))  # starts \xff\xfe
    paths["utf16"] = str(tmp_path / "utf16.qcv")
    return paths


def test_exact_count_worked_example(circuits):
    rec = run_json("exact-count", circuits["x"], "--c", "0.666", "--s", "0.333")
    assert rec["N_geq_c"] == 2
    assert rec["N_geq_s"] == 2
    assert rec["op"] == "exact-count"
    assert rec["schema_version"] == 1
    assert rec["config"]["c"] == 0.666


def test_exact_count_of_the_readme_example_prints_an_exact_trace(tmp_path):
    # h = 3 is odd: the Gram is halved rather than the embed scaled by 1/sqrt(2)
    path = tmp_path / "readme.qcv"
    path.write_text("registers: ancilla=1 input=0 witness=2\nH 1\nTOF 1 2 0\nX 0\n")
    proc = run_cli("exact-count", str(path), "--c", "0.666", "--s", "0.333")
    assert proc.returncode == 0, proc.stderr
    assert '"trace": 3.0, "trace_normalized": 0.75' in proc.stdout


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


def test_records_past_the_dense_cap_match_the_dense_route(tmp_path, monkeypatch, capsys):
    import qcount.cli

    rng = np.random.default_rng(314)
    circuits = [random_circuit(rng, num_ancilla=2, num_witness=3, gate_count=30) for _ in range(6)]
    circuits.append(VerifierCircuit(2, 0, 0, (Gate("H", (0,)),)))  # the one witness is ""
    for k, circ in enumerate(circuits):
        path = tmp_path / f"c{k}.qcv"
        path.write_text(circ.to_qcv())
        calls = {
            "value": ["estimate-trace", str(path), "--M", "64", "--seed", str(k)],
            "mean": ["decide-avg-accept", str(path), "--seed", str(k)],
        }
        for field, argv in calls.items():
            monkeypatch.delenv("QCOUNT_DENSE_CAP", raising=False)
            assert qcount.cli.run(argv) == 0
            dense = json.loads(capsys.readouterr().out)
            monkeypatch.setenv("QCOUNT_DENSE_CAP", str(circ.num_qubits - 1))
            assert qcount.cli.run(argv) == 0
            past = json.loads(capsys.readouterr().out)
            assert past[field] == dense[field]


def test_unknown_subcommand_exits_1():
    assert run_cli("frobnicate").returncode == 1


def test_no_arguments_exits_1():
    proc = run_cli()
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_help_lists_every_subcommand():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert f"subcommands: {', '.join(SUBCOMMANDS)}" in proc.stderr


def test_subcommand_help_exits_0():
    proc = run_cli("exact-count", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: qcount exact-count")
    for flag in ("circuit", "--x", "--c", "--s"):
        assert flag in proc.stdout


_FRAME_KEYS = {"config", "op", "schema_version"}
_CIRCUIT_KEYS = _FRAME_KEYS | {"circuit_hash"}
_CIRCUIT_CONFIG = {"circuit", "x"}


@pytest.mark.parametrize(
    "args,keys,config",
    [
        (
            ("exact-count", "{x}", "--c", "0.666", "--s", "0.333"),
            _CIRCUIT_KEYS | {"N_geq_c", "N_geq_s", "n_interval", "trace", "trace_normalized"},
            _CIRCUIT_CONFIG | {"c", "s"},
        ),
        (
            ("estimate-trace", "{x}", "--M", "16", "--seed", "7"),
            _CIRCUIT_KEYS
            | {"M", "delta", "epsilon", "normalization", "seed", "value", "x"},
            _CIRCUIT_CONFIG | {"M", "eps", "seed"},
        ),
        (
            ("path-sum", "{h0}", "--mode", "exact"),
            _CIRCUIT_KEYS | {"N_star", "f", "g", "h", "mode", "trace"},
            _CIRCUIT_CONFIG | {"eps", "mode", "samples", "seed"},
        ),
        (
            ("path-sum", "{x}", "--mode", "sampled", "--samples", "128", "--seed", "5"),
            _CIRCUIT_KEYS
            | {"N_star", "delta", "epsilon", "h", "mode", "normalization", "samples",
               "seed", "value"},
            _CIRCUIT_CONFIG | {"eps", "mode", "samples", "seed"},
        ),
        (
            ("rect-poly", "--t", "0.5", "--width", "0.2", "--eps", "0.1"),
            _FRAME_KEYS
            | {"coefficients", "degree", "degree_budget", "inner_max", "inner_min",
               "interpolation_bound", "max_abs", "outer_min", "violations"},
            {"eps", "t", "width"},
        ),
        (
            ("svt-amplify", "{x}", "--c", "0.666", "--s", "0.333", "--eps", "0.05"),
            _CIRCUIT_KEYS
            | {"N_geq_c", "N_geq_s", "amplified_eigenvalues", "lower", "poly_degree",
               "satisfied", "sigma_in_gap", "singular_values", "trace_amplified", "upper"},
            _CIRCUIT_CONFIG | {"c", "eps", "s"},
        ),
        (
            ("reduce-interval", "{h}", "--M", "8"),
            _CIRCUIT_KEYS
            | {"abs_error", "error_bound", "estimate", "exact_trace", "n_hat",
               "within_bound"},
            _CIRCUIT_CONFIG | {"M", "delta_strategy", "eps_strategy", "mode", "seed"},
        ),
        (
            ("reduce-pad", "{h}", "--u-exponent", "0.5", "--eps", "0.9"),
            _CIRCUIT_KEYS
            | {"N_geq_c", "N_geq_s", "count", "in_interval", "normalization",
               "pad_qubits", "raw_answer", "rounding_margin"},
            _CIRCUIT_CONFIG
            | {"c", "delta_strategy", "eps", "eps_strategy", "s", "seed", "u_exponent"},
        ),
        (
            ("decide-avg-accept", "{x}", "--seed", "3"),
            _CIRCUIT_KEYS
            | {"answer", "epsilon", "exact_normalized_trace", "mean", "promise_violated",
               "samples"},
            _CIRCUIT_CONFIG | {"c", "eps", "s", "seed"},
        ),
        (
            ("validate-dqc1", "{x}"),
            _CIRCUIT_KEYS
            | {"ancilla_bound", "num_ancilla", "num_input", "num_witness", "valid"},
            _CIRCUIT_CONFIG,
        ),
    ],
    ids=[
        "exact-count",
        "estimate-trace",
        "path-sum-exact",
        "path-sum-sampled",
        "rect-poly",
        "svt-amplify",
        "reduce-interval",
        "reduce-pad",
        "decide-avg-accept",
        "validate-dqc1",
    ],
)
def test_record_schema_is_pinned(circuits, args, keys, config):
    rec = run_json(*[a.format(**circuits) for a in args])
    assert sorted(rec) == sorted(keys)
    assert sorted(rec["config"]) == sorted(config)
    assert rec["op"] == args[0]
    if args[0].startswith("reduce-"):
        assert rec["config"]["seed"] == 0  # the defaulted seed is echoed


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
        (("exact-count", "{x}", "--x", "1", "--c", "0.6", "--s", "0.3"), None),
        (("estimate-trace", "{i2}", "--x", "0a", "--M", "16", "--seed", "1"), None),
        (("path-sum", "{i2}", "--x", "101", "--mode", "exact"), None),
        (("svt-amplify", "{i2}", "--x", "2b", "--c", "0.6", "--s", "0.3", "--eps", "0.1"), None),
        (("estimate-trace", "{x}", "--M", "1000000000000", "--seed", "1"), None),
        (
            ("path-sum", "{x}", "--mode", "sampled", "--samples", "1000000000000", "--seed", "1"),
            None,
        ),
        (("decide-avg-accept", "{x}", "--seed", "1", "--eps", "1e-7"), None),
        (("svt-amplify", "{x}", "--c", "0.6", "--s", "1e-9", "--eps", "0.1"), None),
        (("rect-poly", "--t", "0.5", "--width", "5e-324", "--eps", "0.1"), None),
        (("decide-avg-accept", "{x}", "--seed", "1", "--eps", "1e-160"), None),
        (("decide-avg-accept", "{x}", "--seed", "1", "--eps", "1e-200"), None),
        (("exact-count", "{utf16}", "--c", "0.6", "--s", "0.3"), None),
        (
            ("reduce-interval", "{h}", "--M", "4", "--mode", "estimator", "--seed", "1",
             "--delta-strategy", "max"),
            None,
        ),
        (("estimate-trace", "{x}", "--M", "64", "--seed", "1", "--eps", "-0.5"), None),
        (
            ("path-sum", "{x}", "--mode", "sampled", "--samples", "1024", "--seed", "1",
             "--eps", "-0.1"),
            None,
        ),
        (("exact-count", "{comment}", "--c", "0.6", "--s", "0.3"), None),
        (("exact-count", "{x}", "--c", "0.6", "--s", "0.3"), {"QCOUNT_DENSE_CAP": "0"}),
        (("reduce-pad", "{h}", "--u-exponent", "1.5", "--eps", "0.9"), None),
        (("path-sum", "{q64}", "--mode", "sampled", "--samples", "64", "--seed", "1"), None),
        (("path-sum", "{h1001}", "--mode", "sampled", "--samples", "8", "--seed", "1"), None),
        (("estimate-trace", "{w1100}", "--M", "16", "--seed", "1"), None),
        (("decide-avg-accept", "{w1100}", "--seed", "1"), None),
        (("reduce-interval", "{w1100}", "--M", "4"), None),
        (("reduce-interval", "{w1100}", "--M", "4", "--mode", "estimator", "--seed", "1"), None),
        (("reduce-pad", "{w1100}", "--u-exponent", "0.5", "--eps", "0.9"), None),
        (("reduce-pad", "{w60}", "--u-exponent", "0.95", "--eps", "0.1"), None),
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
        "exact-count-x-wrong-length",
        "estimate-trace-x-not-bits",
        "path-sum-x-wrong-length",
        "svt-amplify-x-not-bits",
        "estimate-trace-M-over-sample-cap",
        "path-sum-samples-over-sample-cap",
        "decide-eps-over-sample-cap",
        "svt-amplify-s-below-floor",
        "rect-poly-width-without-finite-budget",
        "decide-eps-square-overflows",
        "decide-eps-square-underflows",
        "circuit-not-utf8",
        "reduce-interval-estimator-with-strategy",
        "estimate-trace-eps-negative",
        "path-sum-eps-negative",
        "circuit-without-registers-header",
        "dense-cap-zero",
        "reduce-pad-u-exponent-above-1",
        "path-sum-sampled-over-64-qubits",
        "path-sum-sampled-normalization-overflows",
        "estimate-trace-witness-past-a-double",
        "decide-witness-past-a-double",
        "reduce-interval-witness-past-a-double",
        "reduce-interval-estimator-witness-past-a-double",
        "reduce-pad-witness-past-a-double",
        "reduce-pad-padded-witness-past-a-double",
    ],
)
def test_precondition_violation_exits_2(circuits, args, env):
    proc = run_cli(*[a.format(**circuits) for a in args], env=env)
    assert proc.returncode == 2
    assert f"qcount {args[0]}" in proc.stderr
    assert "Traceback" not in proc.stderr


def _oracle_answer_out_of_range(self, poly, rng):
    return 1e6


def _probabilities_off_by_1e_6(circuit, x=""):
    import qcount.spectral

    return qcount.spectral.witness_probabilities(circuit, x) + 1e-6


@pytest.mark.parametrize(
    "target,fault,args,audit",
    [
        (
            "qcount.reductions.MiscountingOracle._estimator_answer",
            _oracle_answer_out_of_range,
            ("reduce-interval", "{h}", "--M", "4", "--mode", "estimator", "--seed", "1"),
            "oracle answer 1000000.0 escapes its allowed range",
        ),
        (
            "qcount.pathsum.witness_probabilities",
            _probabilities_off_by_1e_6,
            ("path-sum", "{h}"),
            "path sum 1.0 disagrees with spectral trace",
        ),
    ],
    ids=["oracle-range-audit", "path-sum-self-check"],
)
def test_invariant_violation_exits_3(circuits, monkeypatch, capsys, target, fault, args, audit):
    # a fault injected under an audit reaches the CLI's exit-3 branch
    import qcount.cli

    monkeypatch.setattr(target, fault)
    assert qcount.cli.run([a.format(**circuits) for a in args]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"qcount {args[0]}: INVARIANT VIOLATION: {audit}")
    assert "Traceback" not in err


def test_estimator_reduction_over_sample_cap_exits_before_embedding(
    circuits, monkeypatch, capsys
):
    import qcount.cli
    import qcount.spectral

    embeds = []
    monkeypatch.setattr(qcount.spectral, "embedded_witness_matrix", lambda *a: embeds.append(a))
    argv = ["reduce-interval", circuits["h"], "--M", "1000", "--mode", "estimator", "--seed", "1"]
    assert qcount.cli.run(argv) == 2
    assert embeds == []
    assert "eps_bound=0.001" in capsys.readouterr().err


def test_estimator_reduction_over_degree_cap_exits_before_embedding(
    circuits, monkeypatch, capsys
):
    import qcount.cli
    import qcount.spectral
    from qcount.limits import POLY_DEGREE_CAP

    embeds = []
    monkeypatch.setattr(qcount.spectral, "embedded_witness_matrix", lambda *a: embeds.append(a))
    # M = 64 is within the sample cap, but its narrowest band needs a degree past the cap
    argv = ["reduce-interval", circuits["h"], "--M", "64", "--mode", "estimator", "--seed", "1"]
    assert qcount.cli.run(argv) == 2
    assert embeds == []
    assert f"exceeds the {POLY_DEGREE_CAP} cap" in capsys.readouterr().err


def test_exact_count_rejects_thresholds_before_embedding(circuits, monkeypatch, capsys):
    import qcount.cli
    import qcount.spectral

    embeds = []
    monkeypatch.setattr(qcount.spectral, "embedded_witness_matrix", lambda *a: embeds.append(a))
    assert qcount.cli.run(["exact-count", circuits["x"], "--c", "0.3", "--s", "0.6"]) == 2
    assert embeds == []
    assert "need 0 <= s < c <= 1, got c=0.3, s=0.6" in capsys.readouterr().err


def test_reduction_over_partition_cap_exits_before_embedding(circuits, monkeypatch, capsys):
    import qcount.cli
    import qcount.spectral
    from qcount.limits import PARTITION_CAP

    embeds = []
    monkeypatch.setattr(qcount.spectral, "embedded_witness_matrix", lambda *a: embeds.append(a))
    # 10**8 exact queries would take hours and tens of GB of query log
    assert qcount.cli.run(["reduce-interval", circuits["h"], "--M", str(10**8)]) == 2
    assert embeds == []
    assert f"M=100000000 exceeds the {PARTITION_CAP}-band cap" in capsys.readouterr().err


def test_svt_amplify_decomposes_once_without_svd_or_eigh(circuits, monkeypatch, capsys):
    import numpy as np
    import qcount.cli
    import qcount.spectral

    def forbidden(*args, **kwargs):
        raise AssertionError("svt-amplify reads the eigvalsh spectrum only")

    calls = {"embed": 0, "eigvalsh": 0}
    embed, eigvalsh = qcount.spectral.embedded_witness_matrix, np.linalg.eigvalsh

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
    monkeypatch.setattr(qcount.spectral, "embedded_witness_matrix", counting("embed", embed))
    argv = ["svt-amplify", circuits["i2"], "--x", "10", "--c", "0.8", "--s", "0.4", "--eps", "0.05"]
    assert qcount.cli.run(argv) == 0
    assert json.loads(capsys.readouterr().out)["satisfied"] is True
    assert calls == {"embed": 1, "eigvalsh": 1}


_TRACER_CHECK = """
import importlib, inspect, qcount.cli, tracer
for module, attr, name in tracer.TARGETS:
    owner, _, member = attr.rpartition(".")
    scope = vars(importlib.import_module(module))
    value = vars(scope[owner])[member] if owner else scope[member]
    lazy = name in tracer._CACHE_ATTRS  # cached spans wrap lazy properties
    assert isinstance(value, property) if lazy else inspect.isfunction(value), attr
t = tracer.Tracer(0)
t.install()
print(t.unwrapped())
"""


def test_benchmark_tracer_wraps_every_target():
    # a renamed, deleted or retyped target of the benchmark's span tracer
    # fails here instead of in a benchmark run; perfbench/ is only read
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER_CHECK],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def validate_into(circuits, **popen):
    """validate-dqc1 in a child whose stdout is given by the Popen keywords."""
    argv = [sys.executable, "-m", "qcount.cli", "validate-dqc1", circuits["h"]]
    return subprocess.run(argv, stderr=subprocess.PIPE, text=True, **popen)


def assert_cannot_write(proc, reason):
    # one line on stderr: no traceback, and no "Exception ignored" from the
    # flush at shutdown
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"qcount validate-dqc1: cannot write the record: {reason}"]


def test_a_record_to_a_full_device_exits_2(circuits):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    with open("/dev/full", "wb") as full:
        proc = validate_into(circuits, stdout=full)
    assert_cannot_write(proc, f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_help_to_a_full_device_exits_2(unbuffered):
    # argparse drops a failed write of the help: unbuffered it was lost
    # with exit 0, buffered it failed at shutdown with exit 120
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    argv = [sys.executable, "-m", "qcount.cli", "exact-count", "--help"]
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert proc.stderr.splitlines() == [f"qcount exact-count: cannot write the help: {reason}"]


def test_a_record_into_a_closed_pipe_exits_2(circuits):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = validate_into(circuits, stdout=write_end)
    finally:
        os.close(write_end)
    assert_cannot_write(proc, f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}")


def test_a_record_with_stdout_closed_exits_2(circuits):
    proc = validate_into(circuits, stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1))
    assert_cannot_write(proc, "stdout is closed")


def test_only_main_freezes_the_collector_once_the_record_is_out(circuits, capsys, monkeypatch):
    # tests and the benchmark tracer call run() in process: it leaves the
    # collector as it found it
    import qcount.cli

    assert qcount.cli.run(["validate-dqc1", circuits["h"]]) == 0
    assert gc.get_freeze_count() == 0
    capsys.readouterr()
    written = []  # stdout so far, at each freeze
    monkeypatch.setattr(gc, "freeze", lambda: written.append(capsys.readouterr().out))
    monkeypatch.setattr(sys, "argv", ["qcount", "validate-dqc1", circuits["h"]])
    with pytest.raises(SystemExit) as exit_:
        qcount.cli.main()
    assert exit_.value.code == 0
    (out,) = written
    assert json.loads(out)["op"] == "validate-dqc1"


def w9_qcv() -> str:
    """The a=2, w=9, 160-gate circuit: a 512 x 512 Gram and eigvalsh."""
    circ = random_circuit(np.random.default_rng(1), num_ancilla=2, num_witness=9, gate_count=160)
    return circ.to_qcv()


def test_records_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a 512 x 512 Gram and eigvalsh are large enough for OpenBLAS to split
    # their sums over threads; the CLI pins it to one thread
    from qcount.cli import _pin_blas_threads

    if not _pin_blas_threads():
        pytest.skip("numpy's BLAS exports no scipy_openblas_set_num_threads64_ to pin")
    path = tmp_path / "w9.qcv"
    path.write_text(w9_qcv())
    argv = ("svt-amplify", str(path), "--c", "0.8", "--s", "0.4", "--eps", "0.05")
    runs = [run_cli(*argv, env={"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2")]
    assert [p.returncode for p in runs] == [0, 0], runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


# numpy as it dispatches on a CPU without AVX2/FMA3, and another OpenBLAS kernel set
_MACHINES = {
    "simd": {"NPY_DISABLE_CPU_FEATURES": "X86_V3"},
    "blas": {"OPENBLAS_CORETYPE": "Haswell"},
}
_MACHINE_VARS = {var for setting in _MACHINES.values() for var in setting}
_W9_CALLS = {
    "exact-count": ("exact-count", "{w9}", "--c", "0.666", "--s", "0.333"),
    "reduce-interval": (
        "reduce-interval", "{w9}", "--M", "8",
        "--delta-strategy", "max", "--eps-strategy", "adversarial",
    ),
    "reduce-interval.estimator": (
        "reduce-interval", "{w9}", "--M", "4", "--mode", "estimator", "--seed", "1",
    ),
    "estimate-trace": ("estimate-trace", "{w9}", "--M", "64", "--seed", "1"),
    "path-sum.sampled": (
        "path-sum", "{w9}", "--mode", "sampled", "--samples", "1024", "--seed", "1",
    ),
    "decide-avg-accept": ("decide-avg-accept", "{w9}", "--seed", "1"),
    "reduce-pad": ("reduce-pad", "{w9}", "--u-exponent", "0.5", "--eps", "0.9"),
    "svt-amplify": ("svt-amplify", "{w9}", "--c", "0.8", "--s", "0.4", "--eps", "0.05"),
    "rect-poly": ("rect-poly", "--t", "0.5", "--width", "0.1", "--eps", "0.01"),
}
# every call through cli.run in one child: {label: [exit code, stdout]}
_RUN_W9_CALLS = """
import io, json, sys
from contextlib import redirect_stdout
import qcount.cli
records = {}
for label, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with redirect_stdout(out):
        records[label] = [qcount.cli.run(argv), out.getvalue()]
print(json.dumps(records))
"""


@pytest.fixture(scope="module")
def w9_records(tmp_path_factory):
    """records(machine) -> each _W9_CALLS record there, from one child per machine."""
    from qcount.cli import _pin_blas_threads

    if not _pin_blas_threads():
        pytest.skip("numpy's BLAS exports no scipy_openblas_set_num_threads64_ to pin")
    path = tmp_path_factory.mktemp("w9") / "w9.qcv"
    path.write_text(w9_qcv())
    calls = {label: [a.format(w9=path) for a in argv] for label, argv in _W9_CALLS.items()}
    env = {k: v for k, v in os.environ.items() if k not in _MACHINE_VARS}
    cache = {}

    def records(machine: str) -> dict:
        if machine not in cache:
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_W9_CALLS, json.dumps(calls)],
                capture_output=True,
                text=True,
                env={**env, **_MACHINES.get(machine, {})},
            )
            assert proc.returncode == 0, proc.stderr
            cache[machine] = json.loads(proc.stdout)
        return cache[machine]

    return records


@pytest.mark.parametrize(
    "machine, label",
    [
        pytest.param(
            machine,
            label,
            marks=pytest.mark.xfail(
                machine == "blas" and label == "svt-amplify",
                reason="ROADMAP item 17: svt-amplify's raw spectra follow the BLAS kernel",
                strict=False,
            ),
        )
        for machine in _MACHINES
        for label in _W9_CALLS
    ],
)
def test_records_do_not_depend_on_the_machine(w9_records, machine, label):
    code, out = w9_records(machine)[label]
    assert [code, out] == w9_records("default")[label]
    assert code == 0


def test_import_loads_no_scipy():
    # nor logging (nothing configures it), numpy.polynomial (one node
    # formula), numpy.random (only a seeded run draws) or statistics with
    # its fractions and decimal (only a polynomial's build reads it)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qcount.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'logging', 'statistics', 'fractions', 'decimal') "
            "or m.startswith(('numpy.polynomial', 'numpy.random'))))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_exact_interval_recovery_loads_no_numpy_random(circuits):
    # max/adversarial answers draw nothing, so no stream imports numpy.random
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, qcount.cli; "
            f"code = qcount.cli.run(['reduce-interval', {str(circuits['h'])!r}, '--M', '8', "
            "'--delta-strategy', 'max', '--eps-strategy', 'adversarial']); "
            "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


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
        ("svt-amplify", "{h}", "--c", "0.8", "--s", "0.4", "--eps", "0.05"),
        ("reduce-interval", "{h}", "--M", "8", "--mode", "estimator", "--seed", "3"),
    ],
)
def test_stochastic_subcommands_are_byte_deterministic(circuits, args):
    resolved = [a.format(**circuits) for a in args]
    first = run_cli(*resolved)
    second = run_cli(*resolved)
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "args",
    [
        (
            "path-sum", "{x}", "--mode", "sampled", "--samples", "262144", "--seed", "1",
            "--eps", "0.1",
        ),
        ("estimate-trace", "{x}", "--M", "64", "--seed", "1", "--eps", "1e200"),
    ],
    ids=["hoeffding", "estimate-trace"],
)
def test_an_underflowing_delta_is_floored_not_refused(circuits, args):
    # 2 exp(-1310) and 2 exp(-inf) round to 0.0; the smallest positive double
    # still bounds the failure probability
    rec = run_json(*[a.format(**circuits) for a in args])
    assert rec["delta"] == 5e-324


@pytest.mark.parametrize(
    "args, pinned",
    [
        (("estimate-trace", "{x}", "--M", "64", "--seed", "11"), {"value": 2.0, "delta": 0.25000000000000006}),
        (
            ("path-sum", "{x}", "--mode", "sampled", "--samples", "128", "--seed", "5"),
            {"value": 2.0625, "delta": 0.25000000000000006},
        ),
        (("decide-avg-accept", "{h}", "--seed", "21"), {"mean": 0.47540983606557374}),
        (
            ("reduce-interval", "{h}", "--M", "4", "--mode", "estimator", "--seed", "3"),
            {"n_hat": [0, 0, 1.8442622950819672, 1.9262295081967213, 2]},
        ),
    ],
    ids=["estimate-trace", "path-sum-sampled", "decide-avg-accept", "reduce-interval-estimator"],
)
def test_stochastic_records_are_pinned(circuits, args, pinned):
    # a change to the draw layout keeps reruns identical but moves these values
    rec = run_json(*[a.format(**circuits) for a in args])
    assert {key: rec[key] for key in pinned} == pinned


def test_config_echo_round_trips(circuits):
    rec = run_json("estimate-trace", circuits["x"], "--M", "32", "--seed", "4")
    assert rec["config"]["M"] == 32
    assert rec["config"]["seed"] == 4
    assert rec["config"]["circuit"] == circuits["x"]


_FUZZ_FLAGS = ("--c", "--s", "--eps", "--M", "--seed", "--mode", "--x", "--help")
_FUZZ_NUMBERS = (
    "-1", "0", "1", "2", "3", "7", "0.1", "0.25", "0.5", "0.9", "1e-3", "1e9",
    "nan", "inf", "-inf", "", "01", "abc", "1e-160", "1e-300",
)
_FUZZ_CAPS = (None, "0", "1", "2", "3", "14", "-1", "abc")


@pytest.fixture(scope="module")
def fuzz_circuits(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, text in [("x", X_QCV), ("h0", H_NO_WITNESS_QCV), ("i2", TWO_INPUT_QCV)]:
        p = root / f"{name}.qcv"
        p.write_text(text)
        paths.append(str(p))
    (root / "utf16.qcv").write_bytes(X_QCV.encode("utf-16"))  # not UTF-8
    return paths + [str(root / "utf16.qcv"), str(root / "missing.qcv")]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_argv_exits_with_a_contract_code(fuzz_circuits, data):
    # in-process cli.run on argv built from subcommand names, their flags and
    # a few shared ones, small numeric strings and circuit paths, under varied
    # QCOUNT_DENSE_CAP values
    import qcount.cli

    name = data.draw(st.sampled_from(SUBCOMMANDS + ("bogus", "-h")))
    _, own, _ = qcount.cli._COMMANDS.get(name, (None, (), True))
    values = {names[0]: kwargs.get("choices", ()) for names, kwargs in own}
    argv = [name] + data.draw(st.lists(st.sampled_from(fuzz_circuits), min_size=1, max_size=1))
    flags = st.sampled_from(sorted(values) or ["--x"]) | st.sampled_from(_FUZZ_FLAGS)
    for flag in data.draw(st.lists(flags, max_size=7, unique=True)):
        argv += [flag, data.draw(st.sampled_from(values.get(flag, ()) + _FUZZ_NUMBERS))]
    cap = data.draw(st.sampled_from(_FUZZ_CAPS))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("QCOUNT_DENSE_CAP", None)
        if cap is not None:
            os.environ["QCOUNT_DENSE_CAP"] = cap
        code = qcount.cli.run(argv)
    assert code in (0, 1, 2, 3), (argv, cap, err.getvalue())
    if code == 0 and not {"-h", "--help"} & set(argv):  # a run: one JSON record
        (line,) = out.getvalue().splitlines()
        json.loads(line)
