"""Closed-loop benchmark of the qcount command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  One client starts one CLI process at a time
and starts the next only after the previous one has exited, so every call
pays process start and import as users pay them.  A pass is the
workload's fixed list of calls; passes repeat until `--seconds` is spent
(at least three, or one traced pair), and every record of every pass is
checked.  The run and its children are pinned to one CPU; an untraced
run probes the host's speed after every set-up and call and rescales
their times to a reference speed (speed.py).  The last stdout line is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics
with `--trace 0`, and with `--trace 1` the per-layer metrics of a run in
which each call is made untraced and then through the traced entry
script.  The lines before it hold the provenance and a report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from checker import SelfTestError, check_record, cross_check, parse, self_test
from circgen import circuit_hash, qcv_text
from speed import Speed, pin_to_one_cpu
from tracer import self_times
from workloads import WORKLOADS, Call, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHON = sys.executable

# Children run BLAS single-threaded: the records of some subcommands
# depend on the thread count, and one thread keeps a neighbour's load on
# the other core out of the timings.
BLAS_THREADS = 1
SETUP_REPEATS = 7
INTERP_REPEATS = 5
MIN_PASSES = 3
CALL_TIMEOUT_S = 100.0
# stop starting passes once the next one could end past this point, so a
# run ends well inside its 180 s limit
HARD_STOP_S = 140.0
TAIL_BEYOND = 10

E2E_UNITS = {"wall_ref_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
RATE_UNITS = {"circuit.embed.gbps_computed": "GB/s", "pathsum.exact.mpaths_per_s": "Mpath/s"}
LAYERS = ("cli", "circuit", "spectral", "svt", "estimators", "pathsum", "reductions")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Proc:
    """One finished child process, as the client saw it."""

    wall_s: float
    returncode: int
    stdout: bytes
    maxrss_kib: int
    cpu_s: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QCOUNT_DENSE_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], env: dict[str, str], stderr_path: Path) -> Proc:
    """Run one child to completion; wall time includes its start and exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, stdout, usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


class Client:
    """The single closed-loop client of one run, with its scratch directory."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.workdir = HERE / "_work" / str(os.getpid())
        self.stderr_path = self.workdir / "stderr.txt"
        self.paths: dict[str, str] = {}
        self.inputs: dict[str, tuple] = {}
        self.calls: list[Call] = []

    def setup(self) -> float:
        """Generate and write the circuits, then make one warm-up process start."""
        start = time.perf_counter()
        self.workdir.mkdir(parents=True, exist_ok=True)
        for shape in self.workload.shapes:
            text = qcv_text(shape, self.seed)
            path = self.workdir / f"{shape.name}.qcv"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            rel = path.relative_to(ROOT).as_posix()
            self.paths[shape.name] = rel
            self.inputs[rel] = (shape, circuit_hash(text))
        self.calls = self.workload.calls(self.paths, self.seed)
        warm = spawn([PYTHON, "-m", "qcount.cli", "--help"], self.env, self.stderr_path)
        if warm.returncode != 0:
            raise BenchError(f"warm-up start of the CLI exited {warm.returncode}: {self.stderr()}")
        return time.perf_counter() - start

    def stderr(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]

    def untraced(self, call: Call) -> Proc:
        return spawn([PYTHON, "-m", "qcount.cli", *call.argv], self.env, self.stderr_path)

    def traced(self, index: int, call: Call) -> tuple[Proc, dict]:
        spans_path = self.workdir / f"spans-{index}.json"
        spans_path.unlink(missing_ok=True)
        argv = [PYTHON, str(HERE / "traced_entry.py"), str(spans_path), str(index), *call.argv]
        proc = spawn(argv, self.env, self.stderr_path)
        try:
            with open(spans_path, encoding="utf-8") as fh:
                dump = json.load(fh)
        except (OSError, ValueError) as exc:
            raise BenchError(f"traced {call.label} left no spans ({exc}): {self.stderr()}")
        return proc, dump

    def interp_start_s(self) -> float:
        """Median wall time of `python -c pass`, the interpreter's own start."""
        return statistics.median(
            spawn([PYTHON, "-c", "pass"], self.env, self.stderr_path).wall_s
            for _ in range(INTERP_REPEATS)
        )

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass


def repeat_passes(run_pass, seconds: float, min_passes: int) -> list:
    """Run passes until `seconds` would be overrun, but at least `min_passes`."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        passes.append(run_pass())
        walls.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if elapsed + max(walls) > HARD_STOP_S:
            break
        if len(passes) >= min_passes and elapsed + statistics.median(walls) > seconds:
            break
    return passes


def check_passes(client: Client, outcomes: list[list[Proc]]) -> dict[tuple[int, str], list[str]]:
    """Problems of every failed call, keyed by (pass number, call label)."""
    failures: dict[tuple[int, str], list[str]] = {}
    calls = client.calls
    first = outcomes[0]
    for number, procs in enumerate(outcomes):
        records = {}
        for call, proc, reference in zip(calls, procs, first):
            found = []
            if proc.returncode != 0:
                found.append(f"exit code {proc.returncode}")
            else:
                record, reason = parse(proc.stdout)
                if reason is not None:
                    found.append(reason)
                else:
                    records[call.label] = record
                    found.extend(check_record(call, record, client.inputs))
            if proc.stdout != reference.stdout:
                found.append("stdout differs from the first pass with the same seed")
            if found:
                failures[number, call.label] = found
        for label, found in cross_check(records, client.inputs).items():
            failures.setdefault((number, label), []).extend(found)
    clean = [(c, p) for c, p in zip(calls, first) if (0, c.label) not in failures]
    self_test([c for c, _ in clean], [(p.returncode, p.stdout) for _, p in clean], client.inputs)
    return failures


def describe(failures: dict[tuple[int, str], list[str]]) -> list[str]:
    return [f"pass {n} {label}: {'; '.join(found)}" for (n, label), found in failures.items()][:20]


def tail(values: list[float]) -> dict:
    """Median, and the highest percentile with TAIL_BEYOND runs beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "runs": n, "tail_percentile": None, "tail": None}
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        out["tail_percentile"] = 100.0 * k / (n - 1)
        out["tail"] = ordered[k]
    return out


def end_to_end(client: Client, seconds: float) -> tuple[dict, dict, int, int]:
    speed = Speed(client.env)
    speed.probe()
    setups = []
    for _ in range(SETUP_REPEATS):
        wall = client.setup()
        setups.append(wall / speed.index(speed.probe() - 1))
    steps: list[list[int]] = []

    def run_pass() -> list[Proc]:
        procs, numbers = [], []
        for call in client.calls:
            procs.append(client.untraced(call))
            numbers.append(speed.probe() - 1)
        steps.append(numbers)
        return procs

    outcomes = repeat_passes(run_pass, seconds, MIN_PASSES)
    failures = check_passes(client, outcomes)
    walls = [sum(p.wall_s for p in procs) for procs in outcomes]
    attempted = len(outcomes) * len(client.calls)
    # each call's median time over the passes, each run rescaled to the
    # reference speed by the probes around it (speed.py)
    rescaled = {
        call.label: statistics.median(
            procs[i].wall_s / speed.index(numbers[i]) for procs, numbers in zip(outcomes, steps)
        )
        for i, call in enumerate(client.calls)
    }
    metrics = {
        "wall_ref_s": sum(rescaled.values()),
        "peak_rss_mib": max(p.maxrss_kib for procs in outcomes for p in procs) / 1024.0,
        "setup_s": statistics.median(setups),
    }
    report = {
        "wall_s": tail(walls),
        "pass_walls_s": walls,
        "call_ref_s": rescaled,
        "setup_ref_s": setups,
        "speed": speed.summary(),
        "failed_frac": len(failures) / attempted,
        "proc_cpu_s": statistics.median(sum(p.cpu_s for p in procs) for procs in outcomes),
        "failures": describe(failures),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, report, attempted, len(failures)


def pass_layers(client: Client, procs: list[Proc], dumps: list[dict], interp_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the time of each item."""
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    for dump in dumps:
        spans = dump["spans"]
        for span, own in zip(spans, self_times(spans)):
            self_s[span[0]] += own
            calls[span[0]] += 1
            counts[span[0]] += span[4]
    items = {"cli.interp_start": interp_s * len(procs), "cli.import": sum(d["import_s"] for d in dumps)}
    items.update(self_s)
    embed_s, exact_s = self_s["circuit.embed"], self_s["pathsum.exact"]
    m = {
        "cli.interp_start_s": items["cli.interp_start"],
        "cli.import_s": items["cli.import"],
        "cli.run.self_s": self_s["cli.run"],
        "cli.calls": len(procs),
        "circuit.embed.calls": calls["circuit.embed"],
        "circuit.embed.self_s": embed_s,
        "circuit.embed.gbps_computed": counts["circuit.embed"] / embed_s / 1e9 if embed_s else 0.0,
        "circuit.simulate.calls": calls["circuit.simulate"],
        "circuit.simulate.self_s": self_s["circuit.simulate"],
        "circuit.load.self_s": self_s["circuit.load"],
        "spectral.operator.calls": calls["spectral.operator"],
        "spectral.gram.self_s": self_s["spectral.operator"],
        "spectral.eig.calls": calls["spectral.eig"],
        "spectral.eig.self_s": self_s["spectral.eig"],
        "svt.rect_poly.calls": calls["svt.rect_poly"],
        "svt.rect_poly.self_s": self_s["svt.rect_poly"],
        "svt.rect_poly.degree_sum": counts["svt.rect_poly"],
        "svt.block_encoding.calls": calls["svt.block_encoding"],
        "svt.svd.calls": calls["svt.svd"],
        "svt.svd.self_s": self_s["svt.svd"],
        "svt.apply.self_s": self_s["svt.apply"],
        "estimators.samples": sum(counts[f"estimators.{k}"] for k in ("trace", "median", "decider")),
        "estimators.self_s": sum(self_s[f"estimators.{k}"] for k in ("trace", "median", "decider")),
        "pathsum.exact.paths": counts["pathsum.exact"],
        "pathsum.exact.self_s": exact_s,
        "pathsum.exact.mpaths_per_s": counts["pathsum.exact"] / exact_s / 1e6 if exact_s else 0.0,
        "pathsum.sampled.samples": counts["pathsum.sampled"],
        "pathsum.sampled.self_s": self_s["pathsum.sampled"],
        "reductions.query.calls": calls["reductions.query"],
        "reductions.query.self_s": self_s["reductions.query"],
        "reductions.recover.self_s": self_s["reductions.recover"],
    }
    wall = sum(p.wall_s for p in procs)
    for layer in LAYERS:
        m[f"{layer}.share"] = sum(v for k, v in items.items() if k.split(".")[0] == layer) / wall
    m["trace.dominant_share"] = sum(items.get(k, 0.0) for k in client.workload.dominant) / wall
    return m, {k: v / wall for k, v in items.items()}


def per_layer(client: Client, seconds: float) -> tuple[dict, dict, int, int]:
    interp_s = client.interp_start_s()

    def run_pass():
        plain, traced, dumps = [], [], []
        for index, call in enumerate(client.calls):
            plain.append(client.untraced(call))
            proc, dump = client.traced(index, call)
            traced.append(proc)
            dumps.append(dump)
        return plain, traced, dumps

    pairs = repeat_passes(run_pass, seconds, 1)
    failures = check_passes(client, [plain for plain, _, _ in pairs])
    for number, (plain, traced, _) in enumerate(pairs):
        for call, a, b in zip(client.calls, plain, traced):
            if (a.returncode, a.stdout) != (b.returncode, b.stdout):
                failures.setdefault((number, call.label), []).append("traced output differs")
    per_pass = [pass_layers(client, traced, dumps, interp_s) for _, traced, dumps in pairs]
    metrics = {k: statistics.median(m[k] for m, _ in per_pass) for k in per_pass[0][0]}
    metrics["proc.cpu_s"] = statistics.median(sum(p.cpu_s for p in plain) for plain, _, _ in pairs)
    metrics["trace.overhead_frac"] = statistics.median(
        sum(p.wall_s for p in traced) / sum(p.wall_s for p in plain) - 1.0 for plain, traced, _ in pairs
    )
    unwrapped = sorted({u for _, _, dumps in pairs for d in dumps for u in d["unwrapped"]})
    fired = {s[0] for _, _, dumps in pairs for d in dumps for s in d["spans"]}
    unfired = sorted(client.workload.exercises - fired)
    metrics["trace.unwrapped_refs"] = len(unwrapped)
    metrics["trace.unfired_spans"] = len(unfired)
    shares = {k: statistics.median(s.get(k, 0.0) for _, s in per_pass) for k in per_pass[0][1]}
    dominant = sum(shares.get(k, 0.0) for k in client.workload.dominant)
    others = [v for k, v in shares.items() if k not in client.workload.dominant]
    report = {
        "item_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "dominant": list(client.workload.dominant),
        "dominant_is_largest": dominant > max(others, default=0.0),
        "unwrapped": unwrapped,
        "unfired": unfired,
        "failed_frac": len(failures) / (len(pairs) * len(client.calls)),
        "failures": describe(failures),
    }
    for name in unwrapped + unfired:
        print(f"tracer check: {name}", file=sys.stderr)
    attempted = len(pairs) * len(client.calls)
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}, report, attempted, len(failures)


def _layer_unit(name: str) -> str:
    if name in RATE_UNITS:
        return RATE_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_share", "_frac")):
        return "frac"
    return "count"


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qcount" / "cli.py").is_file():
        print(f"run.py: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    client = Client(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            client.setup()
            metrics, report, attempted, failed = per_layer(client, args.seconds)
        else:
            metrics, report, attempted, failed = end_to_end(client, args.seconds)
    except (BenchError, SelfTestError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": {name: client.inputs[path][1] for name, path in client.paths.items()},
        **report,
    }
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps({"report": report}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
