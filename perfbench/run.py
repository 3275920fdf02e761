"""qcausal benchmark: one client calling the CLI in a closed loop.

    python3 perfbench/run.py --workload field --seed 1 --seconds 24 --trace 0

Run from anywhere; it works in the checkout that holds it, imports qcausal
from ``src/`` and writes only under ``.bench_out/``. The workload seed draws
the scenario files the program sees (see ``workloads.py``); each call is
``qcausal.cli.main([...])`` in this process and starts when the previous one
has returned. Calls run in whole passes over the workload's input list
until ``--seconds`` have passed, after one untimed warm-up call. With
``--trace 0``, set-up time is sampled twice after every pass, outside the
timed window, so its median covers the whole run.

Every call's outputs are checked: exit code, verdicts, listed artifacts,
workload invariants, and byte equality with the first call on the same
input. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from spans recorded by ``tracing.py``, with each traced pass
followed by an untraced one to measure the tracing overhead. Per-layer
values are per pass over the input list: times are averaged over the traced
passes, and counts must repeat exactly. Metric names and units come from
``BENCHMARK.json``. The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``; the line before it is the full record
(machine, input digest, sample counts, failures), also written under
``.bench_out/results/``.

Tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_out")
SETUP_SAMPLES_PER_PASS = 2


def setup_sample():
    """Seconds from spawning a fresh interpreter to ``import qcausal`` done."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    code = "import time, qcausal; print(time.monotonic())"
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    return float(done.stdout.split()[-1]) - start


def tail(samples):
    """The highest order statistic with at least ten samples beyond it.

    Returns the value (None below eleven samples), its percentile and the
    sample count.
    """
    ordered = sorted(samples)
    if len(ordered) < 11:
        return {"value": None, "percentile": None, "samples": len(ordered)}
    index = len(ordered) - 11
    return {"value": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
            "samples": len(ordered)}


def source_digest():
    """sha256 over the program's files; it names the code where git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qcausal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD's commit, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine():
    import numpy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as info:
        cpu = next((line.split(":", 1)[1].strip() for line in info
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gitCommit": git_commit(),
        "sourceDigest": source_digest(),
    }


class Client:
    """Runs and checks calls; keeps the first output digest of every input."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out
        self.first_outputs = {}
        self.attempted = 0
        self.failures = []

    def call(self, item):
        """Time one call, then check it; returns its wall time in seconds."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        argv = [*item.argv, "--out", str(self.out)]
        sink = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
        except Exception as err:  # a raising call is a failed call, not a crash
            code, error = None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = [error] if error else [] if code == 0 else [f"exit code {code}"]
        problems += self.check(item)
        if problems:
            self.failures.append({"input": item.name, "problems": problems,
                                  "output": sink.getvalue()[-2000:]})
        return elapsed

    def check(self, item):
        report_path = self.out / item.report
        if not report_path.is_file():
            return [f"no {item.report}"]
        raw = report_path.read_bytes()
        try:
            report = json.loads(raw)
        except ValueError as err:
            return [f"{item.report} is not JSON: {err}"]
        problems = [f"verdict {name}: {v}" for name, v in report.get("verdicts", {}).items()
                    if v != "pass"]
        h = hashlib.sha256(raw)
        for artifact in report.get("artifacts", []):
            path = self.out / artifact
            if not path.is_file():
                problems.append(f"missing artifact {artifact}")
                continue
            h.update(artifact.encode() + b"\0" + path.read_bytes())
        problems += workloads.check(item, report, self.out)
        if self.first_outputs.setdefault(item.name, h.hexdigest()) != h.hexdigest():
            problems.append("outputs differ from the first call on the same input")
        return problems


def run_passes(client, inputs, seconds, traced, between=None):
    """Whole passes over inputs, stopping at the pass end nearest `seconds`.

    A traced pass is followed by an untraced one, and the two count as one
    pass here. `between` runs after every pass, outside the window. Returns
    untraced call times, traced call times, the spans of each traced pass
    and the window's length in seconds.
    """
    plain, traced_times, passes = [], [], []
    window = 0.0
    while True:
        start = time.perf_counter()
        if traced:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                for call_id, item in enumerate(inputs):
                    tracer.call = call_id
                    traced_times.append(client.call(item))
            passes.append(tracer.spans)
        plain.extend(client.call(item) for item in inputs)
        took = time.perf_counter() - start
        window += took
        if between is not None:
            between()
        if window + took / 2 >= seconds:
            return plain, traced_times, passes, window


def layer_metrics(passes, units):
    """Per-layer metrics over the traced passes: times averaged, counts exact.

    Returns the metrics, the counts alone, and a problem for every count
    that differs between passes.
    """
    from qcausal import checks, topology

    criteria = [name for _, name, _ in checks.CRITERIA]
    per_pass = [tracing.pass_metrics(spans, topology.CLIQUE_CAP, criteria) for spans in passes]
    metrics, counts, unstable = {}, {}, []
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if units.get(name) in ("s", "1/s"):
            metrics[name] = statistics.fmean(values)
            continue
        metrics[name] = counts[name] = values[0]
        if any(v != values[0] for v in values):
            unstable.append(f"{name} differs between traced passes: {values}")
    return metrics, counts, unstable


def compare_counts(counts, key):
    """Problems where counts differ from an earlier traced run on the same inputs and code."""
    path = WORK / "counts" / f"{key}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True, indent=1))
        return []
    earlier = json.loads(path.read_text())
    return [f"{n} = {v}, earlier traced run had {earlier.get(n)}"
            for n, v in counts.items() if earlier.get(n) != v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qcausal" / "__init__.py").is_file():
        print(f"error: no qcausal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work = WORK / args.workload
    load_start = os.getloadavg()
    # `qcausal check` writes its determinism runs to a temporary directory
    tempfile.tempdir = str((work / "tmp").resolve())
    os.makedirs(tempfile.tempdir, exist_ok=True)

    sys.path.insert(0, "src")
    from qcausal import cli

    inputs = workloads.generate(args.workload, args.seed, work / "inputs")
    client = Client(cli, work / "out")
    client.call(inputs[0])  # warm-up, checked but not timed
    setup = []

    def sample_setup():
        setup.extend(setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS))

    plain, traced, passes, window = run_passes(
        client, inputs, args.seconds, bool(args.trace), None if args.trace else sample_setup)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputsDigest": workloads.digest(inputs),
        "inputs": [item.name for item in inputs],
        "machine": machine(),
        "loadAverage": {"start": load_start, "end": os.getloadavg()},
        "windowSeconds": window,
        "passes": len(plain) // len(inputs),
        "attempted": client.attempted,
        "failed": len(client.failures),
        "failRatio": len(client.failures) / client.attempted,
        "failures": client.failures,
    }
    errors = []
    if args.trace:
        metrics, counts, errors = layer_metrics(passes, units)
        traced_p50, plain_p50 = statistics.median(traced), statistics.median(plain)
        metrics.update({
            "trace.traced_p50_s": traced_p50,
            "trace.untraced_p50_s": plain_p50,
            "trace.overhead_ratio": traced_p50 / plain_p50,
        })
        errors += compare_counts(counts, f"{args.workload}-{args.seed}-{record['inputsDigest'][:16]}"
                                         f"-{record['machine']['sourceDigest'][:16]}")
        spans_path = work / f"spans-seed{args.seed}.json"
        spans_path.write_text(json.dumps(passes))
        record["spans"] = str(spans_path)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_p50_s": statistics.median(plain),
            "runs_per_s": len(plain) / window,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update({"setupSamples": setup, "runTail": tail(plain), "callTimes": plain})
    mismatched = sorted({m["name"] for m in wanted} ^ set(metrics))
    if mismatched:
        errors.append(f"metrics not matching BENCHMARK.json: {mismatched}")
    record["benchmarkErrors"] = errors
    record["metrics"] = metrics
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for line in errors:
        print(f"benchmark error: {line}", file=sys.stderr)
    for failure in client.failures:
        print(f"failed call: {failure['input']}: {failure['problems']}", file=sys.stderr)

    print(json.dumps(record))
    print(json.dumps({
        "correct": not client.failures and not errors,
        "attempted": client.attempted,
        "failed": len(client.failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
