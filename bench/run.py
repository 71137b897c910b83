"""Benchmark runner: one command for every workload, every answer checked.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload it runs torus_invariants, evidence and certificates in
turn.  Each sample is a fresh interpreter per phase (see workloads.py), run
one at a time in a closed loop until --seconds of samples are spent.  Before
each sample the runner times a fresh interpreter that only imports cfkcalc,
the set-up, and tops these timings up to SETUP_REPEATS after the last sample.

Host speed drifts, so wall_s and setup_s are in reference seconds: each
raw time is scaled by CAL_REF_S over the time of workloads.calibrate()
measured next to it (in the phase process around the body; in the runner
just after each set-up).  The report line keeps the raw seconds too.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
alternates untraced and traced samples (never both in one process) and
reports the per-layer split of tracing.py plus the tracing overhead.

The output is a JSON report line with the seed, the inputs, the spread of
every metric and the environment; one table row per workload; and, last,
the result line {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when every answer matched, 1 when one did not, and 2 when the
library cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()} | TRACE_METRICS

SETUP_REPEATS = 11
# A sample that takes longer counts as failed; with the time budget this
# keeps a run under three minutes.
SAMPLE_TIMEOUT_S = 120.0


class SetupError(Exception):
    """The library cannot be imported from the checkout."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing: set iteration order, hence timing, repeats
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_seconds(raw: float, calibration: float) -> float:
    """Raw seconds rescaled to a machine where calibrate() takes CAL_REF_S."""
    return raw * workloads.CAL_REF_S / calibration


def time_setup(env: dict[str, str]) -> float:
    """Seconds for a fresh interpreter to start, import cfkcalc and exit."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "import cfkcalc"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip().splitlines()[-1])
    return elapsed


def run_sample(workload: str, inputs: dict, trace: bool, env: dict[str, str],
               workdir: str) -> tuple[dict, str | None]:
    """Run every phase of one sample; returns the combined sample and the
    error of the first phase that failed, if any."""
    deadline = time.perf_counter() + SAMPLE_TIMEOUT_S
    phases = []
    for phase in workloads.PHASES[workload]:
        argv = [sys.executable, str(BENCH / "workloads.py"), phase,
                json.dumps(inputs), "1" if trace else "0", workdir]
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(deadline - time.perf_counter(), 0.0))
        except subprocess.TimeoutExpired:
            return _combine(phases, trace), f"{phase}: sample took over {SAMPLE_TIMEOUT_S:.0f} s"
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return _combine(phases, trace), f"{phase}: exit {proc.returncode}: {tail[0]}"
        phases.append(json.loads(proc.stdout.splitlines()[-1]))
    return _combine(phases, trace), None


def _combine(phases: list[dict], trace: bool) -> dict:
    sample = {
        "answers": {k: v for p in phases for k, v in p["answers"].items()},
        "wall_s": sum(reference_seconds(p["wall_s"], p["calibration_s"]) for p in phases),
        "wall_raw_s": sum(p["wall_s"] for p in phases),
        "calibration_s": sum(p["calibration_s"] for p in phases) / max(len(phases), 1),
        "rss_mb": max((p["rss_mb"] for p in phases), default=0.0),
        "trace": trace,
    }
    if trace:
        sample["layers"] = tracing.merge([p["layers"] for p in phases])
    return sample


def _spread(values: list[float]) -> dict[str, object]:
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def run_workload(workload: str, inputs: dict, seconds: float, trace: bool) -> dict:
    """Set-up repeats, then samples until the time budget is spent."""
    env = _child_env()
    want = workloads.expected(workload, inputs)
    time_setup(env)  # first import writes bytecode caches; not timed
    setup_raw: list[float] = []
    setup: list[float] = []
    samples: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        start = time.perf_counter()
        durations: list[float] = []
        while True:
            # set-up timings are spread over the run like the samples
            setup_raw.append(time_setup(env))
            setup.append(reference_seconds(setup_raw[-1], workloads.calibrate()))
            traced = trace and len(samples) % 2 == 1
            t0 = time.perf_counter()
            sample, error = run_sample(workload, inputs, traced, env, workdir)
            durations.append(time.perf_counter() - t0)
            wrong = [k for k in want if sample["answers"].get(k) != want[k]]
            attempted += len(want)
            failed += len(wrong)
            if error is not None:
                errors.append(error)
            elif wrong:
                errors.append(f"wrong answer for {', '.join(wrong)}")
            samples.append(sample)
            enough = len(samples) >= (2 if trace else 1)
            next_end = time.perf_counter() + statistics.median(durations)
            if enough and next_end > start + seconds:
                break
    while len(setup) < SETUP_REPEATS:
        setup_raw.append(time_setup(env))
        setup.append(reference_seconds(setup_raw[-1], workloads.calibrate()))
    plain = [s for s in samples if not s["trace"]]
    report = {
        "workload": workload,
        "inputs": inputs,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": errors[:5],
        "wall_s": _spread([s["wall_s"] for s in plain]),
        "wall_raw_s": _spread([s["wall_raw_s"] for s in plain]),
        "setup_s": _spread(setup),
        "setup_raw_s": _spread(setup_raw),
        "calibration_s": _spread([s["calibration_s"] for s in plain]),
        "peak_rss_mb": _spread([s["rss_mb"] for s in plain]),
    }
    metrics = {name: report[name]["median"] for name in END_TO_END}
    if trace:
        traced = [tracing.layer_metrics(s["layers"]) for s in samples if s["trace"]]
        counted = [k for k, (unit, _) in tracing.LAYER_METRICS.items() if unit == "count"]
        report["counts_repeat"] = all(m[k] == traced[0][k] for m in traced for k in counted)
        layers = {
            name: traced[0][name] if name in counted else statistics.median(m[name] for m in traced)
            for name in tracing.LAYER_METRICS
        }
        # layer times are raw seconds, so the traced walls are raw too
        traced_wall = _spread([s["wall_raw_s"] for s in samples if s["trace"]])
        report["trace_wall_raw_s"] = traced_wall
        untraced = report["wall_raw_s"]["median"]
        layers["trace.wall_s"] = traced_wall["median"]
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_ratio"] = traced_wall["median"] / untraced
        metrics = layers
    report["metrics"] = metrics
    return report


def commit() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "platform": platform.platform(),
    }


def table_row(report: dict) -> str:
    wall = report["wall_s"]
    return (
        f"{report['workload']:<17} "
        f"wall_s {wall['median']:.4f} s [q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}, n={wall['n']}; "
        f"raw {report['wall_raw_s']['median']:.4f} s]  "
        f"setup_s {report['setup_s']['median']:.4f} s [raw {report['setup_raw_s']['median']:.4f} s]  "
        f"peak_rss_mb {report['peak_rss_mb']['median']:.1f} MB  "
        f"fail_ratio {report['fail_ratio']:.4f} ({report['failed']}/{report['attempted']})"
    )


def layer_rows(report: dict) -> list[str]:
    """Self time per module as a share of the traced wall time."""
    by_module: dict[str, float] = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        if unit == "s":
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + report["metrics"][name]
    wall = report["metrics"]["trace.wall_s"]
    return [f"  {m:<12} {t:.4f} s  {t / wall:6.1%} of traced wall" for m, t in by_module.items()]


def result_line(reports: list[dict], units: dict[str, str]) -> dict:
    """The last output line; metric names carry the workload when there are
    several."""
    prefix = len(reports) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
        for r in reports
        for k, v in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _stop(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # unwind on SIGTERM: subprocess.run kills and reaps the running phase,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, _stop)

    if not (SRC / "cfkcalc" / "__init__.py").is_file():
        print(f"bench: no cfkcalc sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    env_info = environment()
    reports = []
    for name in names:
        inputs = workloads.make_inputs(name, args.seed)
        try:
            report = run_workload(name, inputs, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"bench: cannot import cfkcalc: {exc}", file=sys.stderr)
            return 2
        report["seed"] = args.seed
        report["environment"] = env_info
        print(json.dumps(report, sort_keys=True))
        reports.append(report)
    for report in reports:
        print(table_row(report))
        if args.trace:
            print("\n".join(layer_rows(report)))
    result = result_line(reports, PER_LAYER if args.trace else END_TO_END)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
