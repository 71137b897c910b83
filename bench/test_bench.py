"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "torus_invariants": {"knots": [[2, 5]]},
    "evidence": {
        "above": workloads.difference_class(3),
        "below": workloads.difference_class(2),
        "multiples": 1,
    },
    "certificates": {"ps": [3, 2]},
}

# Spans each workload must record: the layers predicted to work on it.
PREDICTED = {
    "torus_invariants": (
        "knots.parse", "knots.class_build", "laurent.alexander", "cfk.validate",
        "regions.build", "regions.chain_walk", "regions.homology", "gf2.eliminate",
        "invariants.tau", "invariants.epsilon", "invariants.a1", "invariants.a2",
    ),
    "evidence": (
        "knots.parse", "knots.class_build", "laurent.alexander", "cfk.tensor",
        "cfk.reduce", "cfk.validate", "regions.build", "regions.chain_walk",
        "gf2.eliminate", "invariants.tau", "invariants.epsilon", "concordance.evidence",
    ),
    "certificates": (
        "knots.parse", "knots.class_build", "laurent.alexander", "cfk.tensor",
        "cfk.reduce", "cfk.validate", "cfk.serialize", "cfk.deserialize",
        "regions.build", "regions.chain_walk", "gf2.eliminate", "invariants.epsilon",
        "invariants.a1", "invariants.a2", "concordance.certify", "concordance.recheck",
    ),
}

# Spans a workload must not record.
ABSENT = {
    "torus_invariants": ("cfk.tensor", "concordance.evidence", "concordance.certify"),
    "evidence": ("invariants.a1", "invariants.a2", "cfk.serialize"),
    "certificates": ("concordance.evidence",),
}


def sample(workload: str, trace: bool, tmp_path: Path) -> dict:
    out, error = run.run_sample(workload, TINY[workload], trace, run._child_env(), str(tmp_path))
    assert error is None, error
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_predicted_layers_record_spans(workload, tmp_path):
    calls = sample(workload, True, tmp_path)["layers"]["calls"]
    for span in PREDICTED[workload]:
        assert calls.get(span, 0) >= 1, span
    for span in ABSENT[workload]:
        assert span not in calls, span


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_answers_agree(workload, tmp_path):
    plain = sample(workload, False, tmp_path)
    traced = sample(workload, True, tmp_path)
    assert plain["answers"] == traced["answers"] == workloads.expected(workload, TINY[workload])
    assert "layers" not in plain


def test_counts_repeat_between_samples(tmp_path):
    first, second = (
        tracing.layer_metrics(sample("certificates", True, tmp_path)["layers"]) for _ in range(2)
    )
    counts = [k for k, (unit, _) in tracing.LAYER_METRICS.items() if unit == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["invariants.search_steps"] == 2 * (2 + 3 + 2 * 2)  # a1: 2 builds, a2: p each


def benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
def test_report_names_every_metric_with_its_unit(trace):
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    report = run.run_workload("torus_invariants", TINY["torus_invariants"], 0, trace)
    assert report["failed"] == 0 and report["attempted"] >= 1
    line = run.result_line([report], run.PER_LAYER if trace else run.END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_end_to_end_metrics_are_never_zero():
    report = run.run_workload("certificates", TINY["certificates"], 0, False)
    assert all(report["metrics"][m["name"]] > 0 for m in benchmark_json()["end_to_end"])


def test_wrong_answer_is_a_failure(monkeypatch):
    wrong = {"T(2,5)": [2, 1, 1, 2]}
    monkeypatch.setattr(workloads, "expected", lambda workload, inputs: wrong)
    report = run.run_workload("torus_invariants", TINY["torus_invariants"], 0, False)
    assert report["failed"] == report["attempted"] == 1
    assert report["fail_ratio"] == 1.0
    assert run.result_line([report], run.END_TO_END)["correct"] is False


def test_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    draws = [workloads.make_inputs("torus_invariants", s)["knots"] for s in range(10)]
    assert len({json.dumps(d) for d in draws}) > 1
    for (two, q), (p, p1) in draws:
        assert two == 2 and q in workloads.T2_Q_BAND
        assert p in workloads.TP_P_BAND and p1 == p + 1
    orders = [workloads.make_inputs("certificates", s)["ps"] for s in range(10)]
    assert all(sorted(o) == list(workloads.CERT_P_RANGE) for o in orders)
    assert len({tuple(o) for o in orders}) > 1


def test_tracer_rebinds_every_lookup():
    sys.path.insert(0, str(run.SRC))
    import cfkcalc  # noqa: F401

    modules = tracing._loaded_modules()
    tracer = tracing.Tracer().install()
    try:
        for _, module, attr in tracing.SPANS:
            original = getattr(modules[f"cfkcalc.{module}"], attr).__wrapped__
            for mod in modules.values():
                assert all(v is not original for v in vars(mod).values()), (mod, attr)
        assert modules["cfkcalc.invariants"].region_complex is modules["cfkcalc.regions"].region_complex
        assert hasattr(modules["cfkcalc.regions"].region_complex, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(modules["cfkcalc.regions"].region_complex, "__wrapped__")


def test_environment_is_recorded():
    env = run.environment()
    assert env["nproc"] >= 1 and env["python"] and env["commit"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evidence", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
