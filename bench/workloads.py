"""Benchmark workloads: inputs drawn from a seed, the answers the mathematics
forces on them, and the bodies that compute those answers with cfkcalc.

Run as a script, this file is one phase of one sample in a fresh
interpreter (the library's lru_caches would otherwise turn repeated work
into lookups):

    python3 bench/workloads.py PHASE INPUTS_JSON TRACE WORKDIR

It prints one JSON line: the answers, the time of the phase body, the time
of calibrate() around it, the process's peak resident memory and, with
TRACE=1, the layer aggregates.
The runner never imports cfkcalc; only phases do.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time

WORKLOADS = ("torus_invariants", "evidence", "certificates")

# Phases of one sample, each run in its own interpreter, in order.
PHASES = {
    "torus_invariants": ("invariants",),
    "evidence": ("evidence",),
    "certificates": ("certify", "recheck"),
}

# Size bands the seed draws from.  They are narrow so that the spread of a
# metric across seeds reflects the machine more than the input.
T2_Q_BAND = range(3995, 4006, 2)  # T(2,q): ~4,000-generator staircase
TP_P_BAND = range(399, 402)  # T(p,p+1): ~800 generators, p-1 a2 search steps
CERT_P_RANGE = range(2, 13)  # C(D;p,p+1) - T(p,p+1): 15 to 1,035 generators

CERT_FILE = "certificate.json"

# Times are reported in reference seconds: seconds on a machine where
# calibrate() takes CAL_REF_S.
CAL_REF_S = 0.1


def difference_class(p: int) -> str:
    return f"C(D;{p},{p + 1}) + -T({p},{p + 1})"


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "torus_invariants":
        p = rng.choice(TP_P_BAND)
        return {"knots": [[2, rng.choice(T2_Q_BAND)], [p, p + 1]]}
    if workload == "evidence":
        return {"above": difference_class(3), "below": difference_class(2), "multiples": 2}
    if workload == "certificates":
        ps = list(CERT_P_RANGE)
        rng.shuffle(ps)
        return {"ps": ps}
    raise ValueError(f"unknown workload {workload!r}")


def expected(workload: str, inputs: dict) -> dict[str, object]:
    """Answer of every operation of one sample, keyed as the phases key their
    answers, from closed forms.

    Torus knots T(p,q) are staircases with tau = (p-1)(q-1)/2, epsilon = +1
    and a1 = 1; a2 is the second step length, 1 for T(2,q) and p-1 for
    T(p,p+1).  C(D;p,p+1) - T(p,p+1) has (a1, a2) = (1, p), so the chain
    sorts by descending p and every link is by larger a2.
    """
    if workload == "torus_invariants":
        return {
            f"T({p},{q})": [(p - 1) * (q - 1) // 2, 1, 1, 1 if p == 2 else p - 1]
            for p, q in inputs["knots"]
        }
    if workload == "evidence":
        return {"evidence": [True, inputs["multiples"]]}
    if workload == "certificates":
        chain = [[difference_class(p), 1, p] for p in sorted(inputs["ps"], reverse=True)]
        links = ["larger-a2"] * (len(chain) - 1)
        return {"certify": [chain, links], "recheck": [True, chain]}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# phase bodies; each imports the library lazily and returns its answers


def _invariants(inputs: dict, workdir: str) -> dict[str, object]:
    """tau, epsilon, a1, a2 as `cfkcalc invariants EXPR` computes them."""
    from cfkcalc import invariants, knots

    out = {}
    for p, q in inputs["knots"]:
        c = knots.class_complex(knots.parse(f"T({p},{q})")).complex
        out[f"T({p},{q})"] = [
            invariants.tau(c),
            invariants.epsilon(c),
            invariants.a1(c),
            invariants.a2(c),
        ]
    return out


def _evidence(inputs: dict, workdir: str) -> dict[str, object]:
    """The computation behind `cfkcalc dominates ABOVE BELOW --evidence N`."""
    from cfkcalc import concordance, knots

    above = knots.class_complex(knots.parse(inputs["above"]))
    below = knots.class_complex(knots.parse(inputs["below"]))
    result = concordance.dominance_evidence(above, below, inputs["multiples"])
    return {"evidence": [result.consistent, result.checked]}


def _chain(cert) -> list[list]:
    return [[e.expression, e.a1, e.a2] for e in cert.entries]


def _certify(inputs: dict, workdir: str) -> dict[str, object]:
    """`cfkcalc independence EXPR... --out FILE`."""
    from cfkcalc import concordance, knots

    reps = [knots.class_complex(knots.parse(difference_class(p))) for p in inputs["ps"]]
    cert = concordance.independence_certificate(reps)
    with open(os.path.join(workdir, CERT_FILE), "w", encoding="utf-8") as fh:
        fh.write(cert.to_json() + "\n")
    return {"certify": [_chain(cert), [link.criterion for link in cert.links]]}


def _recheck(inputs: dict, workdir: str) -> dict[str, object]:
    """`cfkcalc independence --recheck FILE`, in a cold process."""
    from cfkcalc import concordance

    with open(os.path.join(workdir, CERT_FILE), encoding="utf-8") as fh:
        cert = concordance.Certificate.from_json(fh.read())
    return {"recheck": [concordance.recheck_certificate(cert), _chain(cert)]}


BODIES = {
    "invariants": _invariants,
    "evidence": _evidence,
    "certify": _certify,
    "recheck": _recheck,
}


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python kernel shaped like
    the library's hot loops: big-int bit walks and dict inserts keyed by
    tuples.

    The speed of a shared host drifts by a quarter or more within minutes
    (no steal time is recorded, and CPU time drifts with wall time), and the
    drift moves the kernel with the workloads.  Times are therefore divided
    by the kernel time measured next to them.  Changing the kernel or
    CAL_REF_S redefines wall_s and setup_s.
    """
    start = time.perf_counter()
    mask = int("1011" * 1000, 2)
    for row in range(40):
        # a fresh small dict per row keeps the kernel out of peak_rss_mb
        index: dict[tuple[int, int], int] = {}
        x, i = mask, 0
        while x:
            if x & 1:
                index[(i, row)] = len(index)
            x >>= 1
            i += 1
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in 10^6 bytes.

    VmHWM belongs to the address space made at exec; ru_maxrss would also
    count the runner's memory from before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_phase(phase: str, inputs: dict, trace: bool, workdir: str) -> dict:
    import cfkcalc  # noqa: F401  (import time belongs to setup_s, not here)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer().install()
    before = calibrate()
    start = time.perf_counter()
    answers = BODIES[phase](inputs, workdir)
    wall = time.perf_counter() - start
    after = calibrate()
    out = {
        "answers": answers,
        "wall_s": wall,
        "calibration_s": (before + after) / 2,
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["layers"] = tracer.snapshot()
    return out


if __name__ == "__main__":
    phase, inputs_json, trace_flag, workdir = sys.argv[1:5]
    print(json.dumps(run_phase(phase, json.loads(inputs_json), trace_flag == "1", workdir)))
