"""Outside-in layer tracing for the benchmark.

The library has no spans of its own, so a traced sample rebinds each
layer's public functions to timing wrappers.  A function is looked up by
name wherever a module imported it (``from .cfk import tensor`` binds
``concordance.tensor``, ``knots.tensor`` and ``invariants.tensor``), and a
lazy ``from . import regions`` reads the defining module's attribute, so
every global of every loaded ``cfkcalc`` module that *is* the original
function is replaced by the same wrapper.  Methods are replaced on their
class.

Spans are aggregated as they close: per span name, the number of calls and
the self time (duration minus the time covered by child spans).  Install a
Tracer only in a process that runs nothing untraced afterwards: the
rebinding is global to the interpreter.
"""

from __future__ import annotations

import collections
import functools
import sys
import time

# (span name, module, attribute) for every wrapped library function.
SPANS = (
    ("knots.parse", "knots", "parse"),
    ("knots.class_build", "knots", "class_complex"),
    ("laurent.alexander", "laurent", "torus_alexander"),
    ("laurent.alexander", "laurent", "cable_alexander"),
    ("laurent.alexander", "laurent", "staircase_exponents"),
    ("cfk.tensor", "cfk", "tensor"),
    ("cfk.reduce", "cfk", "reduce"),
    ("cfk.validate", "cfk", "validate"),
    ("cfk.serialize", "cfk", "serialize"),
    ("cfk.deserialize", "cfk", "deserialize"),
    ("regions.build", "regions", "region_complex"),
    ("regions.homology", "regions", "homology_data"),
    ("gf2.eliminate", "gf2", "kernel_and_image"),
    ("invariants.tau", "invariants", "tau"),
    ("invariants.epsilon", "invariants", "epsilon"),
    ("invariants.a1", "invariants", "a1"),
    ("invariants.a2", "invariants", "a2"),
    ("concordance.evidence", "concordance", "dominance_evidence"),
    ("concordance.certify", "concordance", "independence_certificate"),
    ("concordance.recheck", "concordance", "recheck_certificate"),
)

# (span name, module, class, method) for wrapped methods.
METHOD_SPANS = (
    ("regions.chain_walk", "regions", "RegionComplex", "chain_elements"),
    ("regions.chain_walk", "regions", "RegionComplex", "differential"),
)

# Per-layer metrics: name -> (unit, how the value is derived).  "self:<span>"
# is the span's self time, "calls:<span>" its call count, "count:<key>" a
# counter filled by an observer below.
LAYER_METRICS = {
    "knots.parse_s": ("s", "self:knots.parse"),
    "knots.parse_calls": ("count", "calls:knots.parse"),
    "knots.class_build_s": ("s", "self:knots.class_build"),
    "knots.class_build_calls": ("count", "calls:knots.class_build"),
    "laurent.alexander_s": ("s", "self:laurent.alexander"),
    "cfk.tensor_s": ("s", "self:cfk.tensor"),
    "cfk.tensor_calls": ("count", "calls:cfk.tensor"),
    "cfk.tensor_generators_out": ("count", "count:tensor_generators_out"),
    "cfk.tensor_arrows_out": ("count", "count:tensor_arrows_out"),
    "cfk.reduce_s": ("s", "self:cfk.reduce"),
    "cfk.reduce_calls": ("count", "calls:cfk.reduce"),
    "cfk.reduce_cancel_ratio": ("ratio", "ratio:reduce_cancelled/reduce_generators_in"),
    "cfk.validate_s": ("s", "self:cfk.validate"),
    "cfk.serialize_s": ("s", "self:cfk.serialize"),
    "cfk.deserialize_s": ("s", "self:cfk.deserialize"),
    "regions.build_s": ("s", "self:regions.build"),
    "regions.build_calls": ("count", "calls:regions.build"),
    "regions.elements": ("count", "count:region_elements"),
    "regions.max_elements": ("count", "count:region_max_elements"),
    "regions.chain_walk_s": ("s", "self:regions.chain_walk"),
    "regions.chain_walk_calls": ("count", "calls:regions.chain_walk"),
    "regions.homology_s": ("s", "self:regions.homology"),
    "gf2.eliminate_s": ("s", "self:gf2.eliminate"),
    "gf2.eliminate_columns": ("count", "count:eliminate_columns"),
    "gf2.kernel_dim": ("count", "count:kernel_dim"),
    "invariants.tau_s": ("s", "self:invariants.tau"),
    "invariants.epsilon_s": ("s", "self:invariants.epsilon"),
    "invariants.a1_s": ("s", "self:invariants.a1"),
    "invariants.a2_s": ("s", "self:invariants.a2"),
    "invariants.search_steps": ("count", "count:search_steps"),
    "invariants.cache_hits": ("count", "count:cache_hits"),
    "invariants.cache_misses": ("count", "count:cache_misses"),
    "concordance.evidence_s": ("s", "self:concordance.evidence"),
    "concordance.multiples_checked": ("count", "count:multiples_checked"),
    "concordance.certify_s": ("s", "self:concordance.certify"),
    "concordance.recheck_s": ("s", "self:concordance.recheck"),
}


class Tracer:
    """Span stack, per-span aggregates and the rebinding that feeds them."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.calls: collections.Counter[str] = collections.Counter()
        self.counts: collections.Counter[str] = collections.Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self._cached: list = []

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def innermost(self, prefix: str) -> str | None:
        """Name of the innermost open span whose name starts with prefix."""
        for frame in reversed(self._stack):
            if frame[0].startswith(prefix):
                return frame[0]
        return None

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        modules = _loaded_modules()
        invariants = modules["cfkcalc.invariants"]
        self._cached = [
            fn
            for fn in (getattr(invariants, n) for n in invariants.__all__)
            if hasattr(fn, "cache_info")
        ]
        for name, module, attr in SPANS:
            original = getattr(modules[f"cfkcalc.{module}"], attr)
            wrapper = self.wrap(name, original, _OBSERVERS.get(name))
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method in METHOD_SPANS:
            cls = getattr(modules[f"cfkcalc.{module}"], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Raw aggregates: self time and calls per span, observer counts.

        Cache counters come from cache_info() on the public cached functions
        of the invariants module, and are absent once it has none."""
        counts = dict(self.counts)
        if self._cached:
            counts["cache_hits"] = sum(fn.cache_info().hits for fn in self._cached)
            counts["cache_misses"] = sum(fn.cache_info().misses for fn in self._cached)
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "counts": counts}


def merge(snapshots: list[dict[str, dict]]) -> dict[str, dict]:
    """Combine the snapshots of the processes of one sample."""
    out: dict[str, dict] = {"self_s": {}, "calls": {}, "counts": {}}
    for snap in snapshots:
        for part, values in snap.items():
            for key, value in values.items():
                if key == "region_max_elements":
                    out[part][key] = max(out[part].get(key, 0), value)
                else:
                    out[part][key] = out[part].get(key, 0) + value
    return out


def layer_metrics(snap: dict[str, dict]) -> dict[str, float | int]:
    """Every LAYER_METRICS value of one sample; a missing span or counter
    reads 0."""
    out: dict[str, float | int] = {}
    for metric, (_, source) in LAYER_METRICS.items():
        kind, _, key = source.partition(":")
        if kind == "self":
            out[metric] = snap["self_s"].get(key, 0.0)
        elif kind == "calls":
            out[metric] = snap["calls"].get(key, 0)
        elif kind == "count":
            out[metric] = snap["counts"].get(key, 0)
        else:
            num, den = (snap["counts"].get(k, 0) for k in key.split("/"))
            out[metric] = num / den if den else 0.0
    return out


def _loaded_modules() -> dict[str, object]:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cfkcalc" or name.startswith("cfkcalc."))
    }


# -- observers: counts read from a call's arguments and result ---------------


def _observe_tensor(tracer: Tracer, args, result) -> None:
    tracer.counts["tensor_generators_out"] += len(result.generators)
    tracer.counts["tensor_arrows_out"] += len(result.arrows)


def _observe_reduce(tracer: Tracer, args, result) -> None:
    tracer.counts["reduce_generators_in"] += len(args[0].generators)
    tracer.counts["reduce_cancelled"] += len(args[0].generators) - len(result.generators)


def _observe_build(tracer: Tracer, args, result) -> None:
    tracer.counts["region_elements"] += len(result)
    tracer.counts["region_max_elements"] = max(tracer.counts["region_max_elements"], len(result))
    if tracer.innermost("invariants.") in ("invariants.a1", "invariants.a2"):
        tracer.counts["search_steps"] += 1


def _observe_eliminate(tracer: Tracer, args, result) -> None:
    tracer.counts["eliminate_columns"] += len(args[0])
    tracer.counts["kernel_dim"] += len(result[0])


def _observe_evidence(tracer: Tracer, args, result) -> None:
    tracer.counts["multiples_checked"] += result.checked


_OBSERVERS = {
    "cfk.tensor": _observe_tensor,
    "cfk.reduce": _observe_reduce,
    "regions.build": _observe_build,
    "gf2.eliminate": _observe_eliminate,
    "concordance.evidence": _observe_evidence,
}
