"""Total order on concordance classes and machine-checkable independence.

A class is represented by a reduced knot-like complex.  Comparison of two
classes is the epsilon of the difference class; domination (K exceeds every
multiple of J) is proved from the pair (a1, a2) and packaged, chain by
chain, into certificates that can be rechecked from their own serialized
complexes alone.
"""

from __future__ import annotations

import enum
import json
import math
from typing import NamedTuple, Sequence

from .cfk import MAX_GENERATORS, CfkComplex, _class_errors, deserialize, dual, serialize, tensor
from .errors import (
    CertificateError,
    InconsistentInput,
    NotAChain,
    NotCoprime,
    ParseError,
    UnsupportedExpression,
    parse_int,
)
from .invariants import a1, a2, epsilon
from .knots import ClassRep, Mirror

__all__ = [
    "Ordering",
    "class_cmp",
    "class_sign",
    "abs_class",
    "DominationResult",
    "dominates_by_invariants",
    "DominanceEvidence",
    "dominance_evidence",
    "ChainEntry",
    "ChainLink",
    "Certificate",
    "independence_certificate",
    "recheck_certificate",
    "cable_tau",
    "epsilon_from_cable_taus",
]


class Ordering(enum.Enum):
    LT = "<"
    EQ = "="
    GT = ">"


def class_cmp(k: ClassRep, j: ClassRep) -> Ordering:
    """Position of k against j in the total order: the sign of epsilon on
    the difference class."""
    e = epsilon(tensor(k.complex, dual(j.complex)))
    return {1: Ordering.GT, 0: Ordering.EQ, -1: Ordering.LT}[e]


def class_sign(k: ClassRep) -> int:
    """Sign of the class against zero; equals epsilon of its complex."""
    return epsilon(k.complex)


def abs_class(k: ClassRep) -> ClassRep:
    """k itself when its sign is nonnegative, otherwise the mirror class."""
    if class_sign(k) >= 0:
        return k
    provenance = None if k.provenance is None else Mirror(k.provenance)
    return ClassRep(dual(k.complex), provenance)


# ---------------------------------------------------------------------------
# domination


SMALLER_A1 = "smaller-a1"
LARGER_A2 = "larger-a2"


class DominationResult(NamedTuple):
    """Outcome of the invariant-based domination test."""

    proved: bool
    criterion: str | None
    reason: str

    def __str__(self) -> str:
        head = "proved" if self.proved else "unknown"
        return f"{head}: {self.reason}"


class _Summary(NamedTuple):
    epsilon: int
    a1: int | None
    a2: int | None


def _summarize(c: CfkComplex) -> _Summary:
    e = epsilon(c)
    if e != 1:
        return _Summary(e, None, None)
    return _Summary(e, a1(c), a2(c))


def _compare_summaries(k: _Summary, j: _Summary) -> DominationResult:
    """Domination test on precomputed invariant summaries."""
    if k.epsilon != 1 or j.epsilon != 1:
        return DominationResult(False, None, "test applies only when both classes have epsilon +1")
    assert k.a1 is not None and j.a1 is not None
    if k.a1 < j.a1:
        return DominationResult(True, SMALLER_A1, f"a1 drops from {j.a1} to {k.a1}")
    if k.a1 > j.a1:
        return DominationResult(False, None, f"a1 rises from {j.a1} to {k.a1}")
    if k.a2 is None or j.a2 is None:
        return DominationResult(False, None, "equal a1 and at least one side has no finite a2")
    if k.a2 > j.a2:
        reason = f"equal a1 = {k.a1}, a2 rises from {j.a2} to {k.a2}"
        return DominationResult(True, LARGER_A2, reason)
    return DominationResult(False, None, f"equal a1 = {k.a1}, a2 does not rise ({j.a2} to {k.a2})")


def dominates_by_invariants(k: ClassRep, j: ClassRep) -> DominationResult:
    """Prove that k exceeds every positive multiple of j, or report unknown.

    Two sufficient criteria: a1(k) < a1(j), or equal a1 with finite
    a2(k) > a2(j); both need epsilon = +1 on each side.
    """
    return _compare_summaries(_summarize(k.complex), _summarize(j.complex))


class DominanceEvidence(NamedTuple):
    """Result of directly testing k > n*j for n up to a bound."""

    consistent: bool
    checked: int

    def __str__(self) -> str:
        if self.consistent:
            return f"consistent with domination for all multiples up to {self.checked}"
        if self.checked == 0:
            return "refuted before any multiple: the candidate base class is not positive"
        return f"refuted at multiple {self.checked}"


def dominance_evidence(k: ClassRep, j: ClassRep, max_multiple: int = 3) -> DominanceEvidence:
    """Check k > n*j for n = 1 .. max_multiple by forming difference classes.

    This is evidence, not proof: domination quantifies over every n.  A
    base class j that is not positive refutes immediately (checked = 0).
    A class over MAX_GENERATORS generators is refused before any is built.
    """
    if max_multiple < 1:
        raise InconsistentInput("max_multiple must be at least 1")
    if epsilon(j.complex) != 1:
        return DominanceEvidence(False, 0)
    n = min(max_multiple, 18)  # 2^18 > MAX_GENERATORS, and a positive j has 2+ generators
    size = len(k.complex) * len(j.complex) ** n
    if size > MAX_GENERATORS:
        raise UnsupportedExpression(
            f"multiple {n} needs {size:,} generators, over the limit of {MAX_GENERATORS:,}"
        )
    minus_j = dual(j.complex)
    acc = k.complex
    for n in range(1, max_multiple + 1):
        acc = tensor(acc, minus_j)
        if epsilon(acc) != 1:
            return DominanceEvidence(False, n)
    return DominanceEvidence(True, max_multiple)


# ---------------------------------------------------------------------------
# independence certificates


CERTIFICATE_FORMAT = "cfk-independence-certificate v1"


class ChainEntry(NamedTuple):
    expression: str | None
    complex_text: str
    a1: int
    a2: int | None
    epsilon: int

    def label(self, index: int) -> str:
        return self.expression if self.expression is not None else f"#{index}"


class ChainLink(NamedTuple):
    above: int
    below: int
    criterion: str


# JSON keys and types of the certificate fields, in constructor order; to_json
# writes and from_json reads each record in this layout
_ENTRY_FIELDS = {
    "expression": (str, type(None)),
    "complex": (str,),
    "a1": (int,),
    "a2": (int, type(None)),
    "epsilon": (int,),
}
_LINK_FIELDS = {"above": (int,), "below": (int,), "criterion": (str,)}


def _fields(record: dict, types: dict[str, tuple[type, ...]]) -> list:
    for key, allowed in types.items():
        if type(record[key]) not in allowed:  # exact types: true is not an int
            kind = "null" if record[key] is None else type(record[key]).__name__
            raise CertificateError(f"malformed certificate body: {key!r} cannot be {kind}")
    return [record[key] for key in types]


class Certificate(NamedTuple):
    """Dominance chain witnessing linear independence of its classes."""

    entries: tuple[ChainEntry, ...]
    links: tuple[ChainLink, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": CERTIFICATE_FORMAT,
                "chain": [dict(zip(_ENTRY_FIELDS, e)) for e in self.entries],
                "links": [dict(zip(_LINK_FIELDS, l)) for l in self.links],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            raw = json.loads(text, parse_int=parse_int)
        except ParseError as exc:  # valid JSON, but a number past the digit limit
            raise CertificateError(str(exc)) from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or too deep
            raise CertificateError(f"not valid JSON: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("format") != CERTIFICATE_FORMAT:
            raise CertificateError(f"missing format tag {CERTIFICATE_FORMAT!r}")
        try:
            entries = tuple(ChainEntry(*_fields(e, _ENTRY_FIELDS)) for e in raw["chain"])
            links = tuple(ChainLink(*_fields(l, _LINK_FIELDS)) for l in raw["links"])
        except (KeyError, TypeError) as exc:
            raise CertificateError(f"malformed certificate body: {exc}") from exc
        return cls(entries, links)

    def __str__(self) -> str:
        lines = [f"independence certificate on {len(self.entries)} classes"]
        for i, e in enumerate(self.entries):
            a2_text = "none" if e.a2 is None else str(e.a2)
            lines.append(
                f"  [{i}] {e.label(i)}  a1={e.a1}  a2={a2_text}  epsilon={e.epsilon:+d}"
            )
        for l in self.links:
            lines.append(
                f"  {self.entries[l.above].label(l.above)} dominates "
                f"{self.entries[l.below].label(l.below)} ({l.criterion})"
            )
        return "\n".join(lines)


def _chain_sort_key(summary: _Summary) -> tuple[int, int, int]:
    assert summary.a1 is not None
    if summary.a2 is None:
        return (summary.a1, 1, 0)
    return (summary.a1, 0, -summary.a2)


def independence_certificate(reps: Sequence[ClassRep]) -> Certificate:
    """Arrange the classes into a dominance chain and certify every link.

    The classes must all have epsilon +1 and pairwise distinct (a1, a2);
    otherwise some adjacent pair fails the domination test and NotAChain
    reports it.
    """
    if not reps:
        raise InconsistentInput("certificate needs at least one class")
    summaries = [_summarize(r.complex) for r in reps]
    for rep, summary in zip(reps, summaries):
        if summary.epsilon != 1:
            raise NotAChain(f"{rep} has epsilon {summary.epsilon}, not +1", (str(rep),))
    order = sorted(range(len(reps)), key=lambda i: _chain_sort_key(summaries[i]))
    entries = []
    for i in order:
        summary = summaries[i]
        expression = str(reps[i].provenance) if reps[i].provenance is not None else None
        assert summary.a1 is not None
        entries.append(
            ChainEntry(
                expression,
                serialize(reps[i].complex),
                summary.a1,
                summary.a2,
                summary.epsilon,
            )
        )
    links = []
    for pos in range(len(order) - 1):
        above, below = summaries[order[pos]], summaries[order[pos + 1]]
        result = _compare_summaries(above, below)
        if not result.proved:
            pair = (entries[pos].label(pos), entries[pos + 1].label(pos + 1))
            raise NotAChain(f"{pair[0]} does not dominate {pair[1]}: {result.reason}", pair)
        assert result.criterion is not None
        links.append(ChainLink(pos, pos + 1, result.criterion))
    return Certificate(tuple(entries), tuple(links))


def recheck_certificate(cert: Certificate) -> bool:
    """Check each embedded complex is knot-like and recompute every stated
    invariant and link from them; raises CertificateError on the first defect."""
    if not cert.entries:
        raise CertificateError("certificate has no chain entries")
    summaries = []
    for i, entry in enumerate(cert.entries):
        try:
            c = deserialize(entry.complex_text)
        except ParseError as exc:
            raise CertificateError(f"entry {i}: embedded complex does not parse: {exc}") from exc
        errors = _class_errors(c)
        if errors:
            raise CertificateError(f"entry {i}: not a knot-like complex: {errors[0].message}")
        try:
            summary = _summarize(c)
        except Exception as exc:
            raise CertificateError(f"entry {i}: invariants failed: {exc}") from exc
        if summary.epsilon != entry.epsilon:
            raise CertificateError(
                f"entry {i}: epsilon is {summary.epsilon}, certificate says {entry.epsilon}"
            )
        if summary.a1 != entry.a1 or summary.a2 != entry.a2:
            raise CertificateError(
                f"entry {i}: (a1, a2) is ({summary.a1}, {summary.a2}), "
                f"certificate says ({entry.a1}, {entry.a2})"
            )
        summaries.append(summary)
    expected_pairs = [(i, i + 1) for i in range(len(cert.entries) - 1)]
    actual_pairs = [(l.above, l.below) for l in cert.links]
    if actual_pairs != expected_pairs:
        raise CertificateError(f"links {actual_pairs} do not chain the entries in order")
    for link in cert.links:
        result = _compare_summaries(summaries[link.above], summaries[link.below])
        if not result.proved or result.criterion != link.criterion:
            raise CertificateError(
                f"link {link.above}->{link.below}: stated criterion "
                f"{link.criterion!r} does not recheck ({result.reason})"
            )
    return True


# ---------------------------------------------------------------------------
# cable rules


def cable_tau(tau_value: int, eps: int, p: int, q: int) -> int:
    """tau of the (p, q) cable from tau and epsilon of the companion."""
    if p < 1:
        raise InconsistentInput(f"cable parameter p must be positive, got {p}")
    if math.gcd(p, abs(q)) != 1:
        raise NotCoprime(f"cable parameters ({p}, {q}) share a factor")
    if eps == 1:
        return p * tau_value + (p - 1) * (q - 1) // 2
    if eps == -1:
        return p * tau_value + (p - 1) * (q + 1) // 2
    if eps == 0:
        if tau_value != 0:
            raise InconsistentInput(f"epsilon 0 forces tau 0, got tau {tau_value}")
        if q < 0:
            return (p - 1) * (q + 1) // 2
        return (p - 1) * (q - 1) // 2
    raise InconsistentInput(f"epsilon must be -1, 0, or +1, got {eps}")


def epsilon_from_cable_taus(tau_2_1: int, tau_2_minus1: int) -> int | None:
    """Read epsilon off the tau values of the (2, 1) and (2, -1) cables.

    An odd (2, 1) value forces epsilon -1, an odd (2, -1) value forces +1,
    two zeros force 0; anything else is indeterminate (None).
    """
    if tau_2_1 % 2 != 0:
        return -1
    if tau_2_minus1 % 2 != 0:
        return 1
    if tau_2_1 == 0 and tau_2_minus1 == 0:
        return 0
    return None
