"""Total order on concordance classes and machine-checkable independence.

A class is represented by a reduced knot-like complex.  Comparison of two
classes is the epsilon of the difference class; domination (K exceeds every
multiple of J) is proved from the pair (a1, a2) and packaged, chain by
chain, into certificates that can be rechecked from their own serialized
complexes alone: the factors of each class, the signed leaves of its expression.
"""

from __future__ import annotations

import enum
import json
import math
from typing import Iterable, NamedTuple

from .cfk import MAX_GENERATORS, CfkComplex, _product_size, deserialize, dual, serialize
from .errors import (
    CertificateError,
    InconsistentInput,
    InputError,
    MathError,
    NotAChain,
    NotCoprime,
    ParseError,
    RankNotOne,
    UnsupportedExpression,
    parse_int,
)
from .invariants import _analysis, a1, a2, epsilon
from .knots import ClassRep, _signed_leaves, parse
from .regions import _Product

__all__ = [
    "Ordering",
    "class_cmp",
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
]


class Ordering(enum.Enum):
    LT = "<"
    EQ = "="
    GT = ">"


def class_cmp(k: ClassRep, j: ClassRep) -> Ordering:
    """Position of k against j: the sign of epsilon of k - j, or minus that of
    j - k when j is larger, so the larger class is read by slices, never dualized."""
    sign, k, j = (1, k, j) if len(k.complex) >= len(j.complex) else (-1, j, k)
    e = sign * epsilon(_Product((k.complex, dual(j.complex))))
    return {1: Ordering.GT, 0: Ordering.EQ, -1: Ordering.LT}[e]


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


def _summarize(c: CfkComplex | _Product) -> _Summary:
    e = epsilon(c)
    if e != 1:
        return _Summary(e, None, None)
    return _Summary(e, a1(c), a2(c))


def _compare_summaries(k: _Summary | ChainEntry, j: _Summary | ChainEntry) -> DominationResult:
    """Domination test on precomputed invariants: summaries or certificate entries."""
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
    base class j that is not positive refutes at once (checked = 0).  Each
    k - n*j is read by slices, never built, and refused over MAX_GENERATORS.
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
    for n in range(1, max_multiple + 1):
        if epsilon(_Product((k.complex, *[minus_j] * n))) != 1:
            return DominanceEvidence(False, n)
    return DominanceEvidence(True, max_multiple)


# ---------------------------------------------------------------------------
# independence certificates


CERTIFICATE_FORMAT = "cfk-independence-certificate v2"
_VERSIONS = {"cfk-independence-certificate v1": 1, CERTIFICATE_FORMAT: 2}


class ChainEntry(NamedTuple):
    expression: str | None
    factors: tuple[str, ...]  # cfk v1 texts: the class is their tensor product
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
# writes and from_json reads each record in this layout (v1: one complex)
_ENTRY_FIELDS = {
    "expression": (str, type(None)),
    "factors": (list,),
    "a1": (int,),
    "a2": (int, type(None)),
    "epsilon": (int,),
}
_V1_FIELDS = {"complex" if k == "factors" else k: v for k, v in _ENTRY_FIELDS.items()}
_V1_FIELDS["complex"] = (str,)
_LINK_FIELDS = {"above": (int,), "below": (int,), "criterion": (str,)}


def _fields(record: dict, types: dict[str, tuple[type, ...]]) -> list:
    for key, allowed in types.items():
        if type(record[key]) not in allowed:  # exact types: true is not an int
            kind = "null" if record[key] is None else type(record[key]).__name__
            raise CertificateError(f"malformed certificate body: {key!r} cannot be {kind}")
    return [record[key] for key in types]


def _entry(record: dict, version: int) -> ChainEntry:
    if version == 1:  # a one-factor entry
        record = {**record, "factors": _fields(record, _V1_FIELDS)[1:2]}
    expression, factors, *rest = _fields(record, _ENTRY_FIELDS)
    if not factors or any(type(f) is not str for f in factors):
        raise CertificateError("malformed certificate body: 'factors' must list one text or more")
    return ChainEntry(expression, tuple(factors), *rest)


class Certificate(NamedTuple):
    """Dominance chain witnessing linear independence of its classes."""

    entries: tuple[ChainEntry, ...]
    links: tuple[ChainLink, ...]
    version: int = 2  # 1 read from v1: expressions are unchecked labels, which to_json drops

    def to_json(self) -> str:
        entries = (e if self.version == 2 else e._replace(expression=None) for e in self.entries)
        return json.dumps(
            {
                "format": CERTIFICATE_FORMAT,
                "chain": [dict(zip(_ENTRY_FIELDS, e)) for e in entries],
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
        if not (version := isinstance(raw, dict) and _VERSIONS.get(str(raw.get("format")))):
            raise CertificateError(f"missing format tag {CERTIFICATE_FORMAT!r}")
        try:
            entries = tuple(_entry(e, version) for e in raw["chain"])
            links = tuple(ChainLink(*_fields(l, _LINK_FIELDS)) for l in raw["links"])
        except (KeyError, TypeError) as exc:
            raise CertificateError(f"malformed certificate body: {exc}") from exc
        return cls(entries, links, version)

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


def _chain_sort_key(entry: ChainEntry) -> tuple[int, int, int]:
    return (entry.a1, 1, 0) if entry.a2 is None else (entry.a1, 0, -entry.a2)


def independence_certificate(reps: Iterable[ClassRep]) -> Certificate:
    """Arrange the classes into a dominance chain and certify every link.

    One pass keeps each class's entry, not the class.  The classes must have
    epsilon +1 (else NotAChain names the first that has not, once all are
    read) and pairwise distinct (a1, a2) (else some adjacent pair fails the
    domination test and NotAChain reports it).  Each entry carries its factors.
    """
    entries, refusal = [], None
    for rep in reps:
        summary = _summarize(rep.complex)
        if summary.epsilon != 1:
            message = f"{rep} has epsilon {summary.epsilon}, not +1"
            refusal = refusal or NotAChain(message, (str(rep),))
            continue
        assert summary.a1 is not None
        expression = str(rep.provenance) if rep.provenance is not None else None
        factors = tuple(map(serialize, rep.factors))
        entries.append(ChainEntry(expression, factors, summary.a1, summary.a2, summary.epsilon))
    if refusal is not None:
        raise refusal
    if not entries:
        raise InconsistentInput("certificate needs at least one class")
    entries.sort(key=_chain_sort_key)
    links = []
    for pos in range(len(entries) - 1):
        result = _compare_summaries(entries[pos], entries[pos + 1])
        if not result.proved:
            pair = (entries[pos].label(pos), entries[pos + 1].label(pos + 1))
            raise NotAChain(f"{pair[0]} does not dominate {pair[1]}: {result.reason}", pair)
        assert result.criterion is not None
        links.append(ChainLink(pos, pos + 1, result.criterion))
    return Certificate(tuple(entries), tuple(links))


def _entry_class(i: int, entry: ChainEntry, version: int) -> CfkComplex | _Product:
    """Entry i's class: its one factor or a view of their product, by Kuenneth a knot
    class when each factor is one; on v2 an expression's factors must be its leaves."""
    try:
        factors = [deserialize(text) for text in entry.factors]
    except ParseError as exc:
        raise CertificateError(f"entry {i}: embedded complex does not parse: {exc}") from exc
    _product_size(factors)  # the view's refusal, before any factor is checked
    for c in factors:
        _analysis(c)  # the analysis checks the class and marks it, building no slice
    if version == 2 and entry.expression is not None:
        refusal = f"entry {i}: factors are not the leaves of {entry.expression}"
        try:
            leaves = _signed_leaves(parse(entry.expression))
        except InputError as exc:  # no class the tool builds
            raise CertificateError(f"{refusal}: {exc}") from exc
        if tuple(factors) != leaves:
            raise CertificateError(refusal)
    return factors[0] if len(factors) == 1 else _Product(tuple(factors))


def recheck_certificate(cert: Certificate) -> bool:
    """Check each entry's factors are knot-like (on v2, the leaves of its expression
    if any) and recompute every stated invariant and link; raises CertificateError."""
    if not cert.entries:
        raise CertificateError("certificate has no chain entries")
    summaries = []
    for i, entry in enumerate(cert.entries):
        try:  # the analysis checks the class of each factor first
            summary = _summarize(_entry_class(i, entry, cert.version))
        except (RankNotOne, InconsistentInput) as exc:
            raise CertificateError(f"entry {i}: not a knot-like complex: {exc}") from exc
        except UnsupportedExpression as exc:  # a product over MAX_GENERATORS
            raise CertificateError(f"entry {i}: {exc}") from exc
        except MathError as exc:
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
# cable rule


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
