"""Value semantics of the library's record types.

Records are NamedTuples, the immutable Value classes of cfkcalc._value, or
the slotted Generator.  Whatever the kind, each keeps what a frozen
dataclass gave: equality and hashing by fields, refused assignment, pickle
and copy round trips, and the keyword-style repr.  Importing the package
loads neither dataclasses nor inspect.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import cfkcalc
from cfkcalc import (
    Arrow,
    Cable,
    Certificate,
    ChainEntry,
    ChainLink,
    ClassRep,
    Column0,
    DominanceEvidence,
    DominationResult,
    FullHook,
    Generator,
    GHook,
    HookWithTail,
    Mirror,
    Row,
    StaircaseExponents,
    Sum,
    Torus,
    TruncatedHook,
    Unknot,
    ValidationReport,
    Violation,
    WhiteheadDoubleTrefoil,
    WhiteheadModelReport,
    class_complex,
    homology_data,
    parse,
    region_complex,
)
from cfkcalc.concordance import _Summary
from cfkcalc.knots import _Token

TREFOIL = class_complex(parse("T(2,3)"))

# one instance of every record type, with its repr as a frozen dataclass printed it
RECORDS = [
    (Generator("x0", 0, 0), "Generator(name='x0', alexander=0, maslov=0)"),
    (Arrow("x1", "x0", 1), "Arrow(source='x1', target='x0', u_exp=1)"),
    (Violation("d-squared", "m"), "Violation(kind='d-squared', message='m')"),
    (
        ValidationReport((Violation("a", "b"),), ()),
        "ValidationReport(errors=(Violation(kind='a', message='b'),), warnings=())",
    ),
    (Column0(), "Column0()"),
    (FullHook(0), "FullHook(level=0)"),
    (GHook(-1), "GHook(level=-1)"),
    (TruncatedHook(1, 2), "TruncatedHook(level=1, width=2)"),
    (HookWithTail(1, 2, 3), "HookWithTail(level=1, width=2, depth=3)"),
    (Row(2), "Row(level=2)"),
    (StaircaseExponents([2, 1, 0]), "StaircaseExponents(exponents=(2, 1, 0))"),
    (Unknot(), "Unknot()"),
    (WhiteheadDoubleTrefoil(), "WhiteheadDoubleTrefoil()"),
    (Torus(2, 3), "Torus(p=2, q=3)"),
    (Cable(Torus(2, 3), 2, 5), "Cable(inner=Torus(p=2, q=3), p=2, q=5)"),
    (
        Sum(Unknot(), Mirror(Torus(2, 5))),
        "Sum(left=Unknot(), right=Mirror(inner=Torus(p=2, q=5)))",
    ),
    (
        TREFOIL,
        "ClassRep(complex=CfkComplex(3 generators, 2 arrows), provenance=Torus(p=2, q=3))",
    ),
    (
        DominationResult(True, "smaller-a1", "r"),
        "DominationResult(proved=True, criterion='smaller-a1', reason='r')",
    ),
    (DominanceEvidence(True, 2), "DominanceEvidence(consistent=True, checked=2)"),
    (
        ChainEntry(None, "cfk v1\n", 1, None, 1),
        "ChainEntry(expression=None, complex_text='cfk v1\\n', a1=1, a2=None, epsilon=1)",
    ),
    (ChainLink(0, 1, "larger-a2"), "ChainLink(above=0, below=1, criterion='larger-a2')"),
    (
        Certificate((), (ChainLink(0, 1, "c"),)),
        "Certificate(entries=(), links=(ChainLink(above=0, below=1, criterion='c'),))",
    ),
    (
        WhiteheadModelReport(True, False, True, {(1, 0): 2}),
        "WhiteheadModelReport(table_ok=True, local_invariants_ok=False, "
        "class_matches_trefoil=True, table={(1, 0): 2})",
    ),
    (_Token("int", "3", 4), "_Token(kind='int', text='3', column=4)"),
    (_Summary(1, 1, None), "_Summary(epsilon=1, a1=1, a2=None)"),
]


def _first_field(value) -> str:
    fields = getattr(value, "_fields", None) or type(value).__slots__
    return fields[0] if fields else "anything"


@pytest.mark.parametrize("value, text", RECORDS, ids=lambda v: type(v).__name__)
def test_records_keep_their_value_semantics(value, text):
    twin = copy.deepcopy(value)
    assert twin == value and not (twin != value)
    if not isinstance(value, WhiteheadModelReport):  # a dict field: unhashable, as before
        assert hash(twin) == hash(value)
    assert repr(value) == text
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(AttributeError):
        setattr(value, _first_field(value), None)


def test_homology_data_round_trips():
    data = homology_data(region_complex(TREFOIL.complex, Column0(), 0))
    assert copy.copy(data) == data
    restored = pickle.loads(pickle.dumps(data))
    assert restored.cycle_basis == data.cycle_basis
    assert type(restored.boundary_space) is type(data.boundary_space)
    with pytest.raises(AttributeError):
        data.cycle_basis = ()


def test_value_records_refuse_deletion_and_unknown_fields():
    t = Torus(2, 3)
    with pytest.raises(AttributeError):
        del t.p
    with pytest.raises(AttributeError):
        t.r = 1
    with pytest.raises(AttributeError):
        Generator("x0", 0, 0).alexander = 1
    assert (t.p, t.q) == (2, 3)


def test_value_constructors_take_fields_by_position_or_name():
    assert Torus(q=3, p=2) == Torus(2, 3)
    assert HookWithTail(1, depth=3, width=2) == HookWithTail(1, 2, 3)
    assert ClassRep(TREFOIL.complex).provenance is None
    for args, kwargs in [((2,), {}), ((2, 3, 4), {}), ((2, 3), {"p": 1}), ((2,), {"r": 3})]:
        with pytest.raises(TypeError):
            Torus(*args, **kwargs)
    with pytest.raises(cfkcalc.NotCoprime):  # __post_init__ still validates
        Torus(2, 4)


def test_equal_fields_stay_unequal_across_classes():
    assert Unknot() != WhiteheadDoubleTrefoil()
    for a, b in combinations([FullHook(0), GHook(0), Row(0)], 2):
        assert a != b and b != a
    assert TruncatedHook(1, 2) != HookWithTail(1, 2, 0)
    assert len({Unknot(), WhiteheadDoubleTrefoil(), FullHook(0), GHook(0), Row(0)}) == 5


def test_arrows_sort_by_source_target_then_power():
    arrows = [Arrow("b", "a", 2), Arrow("a", "b", 3), Arrow("a", "b", 1), Arrow("a", "a", 9)]
    want = sorted(arrows, key=lambda a: (a.source, a.target, a.u_exp))
    assert sorted(arrows) == want == [arrows[3], arrows[2], arrows[1], arrows[0]]


def test_validation_report_json_is_unchanged():
    report = ValidationReport(
        (Violation("d-squared", "d^2 x1 = x0"),),
        (Violation("symmetry", "table not symmetric"), Violation("maslov", 'x "quoted"')),
    )
    assert report.to_json() == (
        '{\n  "ok": false,\n  "errors": [\n    {\n      "kind": "d-squared",\n'
        '      "message": "d^2 x1 = x0"\n    }\n  ],\n  "warnings": [\n    {\n'
        '      "kind": "symmetry",\n      "message": "table not symmetric"\n    },\n'
        '    {\n      "kind": "maslov",\n      "message": "x \\"quoted\\""\n    }\n  ]\n}'
    )


def test_certificate_json_is_unchanged():
    cert = Certificate(
        (
            ChainEntry("T(2,5)", "cfk v1\ngen x0 A=1 M=0\n", 1, 2, 1),
            ChainEntry(None, "cfk v1\n", 1, None, 1),
        ),
        (ChainLink(0, 1, "larger-a2"),),
    )
    assert cert.to_json() == (
        '{\n  "format": "cfk-independence-certificate v1",\n  "chain": [\n    {\n'
        '      "expression": "T(2,5)",\n      "complex": "cfk v1\\ngen x0 A=1 M=0\\n",\n'
        '      "a1": 1,\n      "a2": 2,\n      "epsilon": 1\n    },\n    {\n'
        '      "expression": null,\n      "complex": "cfk v1\\n",\n      "a1": 1,\n'
        '      "a2": null,\n      "epsilon": 1\n    }\n  ],\n  "links": [\n    {\n'
        '      "above": 0,\n      "below": 1,\n      "criterion": "larger-a2"\n    }\n  ]\n}'
    )
    assert Certificate.from_json(cert.to_json()) == cert


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages hooks out, so the modules seen are the package's own
    src = str(Path(cfkcalc.__file__).resolve().parent.parent)
    code = "import sys, cfkcalc; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
