"""Concordance invariants tau, epsilon, a1, a2 computed from region complexes.

All four invariants are read off from homology of region complexes of a
knot-like complex (column homology of rank one):

* tau is the minimal top Alexander grading over representatives of the
  vertical homology class.
* epsilon compares that class against hook-shaped regions through the maps
  F (quotient then include into a full hook) and G (project a G-hook onto
  the column); exactly one of four outcomes survives.
* a1 is the least hook width that kills the class, a2 the least tail depth
  that revives it; both require epsilon = +1 and are read off regions of
  doubling size.

epsilon_oracle recomputes epsilon by an independent second route inside the
row j = tau and must always agree with epsilon.

The class lies in one Maslov degree d (0 for every class the tool builds),
and each test needs only cycles in degree d and boundaries from degree d + 1,
so every region is built as its degree-d slice.  The analysis reads a checked
class, which carries d (see CfkComplex), or a product view of checked classes
(regions._Product), which carries the sum of theirs.  On any other complex the
knot-class check of validate runs first, without the reduce behind validate's
symmetry warning, and its first error is raised (RankNotOne for a rank, else
InconsistentInput).  The command line's complex files, certificate recheck and
the doubled trefoil screen rely on it, as the region slices rely on its laws.

The four invariants share one analysis of the most recent complex
(_Analysis): it builds every region slice they read and finds the class,
epsilon, a1 and a2 once each.  An earlier complex is dropped as soon as
another one is analysed.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Iterator, NamedTuple

from .cfk import CfkComplex, _class_errors, dual, reduce
from .errors import (
    EpsilonNotOne,
    InconsistentInput,
    InternalInconsistency,
    MathError,
    RankNotOne,
    SearchExhausted,
    TooShort,
    UnsupportedExpression,
)
from .gf2 import Gf2Space
from .knots import Torus, class_complex
from .laurent import StaircaseExponents
from .regions import (
    Column0,
    FullHook,
    GHook,
    HookWithTail,
    Row,
    TruncatedHook,
    _index,
    _Product,
    homology_data,
    region_complex,
)

__all__ = [
    "tau",
    "f_map_trivial",
    "g_map_trivial",
    "epsilon",
    "epsilon_oracle",
    "a1",
    "a2",
    "staircase_a_invariants",
    "WhiteheadModelReport",
    "check_whitehead_model",
    "WHITEHEAD_RANK_TABLE",
]


class _Analysis:
    """What the invariants read off one complex c.

    Construction checks the class and reads its index, building no slice.
    tau, read before the others, finds the vertical class of the column in the
    degree d a checked class carries; build is the module's one region build.
    """

    def __init__(self, c: CfkComplex):
        if c._class_degree is None and (errors := _class_errors(c)):
            kind, message = errors[0]
            raise (RankNotOne if kind.endswith("-rank") else InconsistentInput)(message)
        self.c, self.degree = c, c._class_degree
        self.alexander, self.search_bound = _index(c).alexander, _index(c).span

    @functools.cached_property
    def tau(self) -> int:
        rc = self.build(Column0())
        cycles, space = homology_data(rc)
        z0 = next(k for k in cycles if k not in space)
        # reducing against the boundary space minimizes the top element, and
        # elements are sorted by Alexander grading, so the top bit realizes tau
        zmin = space.reduce(z0)
        self.column, self.boundary_space, self.vclass_mask = rc, space, zmin
        self.class_gens = rc.chain_elements(zmin)  # generator indices, or a view's keys
        return self.alexander[self.class_gens[-1]]

    def build(self, region):
        """The degree-d slice of region."""
        return region_complex(self.c, region, self.degree)

    def image(self, rc, level: int) -> int:
        """The class with j < level dropped, as a chain of rc (i = 0 part)."""
        return rc.chain(k for k in self.class_gens if self.alexander[k] >= level)

    def dies(self, region, level: int) -> bool:
        """Whether the class, j < level dropped, is a boundary in region."""
        rc = self.build(region)
        return self.image(rc, level) in Gf2Space(rc.above)

    def g_trivial(self, s: int) -> bool:
        """Whether no cycle of GHook(s) projects onto a non-boundary of the column."""
        gh = self.build(GHook(s))
        # The G-hook elements on the column (A <= s) come first and are the
        # column's first elements, in generator order, so bit k names the same
        # generator in both: dropping i < 0 from a G-hook chain is a mask.
        on_column = (1 << gh.u_power.count(0)) - 1
        for cyc in homology_data(gh).cycle_basis:
            mask = cyc & on_column
            assert self.column.differential(mask) == 0
            if mask not in self.boundary_space:
                return False
        return True

    @functools.cached_property
    def epsilon(self) -> int:
        f, g = self.dies(FullHook(self.tau), self.tau), self.g_trivial(self.tau)
        if f and g:
            raise InternalInconsistency("F and G both trivial at tau")
        return 1 if f else -1 if g else 0

    @functools.cached_property
    def a1(self) -> int:
        """a1 by regions of doubling width.

        Arrows never raise i, so the elements of width <= s in
        TruncatedHook(t, w) are the subcomplex TruncatedHook(t, s): the class
        dies at width s exactly when it lies in the span of their boundary
        columns.  One region answers every width up to its own, one layer
        (``-above_u_power``) at a time.
        """
        t = self.tau
        # layer 0 of every region below is this ray, so no width found is 0
        if self.dies(TruncatedHook(t, 0), t):
            raise InternalInconsistency("class already dies in the bare column ray")
        for size in _region_sizes(self.search_bound):
            rc = self.build(TruncatedHook(t, size))
            point = self.image(rc, t)
            layers: dict[int, list[int]] = {}
            for u, column in zip(rc.above_u_power, rc.above):
                layers.setdefault(-u, []).append(column)
            boundaries = Gf2Space()
            for width in sorted(layers):
                for column in layers[width]:
                    boundaries.add(column)
                if point in boundaries:
                    return width
        raise SearchExhausted("no hook width killed the class despite epsilon = +1")

    @functools.cached_property
    def a2(self) -> int | None:
        """a2 by regions of doubling tail depth.

        The tail points deeper than e form a subcomplex of HookWithTail(t, a1,
        d), and the quotient by it is HookWithTail(t, a1, e): the class is
        alive at depth e exactly when it is not in B + span(tail points deeper
        than e).  Those points have the lowest Alexander gradings, hence the
        lowest bits, and reducing against B minimizes the top bit, so the top
        element of the residual is the shallowest tail point the class cannot
        shed: its depth is a2.
        """
        t, width = self.tau, self.a1
        for size in _region_sizes(self.search_bound):
            rc = self.build(HookWithTail(t, width, size))
            residual = Gf2Space(rc.above).reduce(self.image(rc, t))
            if residual:
                top = rc.gen_index[residual.bit_length() - 1]
                depth = t - width - self.alexander[top]
                if depth < 1:
                    raise InternalInconsistency("class survives in the hook of width a1")
                return depth
        return None


@functools.lru_cache(maxsize=1)
def _analysis(c: CfkComplex) -> _Analysis:
    """The analysis of the most recent complex; earlier ones are dropped."""
    return _Analysis(c)


def tau(c: CfkComplex) -> int:
    """Least s admitting a Column0 cycle supported in j <= s that is not a
    boundary; raises RankNotOne on complexes without rank-one column
    homology."""
    return _analysis(c).tau


def f_map_trivial(c: CfkComplex, s: int) -> bool:
    """Whether the class dies in the full hook at level s (quotient the
    column by j < s, then include)."""
    tau(c)  # the class comes first
    return _analysis(c).dies(FullHook(s), s)


def g_map_trivial(c: CfkComplex, s: int) -> bool:
    """Whether no cycle of the G-hook at level s projects onto a
    non-boundary of the column (drop elements with i < 0)."""
    tau(c)  # the class comes first
    return _analysis(c).g_trivial(s)


def epsilon(c: CfkComplex) -> int:
    """+1 when F is trivial at tau, -1 when G is, 0 when neither.

    Both trivial is impossible for consistent inputs and raises
    InternalInconsistency.
    """
    tau(c)  # the class at tau comes first, and its cost is tau's
    return _analysis(c).epsilon


def epsilon_oracle(c: CfkComplex) -> int:
    """Independent recomputation of epsilon inside the row j = tau.

    The image of the vertical class in the row is an affine space: the
    canonical representative plus the image of every column boundary
    supported in j <= tau.  epsilon is +1 when that space meets the image
    of the row differential, 0 when it meets only the kernel, and -1 when
    it misses the kernel entirely.

    The differential only moves leftward, so row elements strictly left of
    the column (positive U power) can neither hit nor obstruct a class
    supported on the column; they are quotiented out of both membership
    tests.
    """
    col = _analysis(c)
    t = col.tau
    row = col.build(Row(t))
    column, alexander = col.column, col.alexander

    # column elements are in generator order, hence sorted by A
    cutoff = sum(1 for k in column.gen_index if alexander[k] <= t)
    low_boundaries = [v for v in col.boundary_space.pivot_vectors() if v.bit_length() <= cutoff]

    def phi(mask: int) -> int:
        return row.chain(k for k in column.chain_elements(mask) if alexander[k] == t)

    data = homology_data(row)
    # the ambiguity of the class, and the row elements left of the column
    quotient = [phi(b) for b in low_boundaries]
    quotient += [1 << p for p, u in enumerate(row.u_power) if u > 0]
    image_side = Gf2Space(itertools.chain(data.boundary_space.pivot_vectors(), quotient))
    kernel_side = Gf2Space(itertools.chain(data.cycle_basis, quotient))
    point = phi(col.vclass_mask)
    if point in image_side:
        return 1
    if point in kernel_side:
        return 0
    return -1


def _region_sizes(bound: int) -> Iterator[int]:
    """Region sizes 1, 2, 4, ... capped at bound, ending with bound itself.

    A truncated hook of width w holds only the generators with A >= tau - w,
    and a slice costs its own elements and arrows, so small answers cost
    small regions, where one region at the bound holds the whole slice.
    """
    size = 1
    while size < bound:
        yield size
        size *= 2
    yield bound


def a1(c: CfkComplex) -> int:
    """Least hook width s >= 1 at which the class dies in the truncated
    hook; defined only when epsilon(c) = +1."""
    if (e := epsilon(c)) != 1:
        raise EpsilonNotOne(f"epsilon is {e}, not +1")
    return _analysis(c).a1


def a2(c: CfkComplex) -> int | None:
    """Least tail depth s >= 1 at which the class comes back to life in the
    hook-with-tail; None when no depth up to the search bound does."""
    a1(c)  # raises EpsilonNotOne unless epsilon(c) = +1
    return _analysis(c).a2


def staircase_a_invariants(exps: StaircaseExponents) -> tuple[int, int]:
    """Closed forms on a staircase: a1 = n0 - n1 and a2 = n1 - n2.

    Raises TooShort on the one-term staircase (no steps, epsilon = 0).
    """
    if exps.steps == 0:
        raise TooShort("staircase has no steps")
    n = exps.exponents
    return (n[0] - n[1], n[1] - n[2])


# ---------------------------------------------------------------------------
# doubled trefoil model check


WHITEHEAD_RANK_TABLE: dict[tuple[int, int], int] = {
    (1, 0): 2,
    (1, -1): 2,
    (0, -1): 3,
    (0, -2): 4,
    (-1, -2): 2,
    (-1, -3): 2,
}


class WhiteheadModelReport(NamedTuple):
    """Whether a candidate behaves like the doubled trefoil class."""

    table_ok: bool
    local_invariants_ok: bool
    class_matches_trefoil: bool
    table: dict[tuple[int, int], int]

    @property
    def passed(self) -> bool:
        return self.table_ok and self.local_invariants_ok and self.class_matches_trefoil

    def __str__(self) -> str:
        flag = {True: "ok", False: "FAIL"}
        return "\n".join(
            [
                f"rank table: {flag[self.table_ok]}",
                f"tau=1 and epsilon=1: {flag[self.local_invariants_ok]}",
                f"class agrees with the trefoil: {flag[self.class_matches_trefoil]}",
                f"model check: {'PASS' if self.passed else 'FAIL'}",
            ]
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "table_ok": self.table_ok,
                "local_invariants_ok": self.local_invariants_ok,
                "class_matches_trefoil": self.class_matches_trefoil,
                "passed": self.passed,
                "table": {f"{a},{m}": r for (a, m), r in sorted(self.table.items())},
            },
            indent=2,
        )


def check_whitehead_model(c: CfkComplex) -> WhiteheadModelReport:
    """Three-part screen for doubled-trefoil candidates; reports, never raises.

    (a) the reduced rank table matches the reference table, (b) tau = 1 and
    epsilon = +1, (c) tensoring with the mirrored trefoil staircase gives
    epsilon 0, i.e. the candidate and the trefoil share a concordance class.
    A candidate that validate() rejects fails all three with an empty table.
    """
    try:
        local_ok = tau(c) == 1 and epsilon(c) == 1
    except InconsistentInput:  # the analysis's grading or d^2 error, as validate refuses it
        return WhiteheadModelReport(False, False, False, {})
    except MathError:
        local_ok = False
    reduced = reduce(c)  # once, for the table and the product
    table = reduced.grading_table()
    table_ok = table == WHITEHEAD_RANK_TABLE
    try:  # a view of the reduced candidate: sized as tensor sizes it, refused unmarked
        class_ok = epsilon(_Product((dual(class_complex(Torus(2, 3)).complex), reduced))) == 0
    except (MathError, InconsistentInput, UnsupportedExpression):  # or over MAX_GENERATORS
        class_ok = False
    return WhiteheadModelReport(table_ok, local_ok, class_ok, table)
