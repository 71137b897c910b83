"""Command-line front end.

Subcommands: invariants, cmp, dominates, independence, alexander, show,
validate, tau-cable.  Exit codes separate outcomes for scripting: 0 for
success, 1 for a mathematically negative result (a failed chain, an
invalid complex, an unproved domination), 2 for bad input (parse errors,
unsupported expressions, inconsistent parameters).

All output is deterministic: identical invocations give byte-identical
stdout and artifacts.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys

from .cfk import CfkComplex, deserialize, validate
from .concordance import (
    Certificate,
    cable_tau,
    class_cmp,
    dominance_evidence,
    dominates_by_invariants,
    independence_certificate,
    recheck_certificate,
)
from .errors import InconsistentInput, InputError, MathError
from .invariants import a1, a2, epsilon, tau
from .knots import alexander, class_complex, parse

__all__ = ["main", "build_parser"]


EPSILON_TEXT = {1: "+1", 0: "0", -1: "-1"}


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InconsistentInput(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InconsistentInput(f"cannot read {path}: not UTF-8 text ({exc.reason})") from exc


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InconsistentInput(f"cannot write {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# subcommands
#
# Each returns its exit code, its --json payload (a dict, or JSON text the
# library already rendered) and its text lines; main alone prints them.

_Output = tuple[int, dict[str, object] | str | None, list[str]]


def _cmd_invariants(args: argparse.Namespace) -> _Output:
    if os.path.isfile(args.source):  # a complex file on disk, else an expression
        kind, label, c = "file", args.source, deserialize(_read_file(args.source))
    else:
        expr = parse(args.source)
        kind, label, c = "expression", str(expr), class_complex(expr).complex
    try:  # first: it checks a file's class, and rejects the empty complex, which has no grading
        t = tau(c)
    except InconsistentInput as exc:
        raise InconsistentInput(f"{label}: {exc}") from exc
    e = epsilon(c)
    a1_value = a2_value = None
    a1_reason = a2_reason = None
    if e == 1:
        a1_value = a1(c)
        a2_value = a2(c)
        if a2_value is None:
            a2_reason = "no tail depth within the search bound revives the class"
    else:
        a1_reason = a2_reason = "defined only when epsilon is +1"
    payload: dict[str, object] = {
        "kind": kind,
        "source": label,
        "generators": len(c),
        "max_alexander": c.alexander[-1],  # the columns ascend in A
        "tau": t,
        "epsilon": e,
        "a1": a1_value,
        "a2": a2_value,
    }
    if a1_reason is not None:
        payload["a1_reason"] = a1_reason
    if a2_reason is not None:
        payload["a2_reason"] = a2_reason
    return 0, payload, [
        f"{kind}: {label}",
        f"generators: {len(c)}",
        f"max alexander grading: {c.alexander[-1]}",
        f"tau: {t}",
        f"epsilon: {EPSILON_TEXT[e]}",
        f"a1: {a1_value}" if a1_value is not None else f"a1: n/a ({a1_reason})",
        f"a2: {a2_value}" if a2_value is not None else f"a2: n/a ({a2_reason})",
    ]


def _cmd_cmp(args: argparse.Namespace) -> _Output:
    left = class_complex(parse(args.left))
    right = class_complex(parse(args.right))
    order = class_cmp(left, right)
    payload = {"left": str(left), "right": str(right), "order": order.value}
    return 0, payload, [f"{left} {order.value} {right}"]


def _cmd_dominates(args: argparse.Namespace) -> _Output:
    above = class_complex(parse(args.above))
    below = class_complex(parse(args.below))
    result = dominates_by_invariants(above, below)
    payload: dict[str, object] = {
        "above": str(above),
        "below": str(below),
        "proved": result.proved,
        "criterion": result.criterion,
        "reason": result.reason,
    }
    verdict = f"proved ({result.criterion})" if result.proved else "not proved"
    lines = [f"{above} dominates {below}: {verdict}", f"  reason: {result.reason}"]
    if args.evidence is not None:
        evidence = dominance_evidence(above, below, args.evidence)
        payload["evidence"] = {"consistent": evidence.consistent, "checked": evidence.checked}
        lines.append(f"  evidence: {evidence}")
    return (0 if result.proved else 1), payload, lines


def _cmd_independence(args: argparse.Namespace) -> _Output:
    if isinstance(args.recheck, str):
        if args.exprs:
            raise InconsistentInput(
                "give either expressions to certify or --recheck FILE, not both"
            )
        cert = Certificate.from_json(_read_file(args.recheck))
    elif args.exprs:
        cert = independence_certificate(class_complex(parse(text)) for text in args.exprs)
    else:
        raise InconsistentInput("no expressions given")
    doc = cert.to_json()
    if args.recheck:  # before str(cert), which indexes the entries by the links
        recheck_certificate(Certificate.from_json(doc))
    lines = [str(cert)] + (["recheck: ok"] if args.recheck else [])
    if args.out is not None:
        _write_file(args.out, doc + "\n")
        lines.append(f"saved: {args.out}")
    return 0, doc, lines


def _cmd_alexander(args: argparse.Namespace) -> _Output:
    expr = parse(args.expr)
    poly = alexander(expr)
    return 0, {"expression": str(expr), "alexander": str(poly)}, [str(poly)]


def _cmd_show(args: argparse.Namespace) -> _Output:
    c = class_complex(parse(args.expr)).complex
    draw = _svg_diagram if args.format == "svg" else _ascii_diagram
    text = draw(*_diagram_geometry(c))
    if args.out is None:
        return 0, None, [text]
    _write_file(args.out, text + "\n")
    return 0, None, [f"saved: {args.out}"]


def _cmd_validate(args: argparse.Namespace) -> _Output:
    report = validate(deserialize(_read_file(args.file)), knot_class=args.knot_class)
    return (0 if report.ok else 1), report.to_json(), [str(report)]


def _cmd_tau_cable(args: argparse.Namespace) -> _Output:
    value = cable_tau(args.tau, args.epsilon, args.p, args.q)
    payload = dict(p=args.p, q=args.q, tau=args.tau, epsilon=args.epsilon, cable_tau=value)
    return 0, payload, [str(value)]


# ---------------------------------------------------------------------------
# staircase diagrams


def _layout_offsets(c: CfkComplex) -> list[int]:
    """U-power offset per generator index making every arrow axis-aligned.

    Breadth-first over the arrow graph.  A class complex is built from
    staircases by tensor products and duals, so every arrow is horizontal
    (u > 0, no Alexander drop) or vertical (u = 0), and offsets add under
    tensor products: they agree around every cycle.
    """
    adjacency: list[list[tuple[int, int]]] = [[] for _ in c.names]
    for s, t, u in c.triples:
        adjacency[s].append((t, u))
        adjacency[t].append((s, -u))
    offsets: list = [None] * len(adjacency)
    for start in range(len(adjacency)):
        if offsets[start] is None:
            offsets[start] = 0
            queue = collections.deque([start])
            while queue:
                x = queue.popleft()
                for y, delta in adjacency[x]:
                    if offsets[y] is None:
                        offsets[y] = offsets[x] + delta
                        queue.append(y)
    return offsets


def _diagram_geometry(
    c: CfkComplex,
) -> tuple[
    list[tuple[int, int]],
    list[tuple[int, int, int]],
    list[tuple[int, int, int]],
]:
    """Dots plus horizontal (i1, i2, j) and vertical (i, j1, j2) segments,
    shifted so both coordinates start at 0."""
    pos = [(-k, a - k) for a, k in zip(c.alexander, _layout_offsets(c))]
    di = min(i for i, _ in pos)
    dj = min(j for _, j in pos)
    pos = [(i - di, j - dj) for i, j in pos]
    dots = sorted(set(pos))
    hsegs = []
    vsegs = []
    for s, t, u in c.triples:
        (i1, j1), (i2, j2) = pos[s], pos[t]
        assert (i1 == i2) != (j1 == j2), f"arrow {(s, t, u)} is not axis-aligned"
        if j1 == j2:
            hsegs.append((min(i1, i2), max(i1, i2), j1))
        else:
            vsegs.append((i1, min(j1, j2), max(j1, j2)))
    return dots, sorted(set(hsegs)), sorted(set(vsegs))


# the ASCII grid is quadratic in the Alexander span; SVG output is linear in it
ASCII_MAX_CELLS = 4_000_000


def _ascii_diagram(dots, hsegs, vsegs) -> str:
    """Character plot, 4 columns by 2 rows per lattice unit, j upward."""
    sx, sy = 4, 2
    imax = max(i for i, _ in dots)
    jmax = max(j for _, j in dots)
    width, height = imax * sx + 1, jmax * sy + 1
    if width * height > ASCII_MAX_CELLS:
        raise InputError(
            f"an ASCII diagram of {width} x {height} characters is over the limit of "
            f"{ASCII_MAX_CELLS} characters; use --format svg"
        )
    grid = [[" "] * width for _ in range(height)]

    def put(row: int, col: int, ch: str) -> None:
        if grid[row][col] not in (" ", ch):  # a crossing, new or already drawn
            ch = "+"
        grid[row][col] = ch

    for i1, i2, j in hsegs:
        row = (jmax - j) * sy
        for col in range(i1 * sx + 1, i2 * sx):
            put(row, col, "-")
    for i, j1, j2 in vsegs:
        col = i * sx
        for row in range((jmax - j2) * sy + 1, (jmax - j1) * sy):
            put(row, col, "|")
    for i, j in dots:
        grid[(jmax - j) * sy][i * sx] = "o"
    return "\n".join("".join(row).rstrip() for row in grid)


SVG_PITCH = 24
SVG_MARGIN = 12


def _svg_diagram(dots, hsegs, vsegs) -> str:
    """Fixed-pitch lattice rendering; coordinates grow up and to the right."""
    imax = max(i for i, _ in dots)
    jmax = max(j for _, j in dots)
    width = imax * SVG_PITCH + 2 * SVG_MARGIN
    height = jmax * SVG_PITCH + 2 * SVG_MARGIN

    def x(i: int) -> int:
        return SVG_MARGIN + i * SVG_PITCH

    def y(j: int) -> int:
        return SVG_MARGIN + (jmax - j) * SVG_PITCH

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for i1, i2, j in hsegs:
        lines.append(
            f'<line x1="{x(i1)}" y1="{y(j)}" x2="{x(i2)}" y2="{y(j)}" '
            'stroke="black" stroke-width="2"/>'
        )
    for i, j1, j2 in vsegs:
        lines.append(
            f'<line x1="{x(i)}" y1="{y(j1)}" x2="{x(i)}" y2="{y(j2)}" '
            'stroke="black" stroke-width="2"/>'
        )
    for i, j in dots:
        lines.append(f'<circle cx="{x(i)}" cy="{y(j)}" r="4" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cfkcalc",
        description="Exact concordance-order calculator for bifiltered knot complexes.",
        epilog='mirror expressions start with "-"; separate them from options'
        ' with "--", as in: cfkcalc invariants -- "-T(2,3)"',
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants", help="report tau, epsilon, a1, a2 for an expression or complex file"
    )
    p.add_argument("source", help="knot expression, or path to a cfk v1 file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("cmp", help="compare two classes in the total order")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cmp)

    p = sub.add_parser(
        "dominates", help="try to prove the first class dominates the second"
    )
    p.add_argument("above")
    p.add_argument("below")
    p.add_argument(
        "--evidence",
        type=int,
        metavar="N",
        help="also test the difference against multiples up to N",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dominates)

    p = sub.add_parser(
        "independence", help="build or recheck an independence certificate"
    )
    p.add_argument("exprs", nargs="*", metavar="EXPR")
    p.add_argument(
        "--recheck",
        nargs="?",
        const=True,
        metavar="FILE",
        help="recheck the built certificate, or a saved certificate FILE",
    )
    p.add_argument("--out", metavar="FILE", help="save the certificate JSON")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_independence)

    p = sub.add_parser("alexander", help="Alexander polynomial of an expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("show", help="draw the class complex as a lattice diagram")
    p.add_argument("expr")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--out", metavar="FILE", help="write the diagram to a file")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("validate", help="check a cfk v1 file for consistency")
    p.add_argument("file")
    p.add_argument(
        "--knot-class",
        action="store_true",
        help="also require rank-one column and row homology",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("tau-cable", help="tau of a cable from tau and epsilon")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--epsilon", type=int, required=True, choices=[-1, 0, 1])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_tau_cable)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
    except (InputError, MathError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    if getattr(args, "json", False):  # show has no --json
        print(payload if isinstance(payload, str) else json.dumps(payload, indent=2))
    else:
        print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
