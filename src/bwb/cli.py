"""Command-line frontend.

Subcommands
-----------
``bott``     cohomology of one twisted form or Schur-labelled bundle, with an
             optional reflection-walk trace in the weighted-diagram style.
``hodge``    middle Hodge row of a (multi-)section of a catalog space.
``moduli``   deformation counts, optionally through every available route.
``jacring``  weighted-hypersurface Hodge numbers from Jacobian-ring Hilbert
             series, plus the Calabi-Yau-shape scan.
``verify``   recompute every stored reference cell and diff (exit 0 iff the
             mismatches are all documented discrepancies).

Each subcommand prints text, or one of ``--json``, ``--csv`` and
``--markdown``; every format is written by :func:`bwb.report.render`.
Identical invocations produce byte-identical output unless ``--timestamp``
is given.  The environment variable ``BWB_CATALOG`` overrides the catalog
file path.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from datetime import datetime, timezone

from .bott import bott, grassmann_bundle, kostant_forms, spinor_bundle
from .catalog import load_catalog
from .hodge import (
    deformation_moduli,
    linear_section,
    moduli_routes,
    section_hodge,
    section_spec,
)
from .jacring import jacobian_hilbert, steenbrink_hodge, weighted_cy_scan
from .report import render, render_cells, run_verify
from .rootsys import simple_reflection, to_dominant, weyl_dim

_LETTERS = {10: "A", 11: "B"}
_INTEGER = re.compile(r"[+-]?[0-9]+")  # int() also takes "2_0", " 2" and "٢"


def _tok(v: int) -> str:
    return ("-" if v < 0 else "") + _LETTERS.get(abs(v), str(abs(v)))


def _e6_state_lines(coords) -> list[str]:
    """Two-row weighted-diagram rendering: nodes 1,3,4,5,6 over node 2."""
    toks = [_tok(coords[i]) for i in (0, 2, 3, 4, 5)]
    pad = len(toks[0]) + len(toks[1])
    return ["".join(toks), " " * pad + _tok(coords[1])]


def _trace_lines(space, bundle) -> list[str]:
    lines = []
    for fac, w in zip(space.factors, bundle.weights):
        rs = fac.rs
        cur = tuple(a + 1 for a in w)  # lambda + rho
        walk = to_dominant(rs, cur)
        fancy = rs.series == "E" and rs.rank == 6
        if fancy:
            lines.append("E6 weighted diagram: top row nodes 1,3,4,5,6, "
                         "below them node 2; A = ten, B = eleven")
            lines.append("")
            lines.extend(_e6_state_lines(cur))
        else:
            lines.append(f"start {cur}")
        for i in walk.pivots:
            cur = simple_reflection(rs, i, cur)
            if fancy:
                lines.append(f"  | s{i + 1}")
                lines.extend(_e6_state_lines(cur))
            else:
                lines.append(f"  s{i + 1} -> {cur}")
        lines.append("")
        if walk.singular:
            lines.append(f"stopped on a wall after {walk.length} reflections: acyclic")
        else:
            dim = weyl_dim(rs, tuple(c - 1 for c in walk.dominant))
            group = "C" if dim == 1 else f"C^{dim}"
            lines.append(f"dominant after {walk.length} reflections: "
                         f"H^{walk.length} = {group}")
    return lines


def _parse_schur(space, spec: str, twist: int):
    series = [f.rs.series for f in space.factors]
    accepted = {"A": ("Q*", "E"), "D": ("E",)}.get(series[0]) \
        if len(series) == 1 else None
    if accepted is None:
        raise SystemExit(f"--schur labels are not defined for {space.name}")
    blocks = {}
    for part in spec.split(";"):
        name, _, body = part.partition(":")
        name = name.strip()
        if name not in accepted:
            raise SystemExit(f"--schur block {name!r} is not used on {space.name}; "
                             f"accepted: {', '.join(accepted)}")
        if name in blocks:
            raise SystemExit(f"--schur block {name!r} is given twice")
        parts = body.split(",") if "," in body else list(body)
        if not all(map(_INTEGER.fullmatch, parts)):
            raise SystemExit(f"--schur block {name!r} has label {body!r}; use digits "
                             "(21) or comma-separated integers (2,1)")
        blocks[name] = tuple(map(int, parts))
    if series == ["A"]:
        return grassmann_bundle(space, blocks.get("Q*", ()), blocks.get("E", ()),
                                twist)
    return spinor_bundle(space, blocks.get("E", ()), twist)


def _strict_int(text: str) -> int:
    """The type of every integer flag: an optional sign and ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(map(_strict_int, text.split(",")))


def _emit(args, *blocks: str) -> None:
    """Print the rendered blocks that are not empty, after a generation
    timestamp if one was asked; a reader that closes the pipe early
    (``| head``) ends the run with status 1 and no traceback."""
    if args.timestamp:
        now = datetime.now(timezone.utc).isoformat()
        blocks = (json.dumps({"timestamp": now}) if args.fmt == "json"
                  else f"# generated {now}",) + blocks
    try:
        if any(blocks):
            print("\n".join(b for b in blocks if b), flush=True)
    except BrokenPipeError:  # keep the interpreter's final flush off the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


# ------------------------------------------------------------- subcommands

def _cmd_bott(args) -> int:
    if args.trace and args.fmt != "text":
        raise SystemExit(f"bott: --trace prints text only, not --{args.fmt}")
    cat = load_catalog()
    space = cat.space(args.space)
    if args.schur is not None:
        bundles = [_parse_schur(space, args.schur, args.twist)]
    else:
        bundles = [b.twisted(args.twist) for b in kostant_forms(space, args.form)]
    text: list[str] = []
    total: dict[int, int] = {}
    for b in bundles:
        if args.trace:
            text += _trace_lines(space, b) + [""]
        for q, d in bott(b).dims().items():
            total[q] = total.get(q, 0) + d
    rows = sorted(total.items())
    if not rows:
        text.append("acyclic")
    elif len(rows) == 1:
        text.append(f"H^{rows[0][0]}, dim {rows[0][1]}")
    else:
        text += [f"H^{q}: dim {d}" for q, d in rows]
    payload = {"space": space.name, "cohomology": {str(q): d for q, d in rows}}
    _emit(args, render(("q", "dim"), rows, args.fmt, [payload], text))
    return 0


def _spec_from_args(cat, args):
    space = cat.space(args.space)
    if args.linear is not None:
        return linear_section(space, args.linear)
    return section_spec(space, args.cut)


def _cmd_hodge(args) -> int:
    cat = load_catalog()
    spec = _spec_from_args(cat, args)
    row = section_hodge(spec)
    n = row.n
    rows = [(p, n - p, row.entry(p, n - p)) for p in range(n, (n - 1) // 2, -1)]
    cells = " ".join(str(iv) for _, _, iv in rows)
    text = [f"{spec.describe()}: dim {n}",
            f"middle row h^{{{n},0}} .. h^{{{(n + 1) // 2},"
            f"{n - (n + 1) // 2}}}: {cells}"]
    _emit(args, render(("p", "q", "h"), rows, args.fmt,
                       (r.as_json() for r in [row]), text))
    return 0


def _cmd_moduli(args) -> int:
    cat = load_catalog()
    spec = _spec_from_args(cat, args)
    if args.all_routes:
        routes = [(r.route, r.value) for r in moduli_routes(spec)]
        if not routes:
            raise SystemExit(f"{spec.describe()}: no moduli route applies")
        payloads = [{"routes": dict(routes)}]
        values = [v for _, v in routes]
        words = [str(v) for v in values[:1]]  # "=" only between equal neighbours
        for a, b in zip(values, values[1:]):
            words += ["=" if a == b else "!=", str(b)]
        text = [" ".join(words) + "  (" + ", ".join(r for r, _ in routes) + ")"]
    else:
        rep = deformation_moduli(spec, route=args.route)
        routes = [(rep.route, rep.value)]
        payloads = (r.as_json() for r in [rep])
        text = [f"{rep.value}  ({rep.route})"]
    _emit(args, render(("route", "value"), routes, args.fmt, payloads, text))
    return 0


def _cmd_jacring(args) -> int:
    if args.scan:
        if args.at is not None:
            raise SystemExit("jacring: --at needs --weights, not --scan")
        if args.weights is not None or args.degree is not None:
            raise SystemExit("jacring: --scan takes no --weights or --degree")
        rows = weighted_cy_scan(*args.scan)
    elif args.weights is None:
        raise SystemExit("jacring needs --weights or --scan")
    elif args.degree is None:
        raise SystemExit("jacring --weights needs --degree")
    else:
        rows = [steenbrink_hodge(args.weights, args.degree)]
        if args.at is not None:
            _emit(args, str(jacobian_hilbert(args.weights, args.degree, args.at)))
            return 0
    table = [(",".join(map(str, r.weights)), r.degree, r.dim,
              " ".join(map(str, r.entries)), r.moduli) for r in rows]
    text = [f"weights ({ws}) degree {deg} dim {dim}: {mid}  (moduli {mod})"
            for ws, deg, dim, mid, mod in table]
    _emit(args, render(("weights", "degree", "dim", "middle", "moduli"), table,
                       args.fmt, (r.as_json() for r in rows), text))
    return 0


def _cmd_verify(args) -> int:
    cat = load_catalog()
    rep = run_verify(cat, tables=tuple(args.table or ()))
    out = [render_cells(rep.cells, args.fmt)]
    if args.fmt in ("text", "markdown"):
        counts = Counter(c.status for c in rep.cells)
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        out.append(f"\n{len(rep.cells)} cells: {summary}; "
                   f"{len(rep.documented)} documented discrepancies, "
                   f"{len(rep.undocumented)} undocumented")
    _emit(args, *out)
    return rep.exit_code


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="bwb",
        description="exact cohomology of homogeneous bundles and Hodge-number "
                    "chases on their sections")
    sub = top.add_subparsers(dest="command", required=True)

    def fmt_flags(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_const", const="json", dest="fmt",
                         help="JSON-lines output")
        fmt.add_argument("--csv", action="store_const", const="csv", dest="fmt",
                         help="CSV output")
        fmt.add_argument("--markdown", action="store_const", const="markdown",
                         dest="fmt", help="markdown table output")
        p.set_defaults(fmt="text")
        p.add_argument("--timestamp", action="store_true",
                       help="prepend a generation timestamp")

    p = sub.add_parser("bott", help="cohomology of one bundle")
    p.add_argument("--space", required=True)
    bundle = p.add_mutually_exclusive_group(required=True)
    bundle.add_argument("--form", type=_strict_int,
                        help="exterior power p of the cotangent bundle")
    bundle.add_argument("--schur", help='Schur label, e.g. "Q*:1111;E:4"')
    p.add_argument("--twist", type=_strict_int, default=0,
                   help="line-bundle twist k in O(k) (negative = downward)")
    p.add_argument("--trace", action="store_true",
                   help="print the reflection walk (text output only)")
    fmt_flags(p)
    p.set_defaults(func=_cmd_bott)

    for name, fn in (("hodge", _cmd_hodge), ("moduli", _cmd_moduli)):
        p = sub.add_parser(name)
        p.add_argument("--space", required=True)
        cuts = p.add_mutually_exclusive_group(required=True)
        cuts.add_argument("--cut", type=_csv_ints, help="cut degrees, e.g. 2 or 1,1")
        cuts.add_argument("--linear", type=_strict_int, help="number of hyperplane cuts")
        if name == "moduli":
            route = p.add_mutually_exclusive_group()
            route.add_argument("--all-routes", action="store_true", dest="all_routes")
            route.add_argument("--route", choices=("grassmannian", "cohomological"))
        fmt_flags(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("jacring", help="weighted-hypersurface Hodge numbers")
    p.add_argument("--weights", type=_csv_ints, help="weights, e.g. 1,1,1,1,1,1,2")
    p.add_argument("--degree", type=_strict_int)
    p.add_argument("--at", type=_strict_int, help="print one Hilbert coefficient")
    p.add_argument("--scan", type=_strict_int, nargs=3,
                   metavar=("MAXDIM", "MAXWEIGHT", "MAXDEGREE"),
                   help="scan for Calabi-Yau-shaped rows")
    fmt_flags(p)
    p.set_defaults(func=_cmd_jacring)

    p = sub.add_parser("verify", help="recompute all reference cells and diff")
    p.add_argument("--table", action="append", metavar="ID",
                   help="restrict to the table with this id, as verify "
                        "prints it (repeatable)")
    fmt_flags(p)
    p.set_defaults(func=_cmd_verify)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        raise SystemExit(exc.args[0] if exc.args else str(exc)) from None
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
