"""Reference-table verification.

Every numeric value stored in the catalog's reference tables is recomputed
from scratch by the engine and reported as a :class:`ReportCell`.  Cells are
keyed by (table, row, column); the verdict is ``match``/``mismatch`` for
exact values, ``indeterminate`` when the engine only produces an interval,
and ``fixture-absent`` for quantities the suite computes but the catalog does
not store.  Mismatches listed in the catalog's documented-discrepancy block
are still reported as mismatches, but flagged, and do not fail the run.
"""

from __future__ import annotations

from collections import namedtuple

from .catalog import Catalog, HomogSpace, default_catalog, space_facts
from .chase import Iv, exact
from .hodge import (
    ci_moduli,
    closed_form_hcc1,
    deformation_moduli,
    dual_correspondence,
    lemma_van_scan,
    linear_section,
    section_hodge,
    section_spec,
)
from .jacring import steenbrink_hodge

__all__ = ["ReportCell", "run_verify", "render", "render_cells",
           "REPORT_SCHEMA_VERSION"]

REPORT_SCHEMA_VERSION = 1

_GROUP_NAMES = {"A": "PSL{m}", "B": "Spin{o}", "C": "PSp{s}", "D": "Spin{e}",
                "E": "E{n}", "G": "G{n}"}


class ReportCell(namedtuple("ReportCell", "table row column fixture computed "
                            "status note", defaults=("",))):
    """One verify cell; its fields, in order, are the columns of every
    rendering and the keys of its JSON payload."""

    __slots__ = ()

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.table, self.row, self.column)


def _cell(table, row, column, fixture, computed, note="") -> ReportCell:
    if isinstance(computed, Iv):
        if computed.exact:
            computed = computed.lo
        else:
            status = ("indeterminate" if fixture is None or fixture in computed
                      else "mismatch")
            return ReportCell(table, row, column, fixture, str(computed), status, note)
    if fixture is None:
        return ReportCell(table, row, column, None, computed, "fixture-absent", note)
    status = "match" if fixture == computed else "mismatch"
    return ReportCell(table, row, column, fixture, computed, status, note)


def _group_name(space: HomogSpace) -> str:
    """Automorphism-group label, e.g. PSL10 for A9, Spin12 for D6."""
    parts = []
    for f in space.factors:
        s, n = f.rs.series, f.rs.rank
        parts.append(_GROUP_NAMES[s].format(m=n + 1, o=2 * n + 1, s=2 * n,
                                            e=2 * n, n=n))
    return "x".join(parts)


def _weights_label(weights) -> str:
    """Compressed multiset notation: (1,1,1,1,1,1,2) -> '1^6,2'."""
    runs = []
    for w in weights:
        if runs and runs[-1][0] == w:
            runs[-1][1] += 1
        else:
            runs.append([w, 1])
    return ",".join(f"{w}^{k}" if k > 1 else f"{w}" for w, k in runs)


# ---------------------------------------------------------------- cell crops

def _fact_cells(cat: Catalog, table: str, name: str, facts: dict) -> list[ReportCell]:
    """One cell for each column of ``table`` that names a ``space_facts`` key."""
    fix = cat.fixture(name, table)
    return [_cell(table, name, col, fix.get(col), facts[col])
            for col in cat.table(table)["columns"] if col in facts]


def _facts_cells(cat: Catalog, table: str, cuts) -> list[ReportCell]:
    """The fact columns plus the moduli column of a section table."""
    cells = []
    tab = cat.table(table)
    for name in tab["rows"]:
        sp = cat.space(name)
        cells += _fact_cells(cat, table, name, space_facts(sp))
        if "moduli" in tab["columns"]:
            rep = deformation_moduli(section_spec(sp, cuts))
            cells.append(_cell(table, name, "moduli", cat.fixture(name, table).get("moduli"),
                               rep.value, note=f"route={rep.route}"))
    return cells


def _series_cells(cat: Catalog) -> list[ReportCell]:
    """The six tables on the series spaces (series41, moduli43, dual44,
    middle41, lemma_nonvan, lemma_van), computed in one walk over series41's
    rows."""
    rows = cat.table("series41")["rows"]
    other = [t for t in ("moduli43", "dual44")
             if cat.tables.get(t, {}).get("rows") != rows]
    if other:
        raise ValueError(f"rows of {' and '.join(other)} differ from "
                         f"series41's {', '.join(rows)}")
    cells = []
    for name in rows:
        sp = cat.space(name)
        facts = space_facts(sp)
        fix, mfix, dfix = (cat.fixture(name, t)
                           for t in ("series41", "moduli43", "dual44"))
        moduli = mfix.get("moduli")
        r, c, s = facts["index"], facts["coindex"], facts["s"]
        dual = dual_correspondence(sp)
        cells += _fact_cells(cat, "series41", name, facts)
        cells += _fact_cells(cat, "moduli43", name, facts)
        cells.append(_cell("series41", name, "dual_degree", fix.get("dual_degree"),
                           c - 1, note=dual.description))
        cells.append(_cell("moduli43", name, "aut", mfix.get("aut"), _group_name(sp)))
        spec = linear_section(sp, s)
        for route, col in (("grassmannian", "moduli"),
                           ("cohomological", "moduli_cohomological")):
            rep = deformation_moduli(spec, route=route)
            cells.append(_cell("moduli43", name, col, moduli, rep.value,
                               note=f"route={route}"))
        cells += [
            _cell("dual44", name, "assoc", dfix.get("assoc"), dual.description),
            _cell("dual44", name, "dual_moduli", moduli, dual.dual_moduli.value,
                  note=f"route={dual.dual_moduli.route}"),
            _cell("dual44", name, "moduli_agree", True, dual.agree),
            _cell("dual44", name, "j_dim", None if moduli is None else moduli + 1,
                  dual.j_dim),
        ]
        hits = lemma_van_scan(sp)
        nonvan = [(q, d) for p, k, q, d in hits if (p, k) == (c - 2, r - c + 1)]
        q, dim = nonvan[0] if len(nonvan) == 1 else (None, None)
        where = ",".join(f"(p={p},k={k})" for p, k, _q, _d in hits) or "none"
        row = section_hodge(spec)
        m = (row.n - 1) // 2
        cells += [
            _cell("lemma_nonvan", name, "degree", r + 2, q),
            _cell("lemma_nonvan", name, "dim", 1, dim),
            _cell("lemma_van", name, "cells", 1, len(hits)),
            _cell("lemma_van", name, "at", f"(p={c - 2},k={r - c + 1})", where),
            _cell("middle41", name, "h_extreme", 1, row.entry(m + 2, m - 1)),
            _cell("middle41", name, "h_middle", moduli, row.entry(m + 1, m)),
            _cell("middle41", name, "closed_form", moduli, closed_form_hcc1(sp, s)),
        ]
    return cells


def _weighted31_cells(cat: Catalog) -> list[ReportCell]:
    cells = []
    for row in cat.table("weighted31")["rows"]:
        name = row["name"]
        reading = row.get("reading")
        if reading is None:
            w, d = tuple(row["weights"]), row["degrees"][0]
            sb = steenbrink_hodge(w, d)
            computed_weights = _weights_label(sb.weights)
            computed_degrees = _weights_label((sb.degree,))
            computed_dim, computed_moduli = sb.dim, sb.moduli
        else:
            amb, degs = reading["ci_ambient"], tuple(reading["ci_degrees"])
            computed_weights = f"({_weights_label(degs)}) complete intersection in P^{amb}"
            computed_degrees = _weights_label(degs)
            computed_dim = amb - len(degs)
            computed_moduli = ci_moduli(amb, degs).value
        cells.append(_cell("weighted31", name, "dim", row["dim"], computed_dim))
        cells.append(_cell("weighted31", name, "weights",
                           _weights_label(row["weights"]), computed_weights))
        cells.append(_cell("weighted31", name, "degrees",
                           _weights_label(row["degrees"]), computed_degrees))
        cells.append(_cell("weighted31", name, "moduli", row["moduli"], computed_moduli))
    return cells


def _quadric34_cells(cat: Catalog) -> list[ReportCell]:
    cells = []
    for name in cat.table("quadric34")["rows"]:
        sp = cat.space(name)
        fix = cat.fixture(name, "quadric34")
        row = section_hodge(section_spec(sp, (2,)))
        n = row.n
        for p in range(n, n - 5, -1):
            col = f"h{p}{n - p}"
            cells.append(_cell("quadric34", name, col, fix.get(col),
                               row.entry(p, n - p)))
    return cells


def _theta_cells(cat: Catalog) -> list[ReportCell]:
    row = section_hodge(linear_section(cat.space("LG(3,6)"), 1))
    n = row.n
    cells = [_cell("theta35", "Theta", f"h{p}{p}", 1, row.entry(p, p))
             for p in range(1, n + 1)]
    off = sum((row.entry(p, n - p) for p in range(n + 1) if 2 * p != n), exact(0))
    cells.append(_cell("theta35", "Theta", "middle_offdiag", 0, off))
    return cells


# table id, as verify prints it -> the crop that computes its cells
_CROPS = {
    "linear33": lambda cat: _facts_cells(cat, "linear33", (1,)),
    "mukai34": lambda cat: _facts_cells(cat, "mukai34", (2,)),
    "series41": _series_cells, "moduli43": _series_cells,
    "dual44": _series_cells, "weighted31": _weighted31_cells,
    "quadric34": _quadric34_cells, "lemma_nonvan": _series_cells,
    "lemma_van": _series_cells, "theta35": _theta_cells,
    "middle41": _series_cells,
}


# ------------------------------------------------------------------- driver

class VerifyReport(namedtuple("VerifyReport", "cells undocumented documented")):
    """Every cell, and those of its mismatches not documented and documented."""

    __slots__ = ()

    @property
    def exit_code(self) -> int:
        return 1 if self.undocumented else 0


def run_verify(cat: Catalog | None = None,
               tables: tuple[str, ...] = ()) -> VerifyReport:
    """Recompute every reference cell, or those of the given table ids;
    canonical (table,row,column) order."""
    cat = cat or default_catalog()
    missing = sorted(set(tables) - _CROPS.keys())
    if missing:
        raise ValueError(f"unknown table {', '.join(missing)}; "
                         f"known: {', '.join(_CROPS)}")
    # each crop runs once, though the six series tables share one
    crops = dict.fromkeys(_CROPS[t] for t in tables or _CROPS)
    cells = sorted((c for f in crops for c in f(cat)
                    if not tables or c.table in tables), key=lambda c: c.key)
    flagged, undocumented = [], []
    out = []
    for c in cells:
        if c.status == "mismatch":
            if cat.is_documented_discrepancy(c.table, c.row, c.column, c.computed):
                c = c._replace(note=(c.note + "; " if c.note else "")
                               + "documented discrepancy")
                flagged.append(c)
            else:
                undocumented.append(c)
        out.append(c)
    return VerifyReport(tuple(out), tuple(undocumented), tuple(flagged))


def render(head, rows, fmt: str, payloads, text=None) -> str:
    """The one output renderer: ``rows`` under the column names ``head``.

    ``json`` writes one line per payload dict (an iterable, consumed only
    here), stamped with ``schema_version`` and key-sorted; ``csv`` writes
    ``head`` and ``rows`` through :mod:`csv` (RFC quoting); ``markdown`` is a
    pipe table; ``text`` is the caller's ``text`` lines, or the rows as
    left-aligned columns when ``text`` is None.
    """
    if fmt == "json":
        import json
        return "\n".join(
            json.dumps({"schema_version": REPORT_SCHEMA_VERSION, **p}, sort_keys=True)
            for p in payloads)
    if fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(head)
        w.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if fmt == "text" and text is not None:
        return "\n".join(text)
    rows = [[str(v) for v in r] for r in rows]
    if fmt == "markdown":
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "|".join("---" for _ in head) + "|"]
        lines += ["| " + " | ".join(r) + " |" for r in rows]
        return "\n".join(lines)
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(len(head))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(head, widths)).rstrip()]
    lines += ["  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip() for r in rows]
    return "\n".join(lines)


_CELL_HEAD = ReportCell._fields


def render_cells(cells, fmt: str = "text") -> str:
    """Render a sequence of cells as text, markdown, json lines, or csv."""
    rows = [tuple(c) for c in cells]
    return render(_CELL_HEAD, rows, fmt, (dict(zip(_CELL_HEAD, r)) for r in rows))
