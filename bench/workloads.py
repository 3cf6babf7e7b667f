"""The four benchmark workloads and their correctness checks.

Each workload has three parts:

* ``inputs(seed, cat)`` builds plain-data inputs from the seed and the
  catalog (benchmark code only; the program never sees the seed);
* ``run(mods, cat, inputs, clock)`` makes the timed calls into ``bwb`` and
  returns ``(outputs, item_ns)``; ``item_ns`` holds the ``clock`` duration
  (nanoseconds) of each ``bott.bott`` call on ``bundles`` and is empty on
  the other workloads;
* ``check(mods, cat, outputs, oracles)`` runs after the clock stops and
  returns ``(attempted, failures)``.  It compares every output with the
  golden (a ``golden`` argument replaces the stored one); with ``oracles``
  it also recomputes the independent oracles, which cost about as much as
  the workload itself, so a run does that in its first interpreter only.

All calls into ``bwb`` go through module attributes (``mods.bott.bott``), so
a traced run sees them through the tracer's wrappers.  Goldens live in
``golden/`` and were written by ``make_golden.py`` at the seed commit.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stdout
from time import perf_counter_ns

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# The checked dimension cap of the Euler-characteristic oracles: euler_char
# enumerates subsets of the nilradical roots, so its cost is binomial in the
# factor dimension.
CHI_MAX_DIM = 10


class Modules:
    """The ``bwb`` modules, fetched with import_module: ``from bwb import
    bott`` would return the re-exported function, not the module."""

    def __init__(self):
        for name in ("rootsys", "bott", "catalog", "chase", "hodge", "jacring",
                     "report", "cli"):
            setattr(self, name, importlib.import_module(f"bwb.{name}"))


def load_golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return fh.read() if name.endswith(".txt") else json.load(fh)


def _table_json(table):
    return [[[iv.lo, iv.hi] for iv in row] for row in table]


# ---------------------------------------------------------------- verify

class Verify:
    """``bwb verify`` in-process, stdout captured.  The seed is unused: the
    command has no input besides the shipped catalog."""

    name = "verify"
    seed_used = False

    def inputs(self, seed, cat):
        return ["verify"]

    def run(self, mods, cat, argv, clock=perf_counter_ns):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = mods.cli.main(argv)
        return {"code": code, "stdout": buf.getvalue()}, []

    def check(self, mods, cat, out, oracles=True, golden=None):
        golden = load_golden("verify.txt") if golden is None else golden
        failures = []
        if out["code"] != 0:
            failures.append(f"exit code {out['code']}")
        got, want = out["stdout"].splitlines(), golden.splitlines()
        for i in range(max(len(got), len(want))):
            g = got[i] if i < len(got) else None
            w = want[i] if i < len(want) else None
            if g != w:
                failures.append(f"stdout line {i + 1}: {g!r} != {w!r}")
        if not failures and out["stdout"] != golden:
            failures.append("stdout differs from the golden in line endings")
        return 1 + len(want), failures


# -------------------------------------------------------------- sections

# (label, ambient, cuts, branch).  Ambient "P5" is projective 5-space.
SECTION_SPECS = (
    [(f"{sp} quadric", sp, (2,), None)
     for sp in ("G(2,6)", "LG(3,6)", "P3xP3", "(P1)^4", "S10", "(P1)^6",
                "(P1)^3xP3", "(P2)^4")]
    + [(f"{sp} hyperplane", sp, (1,), None)
       for sp in ("G(2,6)", "LG(3,6)", "P3xP3", "S10", "(P2)^4",
                  "G(2,5)xG(2,5)", "(P4)^3")]
    + [(f"{sp} codim-2 linear", sp, (1, 1), None)
       for sp in ("G(2,6)", "S10", "LG(3,6)", "P3xP3")]
    + [("P5 double cover, branch 4", "P5", (), 4),
       ("P5 double cover, branch 8", "P5", (), 8),
       ("LG(3,6) hyperplane double cover, branch 2", "LG(3,6)", (1,), 2)]
)
LEMMA_SPACES = ("OP2", "S12", "G(2,10)", "S14")

# The S10 quadric row is pinned at the engine's computed value (the catalog
# stores 80 and lists the cell as a documented discrepancy).
S10_QUADRIC_PIN = ("S10 quadric", 5, 4, 70)


class Sections:
    """Hodge tables of 22 small and medium section specs plus the four
    lemma scans, in a seeded order.  Caches are shared across specs, so the
    order moves the cost between items but not the results."""

    name = "sections"
    seed_used = True

    def inputs(self, seed, cat):
        items = [("spec",) + s for s in SECTION_SPECS]
        items += [("lemma", f"lemma_van_scan {sp}", sp, None, None)
                  for sp in LEMMA_SPACES]
        random.Random(seed).shuffle(items)
        return items

    @staticmethod
    def spec(mods, cat, ambient, cuts, branch):
        sp = (mods.catalog.projective_space(5) if ambient == "P5"
              else cat.space(ambient))
        return mods.hodge.section_spec(sp, cuts, branch=branch)

    def run(self, mods, cat, items, clock=perf_counter_ns):
        hodge = mods.hodge
        out = {}
        for kind, label, ambient, cuts, branch in items:
            if kind == "lemma":
                hits = hodge.lemma_van_scan(cat.space(ambient))
                out[label] = [list(hit) for hit in hits]
                continue
            spec = self.spec(mods, cat, ambient, cuts, branch)
            fn = hodge.section_hodge if branch is None else hodge.double_cover_hodge
            out[label] = _table_json(fn(spec).table)
        return {"items": items, "tables": out}, []

    def check(self, mods, cat, out, oracles=True, golden=None):
        golden = load_golden("sections.json") if golden is None else golden
        hodge = mods.hodge
        failures, attempted = [], 0
        for kind, label, ambient, cuts, branch in out["items"]:
            attempted += 1
            got = out["tables"].get(label)
            if got != golden.get(label):
                failures.append(f"{label}: table differs from the golden")
            if kind == "lemma" or got is None or not oracles:
                continue
            spec = self.spec(mods, cat, ambient, cuts, branch)
            if spec.dim > CHI_MAX_DIM:
                continue
            for p, row in enumerate(got):
                if any(lo != hi for lo, hi in row):
                    continue
                attempted += 1
                by_table = sum((-1) ** q * lo for q, (lo, _hi) in enumerate(row))
                want = _cover_chi(hodge, spec, p) if branch else \
                    hodge.chi_section_forms(spec, p)
                if by_table != want:
                    failures.append(f"{label}: chi of row p={p} is "
                                    f"{by_table}, oracle says {want}")
        label, p, q, value = S10_QUADRIC_PIN
        attempted += 1
        table = out["tables"].get(label)
        if table is None or table[p][q] != [value, value]:
            failures.append(f"{label}: h{p}{q} is not pinned at {value}")
        return attempted, failures


def _cover_chi(hodge, spec, p):
    """chi(Omega^p) of a double cover: invariant part plus log part."""
    half = tuple(b // 2 for b in spec.branch_degree)
    base = hodge.SectionSpec(spec.ambient, spec.cut_degrees)
    divisor = hodge.SectionSpec(spec.ambient,
                                spec.cut_degrees + (spec.branch_degree,))
    return (hodge.chi_section_forms(base, p)
            + hodge.chi_section_forms(base, p, half)
            + hodge.chi_section_forms(divisor, p - 1, half))


# --------------------------------------------------------------- bundles

# Acceptance criterion 9a: (space, kind, label shapes, twists).
SCHUR_FAMILIES = (
    ("G(2,6)", "A", ((4, 3), (2, 3)), (-6, -4, -2, 0, 2)),
    ("G(2,10)", "A", ((8, 2), (2, 2)), (-6, -3, 0)),
    ("S10", "D", ((5, 4),), tuple(range(-10, 1))),
    ("S12", "D", ((6, 3),), tuple(range(-8, 1))),
)
SERRE_SPACES = ("S10", "G(2,6)", "LG(3,6)", "OP2")
SERRE_PAIRS_PER_SPACE = 500


def _partitions(max_len, max_part):
    """Weakly decreasing labels, trailing zeros spelled out or not (the
    criterion-9a enumeration, duplicates included)."""
    out = [()]
    for ln in range(1, max_len + 1):
        out.extend(itertools.combinations_with_replacement(
            range(max_part, -1, -1), ln))
    return out


class Bundles:
    """Root-system and Bott layers only: no chase.  Each ``bott.bott`` call
    on one of the 14,862 fixed Schur bundles is a timed item; the seeded
    Serre pairs are not, because their latency tail follows the sample."""

    name = "bundles"
    seed_used = True

    def inputs(self, seed, cat):
        schur = []
        for name, kind, shapes, twists in SCHUR_FAMILIES:
            if kind == "A":
                for q in _partitions(*shapes[0]):
                    for e in _partitions(*shapes[1]):
                        schur.extend((name, kind, (q, e), t) for t in twists)
            else:
                for lab in _partitions(*shapes[0]):
                    schur.extend((name, kind, (lab,), t) for t in twists)
        rng = random.Random(seed)
        serre = []
        for name in SERRE_SPACES:
            (f,) = cat.space(name).factors
            for _ in range(SERRE_PAIRS_PER_SPACE):
                w = [rng.randrange(0, 3) for _ in range(f.rs.rank)]
                w[f.node] = rng.randrange(-2 * f.index - 2, 5)
                serre.append((name, tuple(w)))
        return {"schur": schur, "serre": serre}

    def run(self, mods, cat, inputs, clock=perf_counter_ns):
        B = mods.bott
        item_ns: list[int] = []
        fast_vs_walk = []
        for name, kind, labels, twist in inputs["schur"]:
            space = cat.space(name)
            if kind == "A":
                fast = B.sequence_cohomology(
                    B.grassmann_sequence(space, *labels, twist))
                b = B.grassmann_bundle(space, *labels, twist)
            else:
                fast = B.spinor_sequence_cohomology(
                    B.spinor_sequence(space, labels[0], twist), doubled=True)
                b = B.spinor_bundle(space, labels[0], twist)
            t0 = clock()
            table = B.bott(b)
            item_ns.append(clock() - t0)
            fast_vs_walk.append((fast, table.single(), table.acyclic))
        serre = []
        for name, w in inputs["serre"]:
            space = cat.space(name)
            b = B.bundle(space, (w,))
            dual = B.bundle(space, _serre_dual_weights(mods, space, b))
            lhs = B.bott(b).dims()
            rhs = B.bott(dual).dims()
            serre.append((name, space.dim, lhs, rhs))
        grid = []
        for name in sorted(cat.spaces):
            space = cat.space(name)
            if not space.cominuscule:
                continue
            n = space.dim
            for p in range(n + 1):
                for k in range(-n - 2, n + 3):
                    grid.append((name, p, k, B.forms_cohomology(space, p, k)))
        return {"fast_vs_walk": fast_vs_walk, "serre": serre,
                "grid": grid}, item_ns

    def check(self, mods, cat, out, oracles=True, golden=None):
        failures = []
        for i, (fast, single, acyclic) in enumerate(out["fast_vs_walk"]):
            ok = acyclic if fast is None else (
                single is not None and (single[0], single[2]) == fast)
            if not ok:
                failures.append(f"schur bundle #{i}: fast path {fast} vs walk {single}")
        for name, n, lhs, rhs in out["serre"]:
            if rhs != {n - q: d for q, d in lhs.items()}:
                failures.append(f"Serre duality on {name}: {lhs} vs {rhs}")
        attempted = len(out["fast_vs_walk"]) + len(out["serre"])
        for name, p, k, coh in out["grid"] if oracles else ():
            space = cat.space(name)
            if space.dim > CHI_MAX_DIM:
                continue  # euler_char is binomial in the factor dimension
            attempted += 1
            alt = sum((-1) ** q * d for q, d in coh.items())
            chi = mods.bott.euler_char(space, p, k)
            if alt != chi:
                failures.append(f"{name} Omega^{p}({-k}): alternating sum "
                                f"{alt}, euler_char {chi}")
        return attempted, failures


def _serre_dual_weights(mods, space, b):
    """Highest weights of the dual bundle tensored with the canonical sheaf:
    negate, walk back to Levi dominance node by node, shift by the index."""
    out = []
    for factor, w in zip(space.factors, b.weights):
        cur = [-c for c in w]
        while True:
            bad = [j for j in range(factor.rs.rank)
                   if j != factor.node and cur[j] < 0]
            if not bad:
                break
            cur = list(mods.rootsys.simple_reflection(factor.rs, bad[0], cur))
        cur[factor.node] -= factor.index
        out.append(tuple(cur))
    return tuple(out)


# ----------------------------------------------------------- jacring-scan

JACRING_SCAN = (13, 7, 14)
JACRING_ROWS = 2839


def rows_digest(rows) -> str:
    blob = json.dumps([r.as_json() for r in rows], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


class JacringScan:
    """``weighted_cy_scan(13, 7, 14)``: the one workload where ``jacring``
    does real work (mostly exact polynomial division).  The seed is unused."""

    name = "jacring-scan"
    seed_used = False

    def inputs(self, seed, cat):
        return JACRING_SCAN

    def run(self, mods, cat, args, clock=perf_counter_ns):
        return mods.jacring.weighted_cy_scan(*args), []

    def check(self, mods, cat, rows, oracles=True, golden=None):
        golden = load_golden("jacring.json") if golden is None else golden
        failures = []
        if len(rows) != JACRING_ROWS:
            failures.append(f"{len(rows)} rows, expected {JACRING_ROWS}")
        for r in rows:
            e = r.entries
            if e != e[::-1] or next((x for x in e if x), None) != 1:
                failures.append(f"row {r.weights} degree {r.degree}: {e}")
        if rows_digest(rows) != golden["digest"]:
            failures.append("row digest differs from the golden")
        return len(rows) + 2, failures


WORKLOADS = {w.name: w for w in (Verify(), Sections(), Bundles(), JacringScan())}
