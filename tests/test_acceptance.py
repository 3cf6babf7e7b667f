"""Acceptance gate: ten numbered criteria, each reported as a single
PASS/FAIL line (see conftest).  Every comparison is exact integer equality —
no tolerances anywhere — and wall-clock budgets are asserted where stated.

Criterion 4 asserts the S10 quadric-section middle row (0,0,0,1,70).  That
row is proven independently of the engine by ``tests/test_localization.py``:
Atiyah–Bott localization at the 16 torus-fixed points of S10 gives
χ_top = −128 and χ(Ω^p) = (1, −1, 1, −1, −68) for p ≤ 4, and Lefschetz with
Serre duality turns these into h^{6,3} = 1 and h^{5,4} = 70 (b₉ = 142, where
the catalogued row would need 162).  The published 80 is the deformation
count h¹(T) = 126 − 1 − 45; the catalog keeps it as the quadric34 fixture
and lists the h54 cell as a documented discrepancy, which criterion 4 checks
the way criterion 5 checks G(3,11).
"""

import io
import itertools
import random
import time
from contextlib import redirect_stdout
from importlib import resources
from math import comb

import pytest

from bwb.bott import (
    bott,
    bundle,
    fiber_dim,
    forms_cohomology,
    grassmann_bundle,
    grassmann_sequence,
    kostant_forms,
    sequence_cohomology,
    spinor_bundle,
    spinor_sequence,
    spinor_sequence_cohomology,
)
from bwb.catalog import default_catalog, space_facts
from bwb.cli import main
from bwb.hodge import (
    ci_moduli,
    closed_form_hcc1,
    deformation_moduli,
    dual_correspondence,
    hodge_table,
    lemma_van_scan,
    linear_section,
    section_hodge,
    section_spec,
)
from bwb.jacring import jacobian_hilbert
from bwb.rootsys import (
    minimal_coset_reps,
    root_system,
    simple_reflection,
    to_dominant,
)
from test_rootsys import reference_walk

CAT = default_catalog()


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


@pytest.mark.criterion(1, "appendix-values")
def test_criterion_01_four_top_cohomology_groups():
    t0 = time.perf_counter()
    for name, p, k, degree in APPENDIX_CASES:
        table = forms_cohomology(CAT.space(name), p, k)
        assert table == {degree: 1}, (name, p, k, table)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "reflection-walk-trace")
def test_criterion_02_traced_walk_matches_golden():
    rc, out = run_cli(["bott", "--space", "OP2", "--form", "2",
                       "--twist", "-9", "--trace"])
    assert rc == 0
    golden = resources.files("bwb").joinpath("data/e6_walk_trace.txt").read_text()
    assert out == golden
    assert sum(1 for ln in out.splitlines() if ln.startswith("  | s")) == 14
    # independently: the shifted weight walks to rho in exactly 14 steps
    space = CAT.space("OP2")
    (summand,) = kostant_forms(space, 2)
    factor = space.factors[0]
    b = bundle(space, summand.weights, -9)
    shifted = tuple(c + r for c, r in zip(b.weights[0], factor.rs.rho))
    walk = to_dominant(factor.rs, shifted)
    assert not walk.singular
    assert walk.length == 14
    assert walk.dominant == factor.rs.rho


@pytest.mark.criterion(3, "maximal-section-counts")
def test_criterion_03_middle_hodge_and_moduli_agree():
    t0 = time.perf_counter()
    for name, count in SERIES_COUNTS:
        sp = CAT.space(name)
        c = space_facts(sp)["coindex"]
        s = space_facts(sp)["s"]
        spec = linear_section(sp, s)
        row = section_hodge(spec)
        extreme = row.entry(c + 1, c - 2)
        assert extreme.exact and extreme.lo == 1, name
        m = (sp.dim - s) // 2
        middle = row.entry(m + 1, m)
        assert middle.exact and middle.lo == count, name
        assert closed_form_hcc1(sp, s) == count, name
        for route in ("grassmannian", "cohomological"):
            assert deformation_moduli(spec, route).value == count, (name, route)
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.criterion(4, "quadric-sections")
def test_criterion_04_quadric_section_row_and_moduli():
    for name, count in QUADRIC_MODULI:
        rep = deformation_moduli(section_spec(CAT.space(name), (2,)))
        assert rep.value == count, (name, rep.value)
    row = section_hodge(section_spec(CAT.space("S10"), (2,)))
    head = row.middle[:5]
    assert all(v.exact for v in head)
    assert tuple(v.lo for v in head) == (0, 0, 0, 1, 70)
    assert CAT.fixture("S10", "quadric34")["h54"] == 80
    assert CAT.is_documented_discrepancy("quadric34", "S10", "h54", 70)
    rc, out = run_cli(["verify", "--table", "quadric34"])
    assert rc == 0  # flagged, not a failure
    assert "documented discrepancy" in out


@pytest.mark.criterion(5, "hyperplane-sections")
def test_criterion_05_hyperplane_section_moduli_column():
    rows = CAT.tables["linear33"]["rows"]
    computed = [deformation_moduli(section_spec(CAT.space(n), (1,))).value
                for n in rows]
    assert tuple(computed[:6]) == (45, 55, 48, 52, 51, 45)
    assert rows[6] == "G(3,11)"
    assert computed[6] == 44
    assert CAT.fixture("G(3,11)", "linear33")["moduli"] == 45
    assert CAT.is_documented_discrepancy("linear33", "G(3,11)", "moduli", 44)
    rc, out = run_cli(["verify", "--table", "linear33"])
    assert rc == 0  # flagged, not a failure
    assert "documented discrepancy" in out


@pytest.mark.criterion(6, "jacobian-rings")
def test_criterion_06_jacobian_ring_counts():
    cubic = jacobian_hilbert((1,) * 9, 3, 3)
    assert cubic == 84
    assert jacobian_hilbert((1, 1, 1, 1, 1, 1, 2), 4, 4) == 90
    assert ci_moduli(7, (2, 3)).value == 83
    assert ci_moduli(8, (3,)).value == cubic == 84


@pytest.mark.criterion(7, "dual-varieties")
def test_criterion_07_dual_correspondence_table():
    for name, description, dual_dim, count in DUAL_ROWS:
        rep = dual_correspondence(CAT.space(name))
        assert rep.description == description
        assert rep.dual_dim == dual_dim
        assert rep.x_moduli.value == count
        assert rep.dual_moduli.value == count  # independent route
        assert rep.agree
        assert rep.j_dim == count + 1


@pytest.mark.criterion(8, "vanishing-scans")
def test_criterion_08_exhaustive_scans_leave_one_cell():
    for name, _ in SERIES_COUNTS:
        sp = CAT.space(name)
        facts = space_facts(sp)
        r, c = facts["index"], facts["coindex"]
        t0 = time.perf_counter()
        assert lemma_van_scan(sp) == [(c - 2, r - c + 1, r + 2, 1)], name
        if name == "G(2,10)":
            assert time.perf_counter() - t0 < 60.0


@pytest.mark.criterion(9, "property-suites")
def test_criterion_09_property_suites():
    rng = random.Random(20260814)

    # (a) closed-form fast paths agree with the walk on >= 10^4 distinct
    # bundles, every spelling of each label checked
    distinct = set()
    for case, fast, b in schur_spellings():
        _check_fastpath(fast, bott(b), case)
        distinct.add(b)
    assert len(distinct) >= 10_000, len(distinct)

    # (b) Serre duality on 500 random bundles per space
    for name in ("S10", "G(2,6)", "LG(3,6)", "OP2"):
        sp = CAT.space(name)
        n = sp.dim
        factor = sp.factors[0]
        for _ in range(500):
            w = [rng.randrange(0, 3) for _ in range(factor.rs.rank)]
            w[factor.node] = rng.randrange(-2 * factor.index - 2, 5)
            b = bundle(sp, (tuple(w),))
            lhs = bott(b).dims()
            rhs = bott(bundle(sp, _serre_dual_weights(sp, b))).dims()
            assert rhs == {n - q: d for q, d in lhs.items()}, (name, w)

    # (c) pivot-order independence on 1000 random weights per type: the
    # walk against the reference walk reflecting at the last negative node
    def last_negative(w):
        return max(i for i, c in enumerate(w) if c < 0)

    for series, rank in (("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
                         ("A", 4), ("D", 5)):
        rs = root_system(series, rank)
        for _ in range(1000):
            w = tuple(rng.randrange(-9, 10) for _ in range(rs.rank))
            first = to_dominant(rs, w)
            dominant, length, singular, _ = reference_walk(rs, w, last_negative)
            assert first.singular == singular, (series, rank, w)
            if not singular:
                assert (first.length, first.dominant) == (length, dominant), (
                    series, rank, w)

    # (d) diamond of every cominuscule space: h^{p,q} = delta_pq * |level p|
    for name in sorted(CAT.spaces):
        sp = CAT.space(name)
        if not sp.cominuscule:
            continue
        levels = _coset_level_counts(sp)
        for p in range(sp.dim + 1):
            want = {p: levels[p]} if p < len(levels) and levels[p] else {}
            assert forms_cohomology(sp, p) == want, (name, p)

    # (e) form-bundle fibers fill the exterior power of the cotangent space
    for name in ("S10", "S12", "G(2,10)", "OP2"):
        sp = CAT.space(name)
        for p in range(sp.dim + 1):
            total = sum(fiber_dim(b) for b in kostant_forms(sp, p))
            assert total == comb(sp.dim, p), (name, p)


@pytest.mark.criterion(10, "hyperplane-diamond")
def test_criterion_10_lagrangian_hyperplane_section_diamond():
    table = hodge_table(linear_section(CAT.space("LG(3,6)"), 1))
    assert len(table) == 6
    for p, row in enumerate(table):
        for q, entry in enumerate(row):
            assert entry.exact, (p, q)
            assert entry.lo == (1 if p == q else 0), (p, q)


def _check_fastpath(fast, table, context):
    if fast is None:
        assert table.acyclic, context
    else:
        degree, _, dim = table.single()
        assert (degree, dim) == fast, context


def _partitions(max_len, max_part):
    out = [()]
    for ln in range(1, max_len + 1):
        out.extend(itertools.combinations_with_replacement(
            range(max_part, -1, -1), ln))
    return out


# Criterion 9a: (space, label shapes, twists).  A label is spelled with and
# without its trailing zeros, and a twist can trade places with a shift of
# the label, so the 50,142 spellings are 10,293 distinct bundles.
SCHUR_GRASSMANN = (("G(2,6)", (4, 3), (2, 3), range(-10, 5)),
                   ("G(2,10)", (8, 2), (2, 2), (-6, -3, 0)))
SCHUR_SPINOR = (("S10", (5, 4), range(-45, 21)),
                ("S12", (6, 3), range(-40, 21)))


def schur_spellings():
    """Every criterion-9a spelling as ``(case, fast path result, bundle)``."""
    for name, qshape, eshape, twists in SCHUR_GRASSMANN:
        space = CAT.space(name)
        for q_label in _partitions(*qshape):
            for e_label in _partitions(*eshape):
                for twist in twists:
                    yield ((name, q_label, e_label, twist),
                           sequence_cohomology(grassmann_sequence(
                               space, q_label, e_label, twist)),
                           grassmann_bundle(space, q_label, e_label, twist))
    for name, lshape, twists in SCHUR_SPINOR:
        space = CAT.space(name)
        for label in _partitions(*lshape):
            for twist in twists:
                yield ((name, label, twist),
                       spinor_sequence_cohomology(
                           spinor_sequence(space, label, twist), doubled=True),
                       spinor_bundle(space, label, twist))


def _serre_dual_weights(space, b):
    """Highest weights of E* tensored with the canonical sheaf: negate, walk
    back to Levi dominance node by node, then shift by the index."""
    out = []
    for factor, w in zip(space.factors, b.weights):
        cur = [-c for c in w]
        while True:
            bad = [j for j in range(factor.rs.rank)
                   if j != factor.node and cur[j] < 0]
            if not bad:
                break
            cur = list(simple_reflection(factor.rs, bad[0], cur))
        cur[factor.node] -= factor.index
        out.append(tuple(cur))
    return tuple(out)


def _coset_level_counts(space):
    counts = [1]
    for factor in space.factors:
        levels = minimal_coset_reps(factor.rs, factor.node)
        sizes = [len(level) for level in levels]
        conv = [0] * (len(counts) + len(sizes) - 1)
        for i, a in enumerate(counts):
            for j, s in enumerate(sizes):
                conv[i + j] += a * s
        counts = conv
    return counts


APPENDIX_CASES = [
    ("OP2", 2, 9, 14),
    ("S12", 3, 6, 12),
    ("G(2,10)", 4, 5, 12),
    ("S14", 7, 4, 14),
]

SERIES_COUNTS = [
    ("OP2", 84),
    ("S12", 90),
    ("G(2,10)", 101),
    ("S14", 149),
]

QUADRIC_MODULI = [
    ("G(2,6)", 69),
    ("LG(3,6)", 62),
    ("P3xP3", 69),
    ("(P1)^4", 68),
    ("S10", 80),
]

DUAL_ROWS = [
    ("OP2", "cubic sevenfold", 7, 84),
    ("S12", "double quartic fivefold", 5, 90),
    ("G(2,10)", "quintic threefold", 3, 101),
    ("S14", "double octic threefold", 3, 149),
]
