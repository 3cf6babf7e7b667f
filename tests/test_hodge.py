"""Hodge numbers of linear/quadric sections and double covers through the
exact-sequence chase, with Euler characteristics and deformation counts as
independent oracles."""

import re
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwb import hodge
from bwb.bott import euler_char
from bwb.catalog import default_catalog, projective_space, space_facts
from bwb.chase import ChaseError, Iv, exact, solve_exact_complex
from bwb.hodge import (
    HodgeRow,
    ModuliReport,
    SectionSpec,
    _groups,
    _symmetrize,
    chi_section_forms,
    ci_moduli,
    closed_form_hcc1,
    cy_type_verdict,
    deformation_moduli,
    double_cover_hodge,
    dual_correspondence,
    hodge_table,
    lemma_van_scan,
    linear_section,
    moduli_routes,
    section_forms,
    section_hodge,
    section_line_h0,
    section_spec,
)
from bwb.jacring import steenbrink_hodge
from bwb.report import run_verify

CAT = default_catalog()


# ---------------------------------------------------------------- sections


def test_maximal_linear_sections_middle_rows():
    for name, middle in SERIES_MIDDLE.items():
        space = CAT.space(name)
        row = section_hodge(linear_section(space, space_facts(space)["s"]))
        assert row.middle == tuple(map(exact, middle)), name


def test_middle_equals_moduli_all_routes():
    for name, count in SERIES_MODULI.items():
        space = CAT.space(name)
        s = space_facts(space)["s"]
        spec = linear_section(space, s)
        routes = {m.route: m.value for m in moduli_routes(spec)}
        assert routes == dict.fromkeys(("grassmannian", "cohomological",
                                        "closed-form", "hodge-middle"), count), name
        assert closed_form_hcc1(space, s) == count
        row = section_hodge(spec)
        m = (row.n - 1) // 2
        assert row.entry(m + 1, m).exact
        assert row.entry(m + 1, m).lo == count
        assert row.entry(m + 2, m - 1).lo == 1


def test_closed_form_answers_only_at_the_series_sections():
    """C(s+c-2, c-1) - s^2 is the count of the series' dual hypersurfaces,
    so it answers at the four maximal series sections only, and there
    moduli_routes lists it equal to its other three routes; every other
    (space, s) is refused."""
    answered = {}
    for name in CAT.spaces:
        space = CAT.space(name)
        for s in range(1, space.dim):
            try:
                answered[name, s] = closed_form_hcc1(space, s)
            except ValueError:
                pass
    assert answered == {(name, space_facts(CAT.space(name))["s"]): count
                        for name, count in SERIES_MODULI.items()}
    for (name, s), count in answered.items():
        routes = moduli_routes(linear_section(CAT.space(name), s))
        assert [m.value for m in routes] == [count] * 4, name
    with pytest.raises(ValueError, match=re.escape(
            "(P1)^4 is outside the special series")):
        closed_form_hcc1(CAT.space("(P1)^4"), 2)
    with pytest.raises(ValueError, match=re.escape(
            "OP2, s = 8: the closed form holds at s = 9 only")):
        closed_form_hcc1(CAT.space("OP2"), 8)


def test_cy_type_verdict_on_maximal_sections():
    space = CAT.space("S12")
    spec = linear_section(space, 6)
    report = cy_type_verdict(section_hodge(spec), deformation_moduli(spec))
    assert report.verdict == "cy-type"
    statuses = {name: status for name, status, _ in report.clauses}
    assert statuses["extreme-piece"] == "pass"
    assert statuses["contraction-dimension"] == "pass"
    assert statuses["no-holomorphic-forms"] == "pass"
    assert statuses["contraction-map"] == "not checked (out of scope)"


def test_section_hodge_rejects_non_cominuscule():
    with pytest.raises(ValueError, match="cominuscule"):
        section_hodge(section_spec(CAT.space("G2ad"), (2,)))


def test_double_cover_hodge_rejects_non_cominuscule():
    spec = section_spec(CAT.space("G2ad"), (), branch=2)
    with pytest.raises(ValueError, match="^G2ad is not cominuscule$"):
        double_cover_hodge(spec)
    base = section_spec(CAT.space("G2ad"), ())
    assert chi_section_forms(base, 1, 1) == euler_char(CAT.space("G2ad"), 1, 1)


@pytest.mark.parametrize("build, spec, message", [
    (section_hodge, (projective_space(3), (), 2),
     "branched specs are handled by double_cover_hodge"),
    # a branched spec on a bad ambient reports the ambient first
    (section_hodge, (CAT.space("G2ad"), (), 2), "G2ad is not cominuscule"),
    (section_hodge, (projective_space(3), (5,), None),
     r"P3, cut \(5,\) is neither Fano nor Calabi-Yau"),
    (double_cover_hodge, (projective_space(3), (), None),
     "double_cover_hodge needs a branch degree"),
    (double_cover_hodge, (projective_space(3), (), 10),
     r"P3, double cover branched in \(10,\) is neither Fano nor Calabi-Yau"),
], ids=["section-branched", "section-branched-non-cominuscule", "section-negative",
        "cover-unbranched", "cover-negative"])
def test_every_hodge_table_gate(build, spec, message):
    ambient, cuts, branch = spec
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(section_spec(ambient, cuts, branch=branch))


def test_section_layer_refuses_wrong_length_twists():
    spec = section_spec(CAT.space("P3xP3"), (1,))
    for bad in ((0,), (0, 0, 5)):
        for call in (lambda: chi_section_forms(spec, 1, bad),
                     lambda: section_forms(spec, 1, bad),
                     lambda: section_line_h0(spec, bad)):
            with pytest.raises(ValueError, match="one twist per factor"):
                call()
    with pytest.raises(ValueError, match="one twist per factor"):
        section_spec(CAT.space("P3xP3"), ((1,),))


@pytest.mark.parametrize("cuts, branch, message", [
    (((1, 0),), None, r"degree vector \(1, 0\) must be componentwise >= 1"),
    ((1,) * 7, None, "more cuts than the ambient dimension"),
    ((), 3, r"branch degree \(3, 3\) must be componentwise even"),
], ids=["degree-below-1", "too-many-cuts", "odd-branch"])
def test_section_spec_refusals(cuts, branch, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        section_spec(CAT.space("P3xP3"), cuts, branch=branch)


# ------------------------------------------------------- the spinor tenfold


def test_quadric_section_of_s10_middle_row():
    spec = section_spec(CAT.space("S10"), (2,))
    row = section_hodge(spec)
    assert row.n == 9
    assert row.middle == tuple(map(exact, [0, 0, 0, 1, 70, 70, 1, 0, 0, 0]))


def test_quadric_section_of_s10_deformations():
    spec = section_spec(CAT.space("S10"), (2,))
    report = deformation_moduli(spec)
    assert report.route == "cohomological"
    assert report.value == 80
    # count = s * h^0(ambient, O(2)) - s^2 - delta = 126 - 1 - 45
    assert section_line_h0(section_spec(CAT.space("S10"), ()), 2) == 126


def test_quartic_section_of_g210_chases_terms_above_two_to_the_62():
    # its Koszul terms have cohomology above 2^62, which the chase once took
    # for its unbounded marker: "empty interval [6868843277964822000,
    # 4611686018427387904] in degree 16"
    spec = section_spec(CAT.space("G(2,10)"), (4,))
    table = hodge_table(spec)
    for p, chi in enumerate((1, -1, -823)):
        assert all(iv.exact for iv in table[p]), p
        assert sum((-1) ** q * iv.lo for q, iv in enumerate(table[p])) == chi
        assert chi_section_forms(spec, p) == chi


def test_quadric_section_of_s10_euler_oracles():
    spec = section_spec(CAT.space("S10"), (2,))
    assert chi_section_forms(spec, 0) == 1
    assert chi_section_forms(spec, 4) == -68  # 2 - 70
    row = section_hodge(spec)
    # full-table Euler characteristics both ways
    for p in range(10):
        by_table = sum(
            (-1 if q % 2 else 1) * row.entry(p, q).lo for q in range(10)
        )
        assert by_table == chi_section_forms(spec, p), p
    topological = sum(
        (-1 if (p + q) % 2 else 1) * row.entry(p, q).lo
        for p in range(10)
        for q in range(10)
    )
    assert topological == -128  # 14 on the diagonal, 142 in the middle


def test_quadric_section_of_s10_table_symmetries():
    row = section_hodge(section_spec(CAT.space("S10"), (2,)))
    n = row.n
    for p in range(n + 1):
        for q in range(n + 1):
            assert row.entry(p, q).exact
            assert row.entry(p, q).lo == row.entry(q, p).lo
            assert row.entry(p, q).lo == row.entry(n - p, n - q).lo
    # Lefschetz diagonal: ambient diagonal survives below the middle
    assert [row.entry(p, p).lo for p in range(5)] == [1, 1, 1, 2, 2]


def test_quadric_section_of_s10_contraction_clause_fails_on_dimension():
    # the extreme piece is there, but h^{5,4} = 70 while the deformation
    # count is 80: the dimension-level contraction clause fails honestly
    spec = section_spec(CAT.space("S10"), (2,))
    report = cy_type_verdict(section_hodge(spec), deformation_moduli(spec))
    statuses = {name: status for name, status, _ in report.clauses}
    assert statuses["extreme-piece"] == "pass"
    assert statuses["no-holomorphic-forms"] == "pass"
    assert statuses["contraction-dimension"] == "fail"
    assert report.verdict == "not-cy-type"


def _synthetic_fivefold(cells) -> HodgeRow:
    """A Hodge table for n = 5: 1 on the diagonal and at h^{4,1}, 0 elsewhere,
    then each (p, q) -> Iv of ``cells`` set together with its mirror."""
    table = [[Iv(1, 1) if p == q or {p, q} == {4, 1} else Iv(0, 0)
              for q in range(6)] for p in range(6)]
    for (p, q), v in cells.items():
        table[p][q] = table[q][p] = v
    spec = SectionSpec(projective_space(6), ((1,),))
    return HodgeRow(spec, tuple(tuple(r) for r in table))


@pytest.mark.parametrize("cells, clause, status, detail, verdict", [
    # a definite failure beside an interval in the same clause is a fail
    ({(4, 1): Iv(2, 2), (5, 0): Iv(0, 3)}, "extreme-piece", "fail",
     "h^{4,1}: got 2", "not-cy-type"),
    ({(1, 0): Iv(0, 2), (2, 0): Iv(1, 1)}, "no-holomorphic-forms", "fail",
     "h^{2,0}: got 1", "not-cy-type"),
    # an interval that excludes the wanted value is a fail
    ({(4, 1): Iv(2, 5)}, "extreme-piece", "fail", "h^{4,1}: got [2,5]",
     "not-cy-type"),
    ({(1, 0): Iv(1, 3)}, "no-holomorphic-forms", "fail", "h^{1,0}: got [1,3]",
     "not-cy-type"),
    # an interval that holds the wanted value stays open
    ({(4, 1): Iv(0, 3)}, "extreme-piece", "inconclusive", "h^{4,1}: got [0,3]",
     "inconclusive"),
    ({}, "extreme-piece", "pass", "h^{4,1} = 1 and zero above", "cy-type"),
], ids=["h41-2-beside-open-h50", "h20-1-after-open-h10", "h41-in-2-5", "h10-in-1-3",
        "h41-in-0-3", "exact"])
def test_cy_type_verdict_clause_rule(cells, clause, status, detail, verdict):
    moduli = ModuliReport(value=0, route="synthetic", inputs=())
    report = cy_type_verdict(_synthetic_fivefold(cells), moduli)
    clauses = {name: (s, d) for name, s, d in report.clauses}
    assert clauses[clause] == (status, detail)
    assert report.verdict == verdict


def test_cy_type_verdict_refuses_an_even_dimension():
    row = HodgeRow(SectionSpec(projective_space(2)), ((Iv(1, 1),),))
    with pytest.raises(ValueError, match="^Calabi-Yau type needs odd dimension$"):
        cy_type_verdict(row)


# ------------------------------------------------------------- other tables


def test_quadric_section_moduli_table():
    for name, count in MUKAI_MODULI.items():
        spec = section_spec(CAT.space(name), (2,))
        report = deformation_moduli(spec)
        assert (report.route, report.value) == ("cohomological", count), name


def test_hyperplane_section_moduli_table():
    for name, count in LINEAR_MODULI.items():
        spec = linear_section(CAT.space(name), 1)
        routes = {m.route: m.value for m in moduli_routes(spec)}
        assert routes == dict.fromkeys(("grassmannian", "cohomological",
                                        "hodge-middle"), count), name


def test_theta_diagonal_hodge_numbers():
    row = section_hodge(linear_section(CAT.space("LG(3,6)"), 1))
    assert row.n == 5
    assert [row.entry(p, p).lo for p in range(6)] == [1, 1, 1, 1, 1, 1]
    assert all(row.entry(p, p).exact for p in range(6))
    for p in range(6):
        q = 5 - p
        assert (row.entry(p, q).lo, row.entry(p, q).hi) == (0, 0)
    assert section_line_h0(linear_section(CAT.space("LG(3,6)"), 1), 2) == 70


# ------------------------------------------------------------ double covers


def cover_chi(spec, p):
    """chi(Omega^p of the double cover): invariant part plus log part."""
    half = tuple(b // 2 for b in spec.branch_degree)
    base = SectionSpec(spec.ambient, spec.cut_degrees)
    divisor = SectionSpec(spec.ambient, spec.cut_degrees + (spec.branch_degree,))
    return (chi_section_forms(base, p)
            + chi_section_forms(base, p, half)
            + chi_section_forms(divisor, p - 1, half))


def resolve_middle(spec, p):
    """Pin h^{p, n-p} of a cover from the chi oracle and the exact entries."""
    row = double_cover_hodge(spec)
    n = row.n
    others = 0
    for q in range(n + 1):
        if q == n - p:
            continue
        assert row.entry(p, q).exact, (p, q)
        others += (-1 if q % 2 else 1) * row.entry(p, q).lo
    sign = -1 if (n - p) % 2 else 1
    return row, (cover_chi(spec, p) - others) * sign


def test_double_covers_of_p5_match_weighted_hypersurfaces():
    p5 = projective_space(5)
    for branch, w_top, want in [(4, 2, (1, 90)), (8, 4, (462, 6891))]:
        spec = section_spec(p5, (), branch=branch)
        row, resolved = resolve_middle(spec, 2)
        assert row.n == 5
        assert row.entry(4, 1).exact and row.entry(4, 1).lo == want[0]
        assert resolved == want[1]
        # the same variety as a hypersurface in a weighted projective space
        st = steenbrink_hodge((1, 1, 1, 1, 1, 1, w_top), branch)
        assert st.entries == (0, want[0], want[1], want[1], want[0], 0)
        lo, hi = row.entry(2, 3).lo, row.entry(2, 3).hi
        assert lo <= want[1] <= hi


def test_double_cover_moduli_of_p5():
    p5 = projective_space(5)
    for branch, want in ((4, 90), (8, 1251)):
        report = deformation_moduli(section_spec(p5, (), branch=branch))
        assert (report.route, report.value) == ("double-cover-count", want)
    assert steenbrink_hodge((1, 1, 1, 1, 1, 1, 2), 4).moduli == 90
    assert steenbrink_hodge((1, 1, 1, 1, 1, 1, 4), 8).moduli == 1251


def test_dual_double_covers_match_their_jacobian_rings():
    # the dual of an even-degree series space is a double cover of P^{r-c}:
    # a weighted hypersurface whose Jacobian ring counts the same moduli
    seen = {}
    for name in CAT.table("series41")["rows"]:
        space = CAT.space(name)
        r, c = space.picard_index, space.coindex
        if (c - 1) % 2:
            continue
        dual = dual_correspondence(space).dual_moduli
        ring = steenbrink_hodge((1,) * (r - c + 1) + ((c - 1) // 2,), c - 1)
        assert dual.route == "double-cover-count", name
        assert dual.value == ring.moduli, name
        seen[name] = dual.value
    assert seen == {"S12": 90, "S14": 149}


def test_double_cover_of_theta():
    spec = section_spec(CAT.space("LG(3,6)"), (1,), branch=2)
    row, resolved = resolve_middle(spec, 2)
    assert row.n == 5
    assert row.entry(4, 1).lo == 1 and row.entry(4, 1).exact
    assert row.entry(2, 2).lo == 1 and row.entry(2, 2).exact
    assert resolved == 62
    report = deformation_moduli(spec)
    assert (report.route, report.value) == ("double-cover-count", 61)
    # the two numbers differ: that gap is carried by the reports, not hidden
    assert resolved - report.value == 1


def test_double_cover_moduli_honours_the_route():
    spec = section_spec(projective_space(5), (), branch=4)
    for route in (None, "double-cover-count"):
        report = deformation_moduli(spec, route=route)
        assert (report.route, report.value) == ("double-cover-count", 90)
    for route in ("grassmannian", "cohomological"):
        with pytest.raises(ValueError, match=f"{route} route needs an unbranched section"):
            deformation_moduli(spec, route=route)
    with pytest.raises(ValueError, match="unknown route 'no-such-route'"):
        deformation_moduli(spec, route="no-such-route")


@pytest.mark.parametrize("spec, route, message", [
    (section_spec(CAT.space("S10")), None, "the ambient space itself has no moduli"),
    (section_spec(CAT.space("S10"), (2,)), "grassmannian",
     "grassmannian route needs linear cuts"),
    (section_spec(CAT.space("S10"), (1, 2)), "cohomological",
     "cohomological route needs cuts of equal degree"),
    (section_spec(CAT.space("S10"), (1, 2)), None,  # cohomological by default
     "cohomological route needs cuts of equal degree"),
    (section_spec(CAT.space("S10"), (1,)), "no-such-route", "unknown route 'no-such-route'"),
    (section_spec(CAT.space("S10"), (1,), branch=2), None,
     "automorphism dimension of .* is not stored"),
    (linear_section(CAT.space("G(2,6)"), 1), None,
     r"^G\(2,6\), cut \(1,\): the grassmannian route counts -21 moduli; "
     "a count below 0 is refused$"),
], ids=["no-cuts", "grassmannian-nonlinear", "cohomological-unequal",
        "default-unequal", "unknown-route", "cover-base-aut-unknown",
        "negative-count"])
def test_every_deformation_moduli_refusal(spec, route, message):
    with pytest.raises(ValueError, match=message):
        deformation_moduli(spec, route=route)
    if route is None and len(set(spec.cut_degrees)) < 2:  # its first route refuses
        with pytest.raises(ValueError, match=message):
            moduli_routes(spec)


@pytest.mark.parametrize("ambient, cuts, branch",
                         [("P5", (), 4), ("P5", (), 8), ("LG(3,6)", (1,), 2)])
def test_cover_provenance_holds_its_base_table_facts(ambient, cuts, branch):
    # the cover's table adds the untwisted table of its base, so every fact
    # behind the base's own row is behind the cover's row too
    space = projective_space(5) if ambient == "P5" else CAT.space(ambient)
    base = section_hodge(section_spec(space, cuts)).as_json()
    cover = double_cover_hodge(section_spec(space, cuts, branch=branch)).as_json()
    assert set(base["provenance"]) <= set(cover["provenance"])


# ------------------------------------------------- complete intersections


def test_complete_intersection_moduli():
    assert ci_moduli(8, (3,)).value == 84       # cubic sevenfold
    assert ci_moduli(7, (2, 3)).value == 83     # cubic section of a quadric
    assert ci_moduli(6, (2, 2, 3)).value == 73
    report = ci_moduli(8, (3,))
    assert dict(report.inputs)["pgl"] == 80     # dim PGL(9)


def test_complete_intersection_moduli_refusals():
    # the conic and the empty list used to count -3 and -15, and P^-1 one
    with pytest.raises(ValueError, match=r"^degrees \(2,\) in P2: the hypersurface-count "
                                         r"route counts -3 moduli; a count below 0 is refused$"):
        ci_moduli(2, (2,))
    for n, degrees in ((-1, ()), (0, (2,)), (3, ())):
        with pytest.raises(ValueError, match=rf"^P{n} with degrees .*: need N >= 1 and a degree$"):
            ci_moduli(n, degrees)
    # deformation_moduli refuses the same conic as a P2 section, in the same words
    with pytest.raises(ValueError, match="counts -3 moduli; a count below 0 is refused"):
        deformation_moduli(section_spec(projective_space(2), (2,)))


# ------------------------------------------------------- dual hypersurfaces


def test_dual_correspondence_table():
    for name, (desc, dual_dim, count) in DUALS.items():
        rep = dual_correspondence(CAT.space(name))
        assert rep.description == desc, name
        assert rep.dual_dim == dual_dim
        assert rep.x_moduli.value == count
        assert rep.dual_moduli.value == count
        assert rep.agree
        assert rep.j_dim == count + 1


# ------------------------------------------------------------ range lemmas


def test_vanishing_scan_finds_single_cell():
    for name, (p, k, degree) in SCAN_CELLS.items():
        space = CAT.space(name)
        facts = space_facts(space)
        assert (p, k) == (facts["coindex"] - 2, facts["index"] - facts["coindex"] + 1)
        assert lemma_van_scan(space) == [(p, k, degree, 1)], name


SERIES_MIDDLE = {
    "OP2": [0, 0, 1, 84, 84, 1, 0, 0],
    "S12": [0, 0, 0, 1, 90, 90, 1, 0, 0, 0],
    "G(2,10)": [0, 0, 0, 0, 1, 101, 101, 1, 0, 0, 0, 0],
    "S14": [0, 0, 0, 0, 0, 0, 0, 1, 149, 149, 1, 0, 0, 0, 0, 0, 0, 0],
}

SERIES_MODULI = {"OP2": 84, "S12": 90, "G(2,10)": 101, "S14": 149}

MUKAI_MODULI = {
    "(P1)^4": 68,
    "G2ad": 62,
    "P3xP3": 69,
    "LG(3,6)": 62,
    "IG(2,6)": 68,
    "G(2,6)": 69,
    "S10": 80,
}

LINEAR_MODULI = {
    "(P1)^6": 45,
    "(P1)^3xP3": 55,
    "(P2)^4": 48,
    "(P4)^3": 52,
    "G(2,5)xG(2,5)": 51,
    "G(4,9)": 45,
    "G(3,11)": 44,
}

DUALS = {
    "OP2": ("cubic sevenfold", 7, 84),
    "S12": ("double quartic fivefold", 5, 90),
    "G(2,10)": ("quintic threefold", 3, 101),
    "S14": ("double octic threefold", 3, 149),
}

SCAN_CELLS = {
    "OP2": (2, 9, 14),
    "S12": (3, 6, 12),
    "G(2,10)": (4, 5, 12),
    "S14": (7, 4, 14),
}


def brute_sym_groups(cuts, nf, k):
    """Sym^k twist vectors by listing every multiset of k cuts."""
    groups = {}
    for ms in combinations_with_replacement(range(len(cuts)), k):
        v = tuple(sum(cuts[i][f] for i in ms) for f in range(nf))
        groups[v] = groups.get(v, 0) + 1
    return tuple(sorted(groups.items()))


def brute_wedge_groups(cuts, nf, j):
    """wedge^j twist vectors by listing every j-subset of the cuts."""
    groups = {}
    for subset in combinations(range(len(cuts)), j):
        v = tuple(sum(cuts[i][f] for i in subset) for f in range(nf))
        groups[v] = groups.get(v, 0) + 1
    return tuple(sorted(groups.items()))


@st.composite
def cut_list(draw):
    nf = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(1, 3)] * nf)
    cuts = draw(st.lists(vec, max_size=8))
    return tuple(cuts), nf, draw(st.integers(0, 6))


@pytest.mark.parametrize("sym, brute", [(True, brute_sym_groups),
                                         (False, brute_wedge_groups)],
                         ids=["sym", "wedge"])
@settings(max_examples=300, deadline=None)
@given(cut_list())
def test_sym_groups_match_multiset_enumeration(sym, brute, case):
    cuts, nf, k = case
    assert _groups(cuts, nf, k, sym) == brute(cuts, nf, k)


def orbit(n, p, q):
    """(p, q) under Hodge symmetry and Serre duality."""
    return {(p, q), (q, p), (n - p, n - q), (n - q, n - p)}


@st.composite
def consistent_table(draw):
    """Intervals around one table that both symmetries fix, so no meet of
    an orbit is empty; each upper end may be far above the truth."""
    n = draw(st.integers(0, 6))
    cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    reps = sorted({min(orbit(n, p, q)) for p, q in cells})
    # one list draw per kind: the orbit values, then each cell's two offsets,
    # the lower one taken mod v + 1 so it spans 0..v
    values = draw(st.lists(st.integers(0, 50), min_size=len(reps), max_size=len(reps)))
    downs = draw(st.lists(st.integers(0, 50), min_size=len(cells), max_size=len(cells)))
    ups = draw(st.lists(st.one_of(st.integers(0, 20), st.integers(21, 10**6)),
                        min_size=len(cells), max_size=len(cells)))
    truth = {}
    for rep, v in zip(reps, values):
        truth.update(dict.fromkeys(orbit(n, *rep), v))
    flat = [Iv(truth[c] - down % (truth[c] + 1), truth[c] + up)
            for c, down, up in zip(cells, downs, ups)]
    return n, [flat[p * (n + 1):(p + 1) * (n + 1)] for p in range(n + 1)]


@settings(max_examples=300, deadline=None)
@given(consistent_table())
def test_symmetrize_meets_each_orbit_in_one_call(case):
    n, table = case
    before = [row[:] for row in table]
    changed = _symmetrize(table, n)
    for p in range(n + 1):
        for q in range(n + 1):
            want = before[p][q]
            for a, b in orbit(n, p, q):
                want = want.meet(before[a][b])
            assert table[p][q] == want
            old, new = before[p][q], table[p][q]
            assert new.lo >= old.lo
            assert new.hi <= old.hi
    assert changed == (table != before)
    assert not _symmetrize(table, n)


@pytest.mark.parametrize("cell, other", [((1, 2), (2, 1)), ((0, 1), (3, 2))],
                         ids=["hodge-symmetry", "serre-duality"])
def test_symmetrize_raises_on_an_orbit_with_an_empty_meet(cell, other):
    """Two cells of one orbit of a threefold's table that exclude each other
    make the table inconsistent, which the meet of the orbit reports."""
    table = [[Iv(0, 10**6) for _ in range(4)] for _ in range(4)]
    (p, q), (a, b) = cell, other
    table[p][q], table[a][b] = Iv(0, 1), Iv(2, 10**6)
    with pytest.raises(ChaseError, match="empty interval"):
        _symmetrize(table, 3)


# ------------------------------------------------------ E1 on Koszul terms

# (ambient, cuts, branch) of the Hodge tables of the sections benchmark, a
# copy of SECTION_SPECS in bench/workloads.py (None is projective 5-space).
# The count of 470 closed complexes below is tied to that list: when it
# changes, copy it here again and re-pin the count.
SECTION_TABLES = (
    [(sp, (2,), None) for sp in ("G(2,6)", "LG(3,6)", "P3xP3", "(P1)^4", "S10",
                                 "(P1)^6", "(P1)^3xP3", "(P2)^4")]
    + [(sp, (1,), None) for sp in ("G(2,6)", "LG(3,6)", "P3xP3", "S10", "(P2)^4",
                                   "G(2,5)xG(2,5)", "(P4)^3")]
    + [(sp, (1, 1), None) for sp in ("G(2,6)", "S10", "LG(3,6)", "P3xP3")]
    + [(None, (), 4), (None, (), 8), ("LG(3,6)", (1,), 2)]
)


def _sections_tables():
    for ambient, cuts, branch in SECTION_TABLES:
        space = projective_space(5) if ambient is None else CAT.space(ambient)
        spec = section_spec(space, cuts, branch=branch)
        (section_hodge if branch is None else double_cover_hodge)(spec)


@pytest.mark.parametrize("run, closed", [(lambda: run_verify(CAT), 233),
                                         (_sections_tables, 470)],
                         ids=["verify", "sections"])
def test_every_koszul_complex_e1_closes_lies_inside_the_solver(
        monkeypatch, run, closed):
    """Every Koszul restriction that E1 degeneration closes, from cold
    caches, is exact and lies inside the solver's result on the same terms
    and seed; the counts are the solves it saves."""
    seen, e1 = [], hodge._e1_sums

    def recording(terms, top):
        out = e1(terms, top)
        if out is not None:
            seen.append((terms, top, out))
        return out

    monkeypatch.setattr(hodge, "_e1_sums", recording)
    for cached in (hodge.restricted_forms, hodge._cotangent_terms, hodge_table):
        cached.cache_clear()
    run()
    assert len(seen) == closed
    for terms, top, out in seen:
        n_amb = len(terms[0]) - 1
        seed = {q: 0 for q in range(top + 1, n_amb + 1)}
        solved = solve_exact_complex(terms, seed, n_amb)[: top + 1]
        assert all(v.exact and v.lo in iv for v, iv in zip(out, solved))
