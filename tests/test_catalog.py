"""Catalog of marked homogeneous spaces: recomputed geometry facts must match
the stored reference tables."""

import json
import os
import pickle
import subprocess
import sys

import pytest

from bwb.bott import (
    Bundle,
    _factor_group,
    _forms_cohomology,
    bott,
    bundle,
    euler_char,
    forms_cohomology,
    kostant_forms,
    sequence_cohomology,
    spinor_sequence_cohomology,
    trivial_bundle,
)
from bwb.catalog import default_catalog, load_catalog, projective_space, space_facts
from bwb.chase import ses_middle, solve_exact_complex
from bwb.cli import main
from bwb.hodge import (
    chase_section_forms,
    chi_section_forms,
    ci_moduli,
    closed_form_hcc1,
    linear_section,
    restricted_forms,
    section_forms,
    section_spec,
)
from bwb.rootsys import root_system, to_dominant, weyl_dim

S10 = default_catalog().space("S10")
OP2 = default_catalog().space("OP2")
P3xP3 = default_catalog().space("P3xP3")
A3 = root_system("A", 3)


def test_catalog_lists_all_spaces():
    cat = default_catalog()
    assert sorted(cat.spaces) == sorted(FACTS)


def test_space_facts_match_frozen_table():
    cat = default_catalog()
    for name, want in FACTS.items():
        facts = space_facts(cat.space(name))
        got = (facts["dim"], facts["index"], facts["coindex"],
               facts["N"], facts["delta"])
        assert got == want, name


def test_series_fixture_rows_agree_with_root_data():
    cat = default_catalog()
    for name in ("OP2", "S12", "G(2,10)", "S14"):
        fx = cat.fixture(name, "series41")
        facts = space_facts(cat.space(name))
        for col in ("dim", "index", "coindex"):
            assert fx[col] == facts[col], (name, col)
        # stored dual degree is one less than the coindex
        assert fx["dual_degree"] == facts["coindex"] - 1


def test_moduli_fixture_geometry_columns():
    cat = default_catalog()
    for name in ("OP2", "S12", "G(2,10)", "S14"):
        fx = cat.fixture(name, "moduli43")
        facts = space_facts(cat.space(name))
        assert fx["s"] == facts["s"]
        assert fx["N"] == facts["N"]
        assert fx["delta"] == facts["delta"]


def test_cominuscule_flags():
    cat = default_catalog()
    for name, flag in COMINUSCULE.items():
        assert cat.space(name).cominuscule is flag, name


def test_ample_vector_of_mixed_product():
    sp = default_catalog().space("(P1)^3xP3")
    assert sp.ample == (1, 1, 1, 2)
    assert sp.picard_index == 2


def test_degree_vector_scales_ample_and_checks_length():
    sp = default_catalog().space("(P1)^3xP3")
    assert sp.degree_vector(-2) == (-2, -2, -2, -4)
    assert sp.degree_vector([1, 0, 0, 3]) == (1, 0, 0, 3)
    for bad in ((1,), (1, 1, 1, 2, 0), ()):
        with pytest.raises(ValueError, match="one twist per factor"):
            sp.degree_vector(bad)


# Every entry point that takes a twist, a degree or a Bott sequence refuses
# a non-integer, 4.0 included, before anything is computed or cached.
NON_INTEGER_CALLS = {
    "forms_cohomology-1.5": lambda: forms_cohomology(S10, 1, 1.5),
    "forms_cohomology-(-3.0,)": lambda: forms_cohomology(S10, 1, (-3.0,)),
    "twisted-(2.0,)": lambda: trivial_bundle(S10).twisted((2.0,)),
    "bundle-(1.5,)": lambda: bundle(S10, ((0,) * 5,), (1.5,)),
    "bott-(0, 0, 0, 0, 2.0)": lambda: bott(Bundle(S10, ((0, 0, 0, 0, 2.0),))),
    "section_spec-((2.0,),)": lambda: section_spec(S10, ((2.0,),)),
    "linear_section-1.0": lambda: linear_section(S10, 1.0),
    "sequence_cohomology-floats": lambda: sequence_cohomology((2.0, 1.0, 0.0)),
    "sequence_cohomology-2.5": lambda: sequence_cohomology((2.5, 1, 0)),
    "spinor_sequence_cohomology-halves":
        lambda: spinor_sequence_cohomology((1.5, 0.5)),
    # the integer rank first: an untyped cache handed 3.0 the slot of 3
    "root_system-3.0": lambda: (root_system("A", 3), root_system("A", 3.0)),
    "solve_exact_complex-top-0.0": lambda: solve_exact_complex([[1]], {}, 0.0),
    "ses_middle-top-0.0": lambda: ses_middle([1], [1], 0.0),
    "closed_form_hcc1-9.0": lambda: closed_form_hcc1(OP2, 9.0),
    "ci_moduli-7.0": lambda: ci_moduli(7.0, (3,)),
    "ci_moduli-(3.0,)": lambda: ci_moduli(7, (3.0,)),
    # 4.0 was the dimension; 0.5 tripped a bare assert, which -O strips
    "weyl_dim-(1.0, 0, 0)": lambda: weyl_dim(A3, (1.0, 0, 0)),
    "weyl_dim-(0.5, 0, 0)": lambda: weyl_dim(A3, (0.5, 0, 0)),
    # the walk read 1.5 as a singular, hence acyclic, weight
    "to_dominant-(1.5, 0, 0)": lambda: to_dominant(A3, (1.5, 0, 0)),
    # 0.5 < 1 used to come first, with the range message
    "projective_space-0.5": lambda: projective_space(0.5),
}


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(), ids=NON_INTEGER_CALLS)
def test_every_entry_point_refuses_a_non_integer(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_a_weight_of_the_wrong_length_is_refused():
    # weyl_dim raised IndexError, and to_dominant read (1, 0) as singular
    for call in (weyl_dim, to_dominant):
        with pytest.raises(ValueError, match=r"^weight \(1, 0\) has 2 coordinates, not 3$"):
            call(A3, (1, 0))
    assert weyl_dim(A3, [1, 0, 0]) == 4


def test_weyl_dim_refuses_a_weight_that_is_not_dominant():
    # the formula read (-5, 0, 0) as -4 and (-1, 0, 0) as 0
    for lam in ((-5, 0, 0), [-1, 0, 0]):
        with pytest.raises(ValueError, match=rf"^weight \({lam[0]}, 0, 0\) is not dominant$"):
            weyl_dim(A3, lam)
    assert weyl_dim(A3, (0, 0, 0)) == 1


def test_a_bool_projective_dimension_is_its_int():
    assert projective_space(True) == projective_space(1)
    assert projective_space(True).name == "P1"


S10_Q = section_spec(S10, (2,))

# each is called once with the integer degree first, so a cache keyed on
# the integer would hand the float call its result
NON_INTEGER_FORM_DEGREES = {
    "forms_cohomology": lambda p: forms_cohomology(S10, p, 0),
    "kostant_forms": lambda p: kostant_forms(S10, p),
    "euler_char": lambda p: euler_char(S10, p),
    "section_forms": lambda p: section_forms(S10_Q, p),
    "chase_section_forms": lambda p: chase_section_forms(S10, ((2,),), p, (0,)),
    "chi_section_forms": lambda p: chi_section_forms(S10_Q, p),
    "restricted_forms": lambda p: restricted_forms(P3xP3, ((1, 1),), p, (0, 0)),
}


@pytest.mark.parametrize("call", NON_INTEGER_FORM_DEGREES.values(),
                         ids=NON_INTEGER_FORM_DEGREES)
def test_every_form_degree_entry_point_refuses_a_non_integer(call):
    call(1)
    with pytest.raises(ValueError, match="form degree must be an integer"):
        call(1.0)


@pytest.mark.parametrize("call", NON_INTEGER_FORM_DEGREES.values(),
                         ids=NON_INTEGER_FORM_DEGREES)
def test_every_form_degree_entry_point_takes_an_index_object(call):
    class One:
        def __index__(self):
            return 1

    assert call(One()) == call(1)


# The Koszul and cotangent chases pass the twist and every cut through
# degree_vector.  A zip read (3, 99) as (3,) and a cut (2, 7) as (2,), and a
# short twist was refused under its sum with a cut, (1,) for (0,).
WRONG_LENGTH_CHASE_CALLS = {
    "restricted_forms-twist-(3, 99)": (
        lambda: restricted_forms(S10, ((2,),), 1, (3, 99)), "S10, got (3, 99)"),
    "chase_section_forms-twist-(1, -50)": (
        lambda: chase_section_forms(S10, ((2,),), 2, (1, -50)), "S10, got (1, -50)"),
    "restricted_forms-cut-(2, 7)": (
        lambda: restricted_forms(S10, ((2, 7),), 1, (3,)), "S10, got (2, 7)"),
    "chase_section_forms-cut-(2, 7)": (
        lambda: chase_section_forms(S10, ((2, 7),), 2, (1,)), "S10, got (2, 7)"),
    "restricted_forms-twist-(0,)": (
        lambda: restricted_forms(P3xP3, ((1, 1),), 1, (0,)), "P3xP3, got (0,)"),
}


@pytest.mark.parametrize("call, named", WRONG_LENGTH_CHASE_CALLS.values(),
                         ids=WRONG_LENGTH_CHASE_CALLS)
def test_the_chases_refuse_a_vector_of_the_wrong_length(call, named):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"need one twist per factor of {named}"


def test_the_chases_read_an_integer_twist_as_copies_of_l():
    # an int twist raised TypeError in the vector sum
    assert restricted_forms(S10, ((2,),), 1, 3) == restricted_forms(S10, ((2,),), 1, (3,))
    assert restricted_forms(P3xP3, ((1, 1),), 1, -1) == restricted_forms(
        P3xP3, ((1, 1),), 1, (-1, -1))
    assert chase_section_forms(S10, ((2,),), 2, 1) == chase_section_forms(S10, ((2,),), 2, (1,))


def test_a_refused_float_twist_leaves_the_integer_cache_clean():
    # a float key equal to an integer one used to take its cache slot:
    # forms_cohomology(S10, 1, (-3,)) then returned {0: 1200.0}
    _forms_cohomology.cache_clear()
    with pytest.raises(ValueError):
        forms_cohomology(S10, 1, (-3.0,))
    got = forms_cohomology(S10, 1, (-3,))
    assert got == {0: 1200}
    assert all(type(d) is int for d in got.values())


def test_a_refused_float_weight_leaves_the_walk_cache_clean():
    # (0, 0, 0, 0, -9.0) == (0, 0, 0, 0, -9) and both hash alike, so a float
    # weight let into the walk cache would take the integer weight's slot
    _factor_group.cache_clear()
    with pytest.raises(ValueError):
        bott(Bundle(S10, ((0, 0, 0, 0, -9.0),)))
    got = bott(Bundle(S10, ((0, 0, 0, 0, -9),)))
    assert got.dims() == {10: 16}
    degree, (mu,), dim = got.single()
    assert all(type(v) is int for v in (degree, *mu, dim))
    with pytest.raises(ValueError):
        bott(Bundle(S10, ((0, 0, 0, 0, -9.0),)))
    assert _factor_group.cache_info().currsize == 1


def test_an_index_object_is_an_integer_twist():
    class MinusThree:
        def __index__(self):
            return -3

    assert S10.degree_vector(MinusThree()) == (-3,)
    assert S10.degree_vector([MinusThree()]) == (-3,)
    assert forms_cohomology(S10, 1, MinusThree()) == {0: 1200}
    assert trivial_bundle(S10).twisted(MinusThree()) == trivial_bundle(S10).twisted(-3)


def test_spinor_ample_is_half_spin():
    s10 = default_catalog().space("S10")
    f = s10.factors[0]
    assert (f.rs.series, f.rs.rank, f.node) == ("D", 5, 4)
    assert s10.ample == (1,)
    assert s10.n_plus_one == 16


def test_projective_space_facts():
    p5 = projective_space(5)
    facts = space_facts(p5)
    assert (facts["dim"], facts["index"], facts["N"], facts["delta"]) == (5, 6, 5, 35)
    assert p5.cominuscule
    with pytest.raises(ValueError):
        projective_space(0)


def test_equal_spaces_hash_alike_and_share_one_cache_entry():
    one, two = load_catalog(), load_catalog()
    pairs = [(one.space(name), two.space(name)) for name in sorted(one.spaces)]
    pairs.append((projective_space(5), projective_space(5)))
    for a, b in pairs:
        assert a is not b and a == b and hash(a) == hash(b), a
        for f, g in zip(a.factors, b.factors):
            assert f is not g and f == g and hash(f) == hash(g), a
    for a, b in (pairs[0], pairs[-1]):
        _forms_cohomology.cache_clear()
        assert forms_cohomology(a, 1, 2) == forms_cohomology(b, 1, 2)
        info = _forms_cohomology.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1), a


def test_a_pickled_factor_hashes_alike_in_another_process():
    # the factor caches its hash, and a pickle carries that cached value
    f = S10.factors[0]
    hash(f)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = ("import pickle, sys; from bwb.catalog import default_catalog; "
            "g = pickle.loads(sys.stdin.buffer.read()); "
            "f = default_catalog().space('S10').factors[0]; "
            "print(g == f and hash(g) == hash(f) and {f: 1}.get(g) == 1)")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(f),
                         capture_output=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
    assert out.stdout.strip() == b"True"


def test_cached_space_properties_equal_their_recomputed_values():
    cat = load_catalog()
    for name in sorted(cat.spaces):
        space = cat.space(name)
        dims, flags = [], []
        for f in space.factors:
            rank, node = f.rs.rank, f.node
            dims.append(sum(a[node] != 0 for a in f.rs.positive_roots))
            flags.append(f.rs.positive_roots[-1][node] == 1)
            for _ in range(2):  # the computed value, then the cached one
                assert f.dim == dims[-1], name
                assert f.cominuscule is flags[-1], name
                assert f.unmarked == frozenset(range(rank)) - {node}, name
        for _ in range(2):
            assert space.dim == sum(dims), name
            assert space.cominuscule is all(flags), name


def test_unknown_space_lists_catalog():
    with pytest.raises(KeyError, match="unknown space"):
        default_catalog().space("G(5,25)")


def test_documented_discrepancies_registry():
    cat = default_catalog()
    keys = {(d["table"], d["row"], d["column"]) for d in cat.discrepancies}
    assert keys == DOCUMENTED
    for d in cat.discrepancies:
        key = (d["table"], d["row"], d["column"])
        assert cat.is_documented_discrepancy(*key, d["computed"])
        assert not cat.is_documented_discrepancy(*key, "some other value")
    assert not cat.is_documented_discrepancy("moduli43", "OP2", "moduli", 84)
    # every discrepancy carries both values and an explanation
    for d in cat.discrepancies:
        assert {"fixture", "computed", "note"} <= set(d)


def test_env_override_and_schema_guard(tmp_path, monkeypatch):
    cat = default_catalog()
    with open(cat.path, encoding="utf-8") as fh:
        raw = json.load(fh)

    raw["schema_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="schema"):
        load_catalog(str(bad))

    raw["schema_version"] = 1
    raw["spaces"] = [s for s in raw["spaces"] if s["name"] == "S10"]
    small = tmp_path / "small.json"
    small.write_text(json.dumps(raw))
    monkeypatch.setenv("BWB_CATALOG", str(small))
    override = load_catalog()
    assert list(override.spaces) == ["S10"]
    assert override.path == str(small)


@pytest.mark.parametrize("node", [0, 9, "5", 5.0])
def test_a_node_outside_its_factor_is_refused_at_load(tmp_path, monkeypatch, node):
    with open(default_catalog().path, encoding="utf-8") as fh:
        raw = json.load(fh)
    for entry in raw["spaces"]:
        if entry["name"] == "S10":
            entry["factors"][0]["node"] = node
    bad = tmp_path / "bad-node.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="node .*S10") as exc:
        load_catalog(str(bad))
    assert str(node) in str(exc.value)
    # the CLI exits with the same message, not a traceback or a wrong answer
    monkeypatch.setenv("BWB_CATALOG", str(bad))
    for argv in (["bott", "--space", "S10", "--form", "1"],
                 ["hodge", "--space", "S10", "--cut", "2"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == str(exc.value)


@pytest.mark.parametrize("key, value, message", [
    ("rank", 3, "space OP2: only E6 and E7 are supported"),
    ("series", "X", "space OP2: unknown series 'X'"),
    ("series", None, "a factor of OP2 has no 'series'"),  # None: key deleted
    # a list series used to reach root_system's cache: "unhashable type"
    ("series", ["E"], "space OP2: unknown series ['E']"),
    # a key of the space, not of its factor; it used to print only "factors"
    ("factors", None, "space OP2 has no 'factors'"),
], ids=["rank", "series", "no-series", "list-series", "no-factors"])
def test_a_bad_factor_is_refused_at_load_with_its_space(tmp_path, monkeypatch,
                                                         key, value, message):
    with open(default_catalog().path, encoding="utf-8") as fh:
        raw = json.load(fh)
    for entry in raw["spaces"]:
        if entry["name"] == "OP2":
            target = entry if key == "factors" else entry["factors"][0]
            if value is None:
                del target[key]
            else:
                target[key] = value
    bad = tmp_path / "bad-factor.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValueError) as exc:
        load_catalog(str(bad))
    assert str(exc.value) == message
    # a command about another space exits with that message, no traceback
    monkeypatch.setenv("BWB_CATALOG", str(bad))
    with pytest.raises(SystemExit) as exit_:
        main(["bott", "--space", "S10", "--form", "1"])
    assert exit_.value.code == message


# (dim, index, coindex, N, delta)
FACTS = {
    "OP2": (16, 12, 4, 26, 78),
    "S12": (15, 10, 5, 31, 66),
    "G(2,10)": (16, 10, 6, 44, 99),
    "S14": (21, 12, 9, 63, 91),
    "S10": (10, 8, 2, 15, 45),
    "G(2,6)": (8, 6, 2, 14, 35),
    "IG(2,6)": (7, 5, 2, 13, 21),
    "LG(3,6)": (6, 4, 2, 13, 21),
    "P3xP3": (6, 4, 2, 15, 30),
    "G2ad": (5, 3, 2, 13, 14),
    "(P1)^4": (4, 2, 2, 15, 12),
    "(P1)^6": (6, 2, 4, 63, 18),
    "(P1)^3xP3": (6, 2, 4, 79, 24),
    "(P2)^4": (8, 3, 5, 80, 32),
    "(P4)^3": (12, 5, 7, 124, 72),
    "G(2,5)xG(2,5)": (12, 5, 7, 99, 48),
    "G(4,9)": (20, 9, 11, 125, 80),
    "G(3,11)": (24, 11, 13, 164, 120),
}

COMINUSCULE = {
    "OP2": True,
    "S10": True,
    "G(2,10)": True,
    "LG(3,6)": True,
    "IG(2,6)": False,
    "G2ad": False,
    "(P1)^3xP3": True,
    "G(2,5)xG(2,5)": True,
}

DOCUMENTED = {
    ("linear33", "G(4,9)", "moduli"),
    ("linear33", "G(3,11)", "moduli"),
    ("quadric34", "S10", "h54"),
    ("weighted31", "cubic section of a quadric sixfold", "weights"),
}
