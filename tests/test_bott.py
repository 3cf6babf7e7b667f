"""Bundle cohomology on marked homogeneous spaces: the dominance walk against
closed-form fast paths, Euler characteristics, and frozen key values."""

import importlib
import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwb.bott import (
    Bundle,
    _factor_forms,
    _factor_group,
    _forms_cohomology,
    _kostant_pairings,
    _pad_partition,
    _padded,
    _vandermonde_den,
    bott,
    bundle,
    euler_char,
    fiber_dim,
    forms_cohomology,
    grassmann_bundle,
    grassmann_sequence,
    grassmann_shape,
    kostant_forms,
    sequence_cohomology,
    spinor_bundle,
    spinor_sequence,
    spinor_sequence_cohomology,
    spinor_shape,
    trivial_bundle,
)
from bwb.catalog import Factor, HomogSpace, default_catalog
from bwb.rootsys import minimal_coset_reps, root_system, to_dominant, weyl_dim
from test_acceptance import schur_spellings
from test_rootsys import orbit_dim

CAT = default_catalog()


def partitions(max_len, max_part):
    """All weakly decreasing nonnegative tuples, shortest first."""
    out = [()]
    for ln in range(1, max_len + 1):
        out.extend(
            p
            for p in itertools.combinations_with_replacement(
                range(max_part, -1, -1), ln
            )
        )
    return out


def test_structure_sheaf_and_twists():
    s10 = CAT.space("S10")
    o = trivial_bundle(s10)
    assert bott(o).dims() == {0: 1}
    assert fiber_dim(o) == 1
    # twisted() adds its argument: O(-1) on an index-8 tenfold is acyclic
    assert bott(o.twisted((-1,))).acyclic
    assert bott(o.twisted((-7,))).acyclic
    assert bott(o.twisted((-8,))).dims() == {10: 1}  # the canonical sheaf
    assert bott(o.twisted((-9,))).dims() == {10: 16}


def test_single_group_accessor():
    s10 = CAT.space("S10")
    tab = bott(trivial_bundle(s10))
    assert tab.single() == (0, ((0, 0, 0, 0, 0),), 1)
    assert bott(trivial_bundle(s10).twisted((-3,))).single() is None


def unmemoized_bott(b):
    """The reference for ``bott``: every factor walked, nothing cached."""
    degree, dim, mus = 0, 1, []
    for f, lam in zip(b.space.factors, b.weights):
        walk = to_dominant(f.rs, [c + 1 for c in lam])
        if walk.singular:
            return None
        mu = tuple(c - 1 for c in walk.dominant)
        degree += walk.length
        dim *= weyl_dim(f.rs, mu)
        mus.append(mu)
    return degree, tuple(mus), dim


def test_bott_equals_the_unmemoized_walk_on_every_series():
    rng = random.Random(20261019)
    # the catalog has no type B factor, so the quadric fivefold B3/P1 joins it
    spaces = [CAT.space(name) for name in sorted(CAT.spaces)]
    spaces.append(HomogSpace("Q5", (Factor(root_system("B", 3), 0),)))
    assert {f.rs.series for sp in spaces for f in sp.factors} == set("ABCDEG")
    _factor_group.cache_clear()
    bundles = []
    for space in spaces:
        for _ in range(60):
            bundles.append(Bundle(space, tuple(
                tuple(rng.randrange(-6, 7) for _ in range(f.rs.rank))
                for f in space.factors)))
    for b in bundles + bundles:  # first calls, then repeats
        assert bott(b).group == unmemoized_bott(b), b
    assert sum(bott(b).group is not None for b in bundles) > 100


def test_two_spellings_of_one_schur_bundle_cost_one_walk(monkeypatch):
    module = importlib.import_module("bwb.bott")
    walks = []

    def counting(rs, w):
        walks.append(tuple(w))
        return to_dominant(rs, w)

    monkeypatch.setattr(module, "to_dominant", counting)
    _factor_group.cache_clear()
    g26 = CAT.space("G(2,6)")
    short = grassmann_bundle(g26, (3,), (1,), -2)
    padded = grassmann_bundle(g26, (3, 0, 0, 0), (1, 0), -2)
    assert short == padded
    assert bott(short).group == bott(padded).group == unmemoized_bott(short)
    assert len(walks) == 1


def test_the_walk_cache_holds_one_entry_per_distinct_weight():
    _factor_group.cache_clear()
    weights = set()
    for _case, _fast, b in schur_spellings():
        bott(b)
        (f,) = b.space.factors
        weights.add((f.rs, b.weights[0]))
    assert _factor_group.cache_info().currsize == len(weights)


def test_one_dimensional_top_groups():
    for name, p, k, degree in TOP_CASES:
        space = CAT.space(name)
        assert forms_cohomology(space, p, k) == {degree: 1}, (name, p, k)


def test_s10_key_form_values():
    s10 = CAT.space("S10")
    for (p, k), want in S10_FORM_VALUES:
        assert forms_cohomology(s10, p, k) == want, (p, k)


def test_cotangent_weights_on_e6():
    op2 = CAT.space("OP2")
    assert [b.weights for b in kostant_forms(op2, 1)] == [((-2, 0, 1, 0, 0, 0),)]
    assert [b.weights for b in kostant_forms(op2, 2)] == [((-3, 0, 0, 1, 0, 0),)]


def test_e6_chain_pivots():
    op2 = CAT.space("OP2")
    (form2,) = kostant_forms(op2, 2)
    (lam,) = form2.twisted((-9,)).weights
    walk = to_dominant(op2.factors[0].rs, tuple(c + 1 for c in lam))
    assert not walk.singular
    assert walk.length == 14
    assert walk.dominant == (1, 1, 1, 1, 1, 1)
    assert [i + 1 for i in walk.pivots] == [1, 3, 4, 2, 5, 6, 4, 5, 3, 1, 4, 2, 3, 4]


def test_forms_split_multiplicity_free_with_binomial_ranks():
    for name in ("S10", "G(2,6)", "LG(3,6)", "OP2", "(P1)^3xP3"):
        space = CAT.space(name)
        for p in range(space.dim + 1):
            ranks = [fiber_dim(b) for b in kostant_forms(space, p)]
            assert sum(ranks) == comb(space.dim, p), (name, p)


def test_second_form_of_s10_is_irreducible():
    (b,) = kostant_forms(CAT.space("S10"), 2)
    assert fiber_dim(b) == 45


def _nested_kostant_forms(space, p):
    """The weights of the summands of Omega^p from nested loops, one per
    factor with the first outermost, each over its levels from the top down
    and over the weights of a level in order."""
    reps = [minimal_coset_reps(f.rs, f.node) for f in space.factors]
    out = []

    def rec(i, left, acc):
        if i == len(reps):
            if left == 0:
                out.append(tuple(acc))
            return
        for pf in range(min(left, len(reps[i]) - 1), -1, -1):
            for w in reps[i][pf]:
                rec(i + 1, left - pf, acc + [w])

    rec(0, p, [])
    return out


def test_forms_summands_come_in_nested_loop_order_on_products():
    # bwb bott --form p --trace prints the summands in this order.  A loop
    # over the splittings first gives the same summands in another order; on
    # G(2,4)^3, whose middle level holds two weights, even with the
    # splittings in the same order
    g24 = Factor(root_system("A", 3), 1)
    spaces = [CAT.space(name) for name in
              ("(P1)^4", "(P1)^6", "(P1)^3xP3", "(P2)^4", "(P4)^3")]
    for space in spaces + [HomogSpace("G(2,4)^3", (g24,) * 3)]:
        for p in range(-1, space.dim + 2):
            got = [b.weights for b in kostant_forms(space, p)]
            assert got == _nested_kostant_forms(space, p), (space.name, p)


def test_forms_on_non_cominuscule_spaces():
    for name in ("IG(2,6)", "G2ad"):
        space = CAT.space(name)
        assert bott(kostant_forms(space, 0)[0]).dims() == {0: 1}
        with pytest.raises(ValueError, match="cominuscule"):
            kostant_forms(space, 1)
        assert forms_cohomology(space, 0, 1) == bott(
            kostant_forms(space, 0)[0].twisted(-1)).dims()
        with pytest.raises(ValueError, match="cominuscule"):
            forms_cohomology(space, 1, 0)


def test_diagonal_hodge_numbers():
    # H^*(Omega^p) is the one group h^{p,p} in degree p, so no off-diagonal
    # group; on products the diagonal is the factors' convolution (Kuenneth)
    for name, diagonal in (("S10", S10_DIAGONAL),
                           ("P3xP3", [1, 2, 3, 4, 3, 2, 1]),
                           ("(P1)^4", [1, 4, 6, 4, 1])):
        space = CAT.space(name)
        for p, b in enumerate(diagonal):
            assert forms_cohomology(space, p, 0) == {p: b}, (name, p)


def test_serre_duality_on_forms():
    # H^q(Omega^p(-k)) pairs with H^{n-q}(Omega^{n-p}(k)); forms_cohomology
    # answers one side from the other's cache entry, so both sides are
    # summed here without it
    direct = _forms_cohomology.__wrapped__
    for name in ("LG(3,6)", "G(2,6)", "S10", "P3xP3"):
        space = CAT.space(name)
        n = space.dim
        for p in range(n + 1):
            for k in range(-4, 5):
                lhs = dict(direct(space, p, space.degree_vector(k)))
                rhs = dict(direct(space, n - p, space.degree_vector(-k)))
                assert lhs == {n - q: d for q, d in rhs.items()}, (name, p, k)
                assert forms_cohomology(space, p, k) == lhs, (name, p, k)


def test_euler_characteristic_oracle_matches_walk():
    for name in ("S10", "G(2,6)", "LG(3,6)", "(P1)^4"):
        space = CAT.space(name)
        for p in range(space.dim + 1):
            for k in range(-6, 7):
                walked = sum(
                    (-1 if q % 2 else 1) * d
                    for q, d in forms_cohomology(space, p, k).items()
                )
                assert walked == euler_char(space, p, k), (name, p, k)


def test_euler_characteristic_reads_every_weight_from_the_walk_cache():
    s10 = CAT.space("S10")
    f = s10.factors[0]
    weights = set()
    for pf in range(3):
        for subset in itertools.combinations(f.u_root_indices, pf):
            weights.add(tuple(-sum(f.rs.root_coords[i][j] for i in subset)
                              for j in range(f.rs.rank)))
    _factor_group.cache_clear()
    euler_char(s10, 2, 0)
    info = _factor_group.cache_info()
    assert info.currsize == len(weights)
    for w in weights:
        _factor_group(f.rs, w)
    assert _factor_group.cache_info().misses == info.misses


def test_euler_characteristic_of_structure_sheaf_is_one():
    for name in ("S10", "OP2", "G(2,10)", "P3xP3", "(P1)^6"):
        assert euler_char(CAT.space(name), 0) == 1, name


def test_grassmann_fast_path_equals_walk():
    for name, qmax, emax, part in [("G(2,6)", 4, 2, 3), ("G(2,10)", 8, 2, 2)]:
        space = CAT.space(name)
        checked = 0
        for q_label in partitions(qmax, part):
            for e_label in partitions(emax, part):
                for twist in (-4, -2, 0):
                    seq = grassmann_sequence(space, q_label, e_label, twist)
                    fast = sequence_cohomology(seq)
                    table = bott(grassmann_bundle(space, q_label, e_label, twist))
                    if fast is None:
                        assert table.acyclic, (name, q_label, e_label, twist)
                    else:
                        q, mu, dim = table.single()
                        assert (q, dim) == fast, (name, q_label, e_label, twist)
                    checked += 1
        assert checked > 1000, name


def test_spinor_fast_path_equals_walk():
    for name, lmax, part, twists in [
        ("S10", 5, 4, range(-8, 1)),
        ("S12", 6, 3, range(-6, 1)),
    ]:
        space = CAT.space(name)
        checked = 0
        for label in partitions(lmax, part):
            for twist in twists:
                seq = spinor_sequence(space, label, twist)
                fast = spinor_sequence_cohomology(seq, doubled=True)
                table = bott(spinor_bundle(space, label, twist))
                if fast is None:
                    assert table.acyclic, (name, label, twist)
                else:
                    q, mu, dim = table.single()
                    assert (q, dim) == fast, (name, label, twist)
                checked += 1
        assert checked > 500, name


def reference_grassmann_bundle(space, q_label, e_label, twist):
    """The constructor as a round trip: unshift the fast-path sequence, then
    take differences of consecutive epsilon coordinates."""
    k, n = grassmann_shape(space)
    seq = grassmann_sequence(space, q_label, e_label, twist)
    v = [s - (n - 1 - i) for i, s in enumerate(seq)]
    return Bundle(space, (tuple(v[j] - v[j + 1] for j in range(n - 1)),))


def reference_spinor_bundle(space, label, twist):
    """The same round trip through the doubled type-D sequence."""
    n = spinor_shape(space)
    seq2 = spinor_sequence(space, label, twist)
    x2 = [s - 2 * (n - 1 - i) for i, s in enumerate(seq2)]
    assert all((a - b) % 2 == 0 for a, b in zip(x2, x2[1:]))
    coords = [(x2[j] - x2[j + 1]) // 2 for j in range(n - 1)]
    coords.append((x2[n - 2] + x2[n - 1]) // 2)
    return Bundle(space, (tuple(coords),))


# the Schur families of the ``bundles`` benchmark: criterion 9a with
# narrower twists (space, label shapes, twists)
CRITERION_9A = (
    ("G(2,6)", ((4, 3), (2, 3)), (-6, -4, -2, 0, 2)),
    ("G(2,10)", ((8, 2), (2, 2)), (-6, -3, 0)),
    ("S10", ((5, 4),), tuple(range(-10, 1))),
    ("S12", ((6, 3),), tuple(range(-8, 1))),
)


def test_schur_constructors_equal_the_sequence_round_trip_on_criterion_9a():
    checked = 0
    for name, shapes, twists in CRITERION_9A:
        space = CAT.space(name)
        for twist in twists:
            if len(shapes) == 2:
                for q_label in partitions(*shapes[0]):
                    for e_label in partitions(*shapes[1]):
                        assert grassmann_bundle(space, q_label, e_label, twist) == \
                            reference_grassmann_bundle(space, q_label, e_label, twist)
                        checked += 1
            else:
                for label in partitions(*shapes[0]):
                    assert spinor_bundle(space, label, twist) == \
                        reference_spinor_bundle(space, label, twist)
                    checked += 1
    assert checked == 14862


@st.composite
def schur_case(draw):
    name = draw(st.sampled_from(["G(2,6)", "G(2,10)", "G(3,11)", "G(4,9)",
                                 "S10", "S12", "S14"]))
    space = CAT.space(name)
    if space.factors[0].rs.series == "A":
        k, n = grassmann_shape(space)
        sizes = (n - k, k)
    else:
        sizes = (spinor_shape(space), 0)
    q_label, e_label = (
        tuple(sorted(draw(st.lists(st.integers(0, 9), max_size=m)), reverse=True))
        for m in sizes)
    return space, q_label, e_label, draw(st.integers(-25, 25))


@settings(max_examples=400, deadline=None)
@given(schur_case())
def test_schur_constructors_equal_the_sequence_round_trip_at_random(case):
    # odd twists on the spinor varieties included
    space, q_label, e_label, twist = case
    if space.factors[0].rs.series == "A":
        assert grassmann_bundle(space, q_label, e_label, twist) == \
            reference_grassmann_bundle(space, q_label, e_label, twist)
    else:
        assert spinor_bundle(space, q_label, twist) == \
            reference_spinor_bundle(space, q_label, twist)


def test_schur_inputs_must_be_integers():
    g26, s10 = CAT.space("G(2,6)"), CAT.space("S10")
    with pytest.raises(ValueError, match="integer"):
        grassmann_bundle(g26, (1.5,), ())
    with pytest.raises(ValueError, match="integer"):
        bundle(g26, ((0, 0, 0.5, 0, 0),))
    bad_calls = [
        lambda: grassmann_bundle(g26, (2.0, 1), ()),
        lambda: grassmann_bundle(g26, (), (1, 0.5)),
        lambda: grassmann_bundle(g26, (1,), (), 1.0),
        lambda: grassmann_sequence(g26, (1.5,), ()),
        lambda: grassmann_sequence(g26, (1,), (), 0.5),
        lambda: spinor_bundle(s10, (1, 0.5)),
        lambda: spinor_bundle(s10, (1,), 0.5),
        lambda: spinor_sequence(s10, (2.0,)),
        lambda: spinor_sequence(s10, (1,), -1.0),
        lambda: bundle(s10, ((0, 0, 0, 0, 1.0),)),
        lambda: bundle(s10, ((0,) * 5,), 0.5),
        lambda: bundle(CAT.space("P3xP3"), ((0,) * 3, (0,) * 3), (1, 0.5)),
        lambda: grassmann_bundle(g26, 3, ()),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError, match="integer"):
            call()
    # integer-like values that are not floats still pass
    assert grassmann_bundle(g26, (True,), (), False) == grassmann_bundle(g26, (1,), ())
    assert bundle(s10, [[0, 0, 0, 0, -8]]) == bundle(s10, [(0,) * 5], -8)


# (label, parts) -> the refusal text, unchanged since before the label cache
LABEL_REFUSALS = [
    ((2.0, 1), 2, "label (2.0, 1) must be a sequence of integers"),
    ([1.5], 2, "label [1.5] must be a sequence of integers"),
    (3, 2, "label 3 must be a sequence of integers"),
    ([1, 2], 2, "[1, 2] is not weakly decreasing"),
    ((1, 1, 1), 2, "(1, 1, 1) has more than 2 parts"),
    ([1, -1], 3, "[1, -1] has negative parts"),
]


def test_a_refused_schur_label_keeps_its_text_and_leaves_no_cache_entry():
    _padded.cache_clear()
    for label, parts, text in LABEL_REFUSALS:
        with pytest.raises(ValueError) as exc:
            _pad_partition(label, parts)
        assert str(exc.value) == text
    assert _padded.cache_info().currsize == 0
    # (2.0, 1) == (2, 1): a key built before the integer gate would share
    # the slot; the integer label is padded with ints, and so is every view
    # the entry holds
    got = _pad_partition((2, 1), 3)
    assert got.lam == (2, 1, 0)
    assert all(type(c) is int for view in got for c in view)
    with pytest.raises(ValueError, match="must be a sequence of integers"):
        _pad_partition((2.0, 1), 3)
    assert _padded.cache_info().currsize == 1
    # the views against their definitions, rho = (2, 1, 0)
    assert _pad_partition([3, 1], 3) == ((3, 1, 0), (5, 2, 0), (2, 0, -3), (2, 1), (1, 2))
    assert _padded.cache_info().currsize == 2


def test_list_and_tuple_labels_pad_to_one_tuple():
    _padded.cache_clear()
    got = _pad_partition([2, 1], 4)
    assert type(got.lam) is tuple and got.lam == (2, 1, 0, 0)
    assert _pad_partition((2, 1), 4) is got  # one cache entry for both
    assert _pad_partition((True, 0, 0, 0, 0), 2).lam == (1, 0)
    assert _padded.cache_info().currsize == 2


def test_each_vandermonde_denominator_equals_the_explicit_product():
    for n in range(1, 13):
        rho_den = two_rho_den = 1
        for a, b in itertools.combinations(range(n - 1, -1, -1), 2):
            rho_den *= a - b
        for a, b in itertools.combinations(range(2 * n - 2, -1, -2), 2):
            two_rho_den *= a * a - b * b
        assert _vandermonde_den(n, False) == rho_den, n
        assert _vandermonde_den(n, True) == two_rho_den, n


def test_the_zero_twist_returns_the_bundle_and_keeps_the_integer_gate():
    s10, p3p3 = CAT.space("S10"), CAT.space("P3xP3")
    b = bundle(s10, ((0, 1, 0, 0, -3),))
    for zero in (0, (0,), [0], False):
        assert b.twisted(zero) is b
    assert bundle(s10, ((0, 1, 0, 0, -3),), 0) == b
    assert b.twisted(1) == bundle(s10, ((0, 1, 0, 0, -2),))
    pair = trivial_bundle(p3p3)
    assert pair.twisted((0, 0)) is pair
    assert pair.twisted((0, 1)).weights == ((0, 0, 0), (1, 0, 0))
    for bad in (0.0, (0.0,), (0, 0)):
        with pytest.raises(ValueError):
            b.twisted(bad)


def test_schur_constructors_refuse_product_spaces():
    p3p3 = CAT.space("P3xP3")
    for call in (lambda: grassmann_bundle(p3p3, (1,), ()),
                 lambda: grassmann_sequence(p3p3, (1,), ()),
                 lambda: grassmann_shape(p3p3)):
        with pytest.raises(ValueError, match=r"^P3xP3 is not a Grassmannian$"):
            call()
    for call in (lambda: spinor_bundle(p3p3, (1,)),
                 lambda: spinor_sequence(p3p3, (1,)),
                 lambda: spinor_shape(p3p3)):
        with pytest.raises(ValueError, match=r"^P3xP3 is not a spinor variety$"):
            call()


def test_pairing_tables_match_orbit_dim_on_every_cominuscule_factor():
    # the table kernel against orbit_dim on w(rho) + inc * omega_node, for
    # every Kostant weight of every cominuscule catalog factor
    factors = {f for space in CAT.spaces.values() for f in space.factors
               if f.cominuscule}
    coefficients = set()
    for f in sorted(factors, key=lambda f: (f.rs.series, f.rs.rank, f.node)):
        for pf in range(f.dim + 1):
            weights = minimal_coset_reps(f.rs, f.node)[pf]
            coeffs, table = _kostant_pairings(f, pf)
            assert len(coeffs) == f.dim
            coefficients.update(coeffs)
            # w(rho) - rho is Levi-dominant, so the Levi pairings of w(rho)
            # are all positive: no weight is dropped
            assert len(table) == len(weights), (f, pf)
            for _, negative, moving in table:
                assert negative == 0 and len(moving) == f.dim
            for inc in range(-f.dim - 2, f.dim + 3):
                want = {}
                for w in weights:
                    v = [c + 1 for c in w]
                    v[f.node] += inc
                    group = orbit_dim(f.rs, v)
                    if group is not None:
                        want[group[0]] = want.get(group[0], 0) + group[1]
                assert _factor_forms(f, pf, inc) == want, (f, pf, inc)
    # C3/P3 (LG(3,6)) has coroots with node coefficient 2
    assert coefficients == {1, 2}


def test_printed_sequence_values():
    # sequences as printed in half-spin units: entries already doubled
    assert spinor_sequence_cohomology((2, 0, -4, -6, -10), doubled=True) == (9, 10)
    assert spinor_sequence_cohomology((1, 0, -2, -3, -5)) == (9, 10)
    assert spinor_sequence_cohomology((2, 0, -1, -2, -3, -7)) is None
    assert spinor_sequence(CAT.space("S10"), (2, 1, 1), -6) == (2, 0, -4, -6, -10)
    assert sequence_cohomology((5, 3, 2, 2, 1, 0)) is None
    assert sequence_cohomology((9, 7, 4, 3, 1, 0)) == (0, 4536)


def test_kuenneth_on_product_forms():
    space = CAT.space("P3xP3")
    # Omega^p(-1,-3) groups against the product of per-factor walks
    coh = forms_cohomology(space, 2, (1, 3))
    total = {}
    for a in range(3):
        for f1 in forms_cohomology_factor(3, a, 1):
            for f2 in forms_cohomology_factor(3, 2 - a, 3):
                q = f1[0] + f2[0]
                total[q] = total.get(q, 0) + f1[1] * f2[1]
    assert coh == total


def forms_cohomology_factor(n, p, k):
    """H^*(P^n, Omega^p(-k)) as (degree, dim) pairs, via the single-factor
    engine on the catalog-independent projective space."""
    from bwb.catalog import projective_space

    if p < 0 or p > n:
        return []
    return list(forms_cohomology(projective_space(n), p, k).items())


@st.composite
def spinor_case(draw):
    label = draw(st.lists(st.integers(0, 5), min_size=0, max_size=5))
    label = tuple(sorted(label, reverse=True))
    twist = draw(st.integers(-10, 2))
    return label, twist


@settings(max_examples=300, deadline=None)
@given(spinor_case())
def test_spinor_fast_path_randomized(case):
    label, twist = case
    space = CAT.space("S10")
    fast = spinor_sequence_cohomology(spinor_sequence(space, label, twist),
                                      doubled=True)
    table = bott(spinor_bundle(space, label, twist))
    if fast is None:
        assert table.acyclic
    else:
        q, _, dim = table.single()
        assert (q, dim) == fast


def test_raw_twist_vectors_on_products():
    space = CAT.space("(P1)^4")
    assert forms_cohomology(space, 0, (1, 1, 1, 1)) == {}  # inside the acyclic box
    assert forms_cohomology(space, 0, (2, 2, 2, 2)) == {4: 1}  # the canonical sheaf
    assert forms_cohomology(space, 0, (3, 3, 3, 3)) == {4: 16}
    assert forms_cohomology(space, 0, (-1, -1, -1, -1)) == {0: 16}
    assert forms_cohomology(space, 0, (1, 0, 0, 0)) == {}
    with pytest.raises(ValueError, match="one twist per factor"):
        forms_cohomology(space, 1, (1, 1))
    p3p3 = CAT.space("P3xP3")
    with pytest.raises(ValueError, match="one twist per factor"):
        trivial_bundle(p3p3).twisted((-4,))
    for short in ((-4,), ()):
        with pytest.raises(ValueError, match="one twist per factor"):
            bundle(p3p3, trivial_bundle(p3p3).weights, twist=short)
    for bad in ((0,), (0, 0, 5)):
        with pytest.raises(ValueError, match="one twist per factor"):
            euler_char(p3p3, 1, bad)
    assert euler_char(p3p3, 1, (0, 0)) == -2  # chi(Omega^1) = -h^{1,1}


def test_bundle_refuses_a_malformed_weight():
    p3p3, s10 = CAT.space("P3xP3"), CAT.space("S10")
    with pytest.raises(ValueError, match="^need one weight per factor$"):
        bundle(p3p3, ((0, 0, 0),))
    with pytest.raises(ValueError, match=r"^weight \(0, 0\) has wrong rank for D5/P5$"):
        bundle(s10, ((0, 0),))
    with pytest.raises(ValueError, match=r"^weight \(0, -1, 0, 0, 0\) is not "
                                         r"Levi-dominant at node 2$"):
        bundle(s10, ((0, -1, 0, 0, 0),))
    assert bundle(s10, ((0, 0, 0, 0, -3),)).weights == ((0, 0, 0, 0, -3),)
    # past the constructor, bott's weight gate names the weight itself, not
    # its rho-shift (1, 1), and the walk cache never sees it
    walked = _factor_group.cache_info().misses
    for short in ((0, 0), [0, 0]):
        with pytest.raises(ValueError, match=r"^weight \(0, 0\) has 2 coordinates, not 5$"):
            bott(Bundle(s10, (short,)))
    assert _factor_group.cache_info().misses == walked


def test_euler_char_refuses_a_factor_above_dimension_16():
    # S14 is D7/P7, of dimension 21; the weight-level sum is binomial in it
    with pytest.raises(ValueError, match=r"^factor D7/P7 too large for weight-level chi$"):
        euler_char(CAT.space("S14"), 1)


def test_int_twist_equals_its_degree_vector_on_every_space():
    for space in CAT.spaces.values():
        small = all(f.dim <= 16 for f in space.factors)
        for k in (-2, 1):
            vec = space.degree_vector(k)
            b = trivial_bundle(space)
            assert b.twisted(k) == b.twisted(vec), space.name
            for p in (0, 1, 2):
                if p == 0 or space.cominuscule:
                    assert forms_cohomology(space, p, k) == \
                        forms_cohomology(space, p, vec), (space.name, p, k)
                if small:
                    assert euler_char(space, p, k) == euler_char(space, p, vec), \
                        (space.name, p, k)


PRODUCT_SPACES = ("P3xP3", "(P1)^4", "(P1)^6", "(P1)^3xP3", "(P2)^4", "(P4)^3",
                  "G(2,5)xG(2,5)")


def summed_bott(space, p, k):
    """H^*(Omega^p(-k)) summand by summand: the Kostant decomposition of the
    whole product, one full Bott computation per summand."""
    if isinstance(k, int):
        down = tuple(-k * a for a in space.ample)
    else:
        down = tuple(-v for v in k)
    total = {}
    for summand in kostant_forms(space, p):
        for q, d in bott(summand.twisted(down)).dims().items():
            total[q] = total.get(q, 0) + d
    return dict(sorted(total.items()))


def test_kuenneth_matches_summed_bott_on_every_product():
    products = [name for name in sorted(CAT.spaces)
                if len(CAT.space(name).factors) > 1]
    assert sorted(products) == sorted(PRODUCT_SPACES)
    for name in PRODUCT_SPACES:
        space = CAT.space(name)
        n, m = space.dim, len(space.factors)
        raw = [tuple(range(m)), tuple(range(-1, m - 1)), space.index_vector,
               tuple(1 + (-1) ** i for i in range(m)), tuple(-2 * i for i in range(m))]
        for p in range(-1, n + 2):
            for k in list(range(-n - 2, n + 3)) + raw:
                assert forms_cohomology(space, p, k) == summed_bott(space, p, k), (
                    name, p, k)


def test_walk_free_forms_match_summed_bott_on_every_single_factor_space():
    # forms_cohomology reads degrees and dimensions off its pairing tables
    # and never walks, so the walking bott route is independent of it; it
    # covers both members of every Serre orbit of the bundles grid
    singles = sorted(name for name in CAT.spaces
                     if len(CAT.space(name).factors) == 1
                     and CAT.space(name).cominuscule)
    assert singles == ["G(2,10)", "G(2,6)", "G(3,11)", "G(4,9)", "LG(3,6)",
                       "OP2", "S10", "S12", "S14"]
    for name in singles:
        space = CAT.space(name)
        n = space.dim
        for p in range(-1, n + 2):
            for k in range(-n - 2, n + 3):
                assert forms_cohomology(space, p, k) == summed_bott(space, p, k), (
                    name, p, k)


def test_the_forms_cache_holds_one_entry_per_serre_orbit():
    # (p, vec) and (n - p, -vec) share an entry; the grid of the bundles
    # benchmark over one space, from a cold cache
    space = CAT.space("G(2,6)")
    n = space.dim
    orbits = set()
    _forms_cohomology.cache_clear()
    for p in range(n + 1):
        for k in range(-n - 2, n + 3):
            forms_cohomology(space, p, k)
            orbits.add(frozenset({(p, k), (n - p, -k)}))
    assert _forms_cohomology.cache_info().currsize == len(orbits) == 95


def test_the_middle_degree_tie_takes_the_smaller_twist_and_flips():
    # 2p = n on P3xP3: (3, (1, 4)) is read from the entry of (3, (-1, -4))
    space = CAT.space("P3xP3")
    _forms_cohomology.cache_clear()
    want = summed_bott(space, 3, (1, 4))
    assert want == {6: 4}  # the flip moves the degree
    assert forms_cohomology(space, 3, (1, 4)) == want
    assert forms_cohomology(space, 3, (-1, -4)) == {0: 4} == summed_bott(space, 3, (-1, -4))
    # one entry, keyed on the smaller twist: reading it back is a hit
    info = _forms_cohomology.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    _forms_cohomology(space, 3, (-1, -4))
    assert _forms_cohomology.cache_info().hits == info.hits + 1


def test_the_orbit_fold_keeps_every_refusal_and_the_empty_degrees():
    text = ("IG(2,6) has a non-cominuscule factor; "
            "form bundles are not multiplicity-free irreducible sums there")
    space = CAT.space("IG(2,6)")
    for p in (1, space.dim, -1, space.dim + 1):
        with pytest.raises(ValueError) as exc:
            forms_cohomology(space, p, 1)
        assert str(exc.value) == text, p
    for name in ("S10", "P3xP3"):
        space = CAT.space(name)
        for k in (-3, 0, 2):
            assert forms_cohomology(space, -1, k) == {}
            assert forms_cohomology(space, space.dim + 1, k) == {}


TOP_CASES = [
    ("OP2", 2, 9, 14),
    ("S12", 3, 6, 12),
    ("G(2,10)", 4, 5, 12),
    ("S14", 7, 4, 14),
]

S10_FORM_VALUES = [
    ((2, 6), {9: 10}),
    ((3, 5), {9: 16}),
    ((3, 6), {9: 120}),
    ((4, 5), {9: 144}),
    ((0, 10), {10: 126}),
    ((1, 8), {10: 45}),
]

S10_DIAGONAL = [1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1]
