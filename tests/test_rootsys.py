"""Root-system engine: exact data cross-checked against closed forms and
brute-force Weyl orbits."""

import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwb.rootsys import (
    _lengths,
    coroot_pairings,
    inversions,
    minimal_coset_reps,
    root_system,
    simple_reflection,
    to_dominant,
    weyl_dim,
    weyl_dim_levi,
    weyl_order,
)

SMALL = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("A", 4), ("D", 5)]


def full_orbit(rs, w):
    """Every weight reachable from w by simple reflections (brute force)."""
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(rs.rank):
                u = simple_reflection(rs, i, v)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def fund(rs, coeffs):
    """Fundamental coordinates of sum c_j alpha_j: the dense Cartan product."""
    return tuple(sum(c * rs.cartan[i][j] for j, c in enumerate(coeffs))
                 for i in range(rs.rank))


@lru_cache(maxsize=None)
def root_strings(rs):
    """Positive roots (sorted by height) and their coroot coordinates by
    root strings: alpha + alpha_j is a root iff q - <alpha, alpha_j^vee> > 0,
    q the length of the alpha_j-string down from alpha.  The reference for
    the reflection closure in ``root_system``."""
    rank, d = rs.rank, _lengths(rs.series, rs.rank)

    simple = [tuple(int(k == j) for k in range(rank)) for j in range(rank)]
    length_of = {simple[j]: d[j] for j in range(rank)}
    level = set(simple)
    while level:
        nxt = set()
        for alpha in level:
            fc = fund(rs, alpha)
            for j in range(rank):
                q = 0
                lower = list(alpha)
                while True:
                    lower[j] -= 1
                    if lower[j] < 0 or tuple(lower) not in length_of:
                        break
                    q += 1
                beta = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1:]
                if q - fc[j] > 0 and beta not in length_of:
                    nxt.add(beta)
                    length_of[beta] = length_of[alpha] + d[j] * (fc[j] + 1)
        level = nxt
    positives = sorted(length_of, key=lambda c: (sum(c), c))
    coroots = []
    for alpha in positives:
        nums = [c * d[j] for j, c in enumerate(alpha)]
        assert all(x % length_of[alpha] == 0 for x in nums)
        coroots.append(tuple(x // length_of[alpha] for x in nums))
    return tuple(positives), tuple(coroots)


def chain_coroots(rs):
    """The positive coroots as the ``dim_steps`` chain builds them: step
    ``(k, j)`` adds alpha_j^vee to the coroot of step k (0: zero)."""
    chain = [(0,) * rs.rank]
    for k, j in rs.dim_steps:
        cv = list(chain[k])
        cv[j] += 1
        chain.append(tuple(cv))
    return chain[1:]


ROOT_SYSTEMS = ([("A", r) for r in range(1, 12)] + [("B", r) for r in range(1, 8)]
                + [("C", r) for r in range(1, 8)] + [("D", r) for r in range(3, 9)]
                + [("E", 6), ("E", 7), ("G", 2)])


@pytest.mark.parametrize("series, rank", ROOT_SYSTEMS,
                         ids=[f"{s}{r}" for s, r in ROOT_SYSTEMS])
def test_reflection_closure_matches_root_strings(series, rank):
    rs = root_system(series, rank)
    positives, coroots = root_strings(rs)
    assert rs.positive_roots == positives
    # the dim_steps chain rebuilds exactly the coroots, each once
    chain = chain_coroots(rs)
    assert len(chain) == len(set(chain)) and set(chain) == set(coroots)
    # the closure's sparse column updates equal the dense Cartan product
    assert rs.root_coords == tuple(fund(rs, a) for a in rs.positive_roots)


def test_positive_root_counts():
    for (ser, rk), want in EXPECTED_POSITIVE.items():
        assert root_system(ser, rk).num_positive == want


def test_cartan_golden_e6():
    assert root_system("E", 6).cartan == E6_CARTAN


def test_cartan_golden_g2():
    assert root_system("G", 2).cartan == G2_CARTAN


def test_cartan_rejects_unknown():
    with pytest.raises(ValueError):
        root_system("F", 4)
    with pytest.raises(ValueError):
        root_system("D", 2)


def test_weyl_order_matches_rho_orbit():
    for ser, rk in SMALL:
        rs = root_system(ser, rk)
        assert len(full_orbit(rs, rs.rho)) == weyl_order(ser, rk)


def test_highest_root_is_adjoint_weight():
    # dim of the adjoint module = rank + number of roots
    for ser, rk in SMALL + [("E", 6), ("E", 7)]:
        rs = root_system(ser, rk)
        lam = rs.root_coords[-1]
        assert weyl_dim(rs, lam) == rs.rank + 2 * rs.num_positive


def test_weyl_dim_oracles():
    for (ser, rk, lam), want in DIM_ORACLES:
        assert weyl_dim(root_system(ser, rk), lam) == want


def test_weyl_dim_by_orbit_count_on_minuscule():
    # minuscule modules are a single Weyl orbit, so brute force counts them
    for ser, rk, lam in [("A", 3, (0, 1, 0)), ("D", 4, (0, 0, 0, 1)),
                         ("D", 5, (0, 0, 0, 0, 1))]:
        rs = root_system(ser, rk)
        orbit = full_orbit(rs, lam)
        assert weyl_dim(rs, lam) == len(orbit)


def test_weyl_dim_levi_ignores_marked_coordinate():
    rs = root_system("D", 5)
    unmarked = frozenset(range(4))  # spinor node 4 marked
    assert weyl_dim_levi(rs, unmarked, (1, 0, 0, 0, 0)) == weyl_dim(
        root_system("A", 4), (1, 0, 0, 0)
    )
    for t in range(-3, 4):
        assert weyl_dim_levi(rs, unmarked, (1, 0, 0, 0, t)) == 5


def levi_subsets(rank):
    """Every unmarked subset up to rank 6, every co-singleton above it."""
    if rank <= 6:
        return [frozenset(c) for n in range(rank + 1)
                for c in itertools.combinations(range(rank), n)]
    return [frozenset(range(rank)) - {i} for i in range(rank)]


@pytest.mark.parametrize("series, rank", ROOT_SYSTEMS,
                         ids=[f"{s}{r}" for s, r in ROOT_SYSTEMS])
def test_weyl_dim_levi_equals_the_levi_product_over_root_strings(series, rank):
    rs = root_system(series, rank)
    positives, coroots = root_strings(rs)
    rng = random.Random(f"{series}{rank}")
    for unmarked in levi_subsets(rank):
        levi = [cv for alpha, cv in zip(positives, coroots)
                if all(j in unmarked for j, a in enumerate(alpha) if a)]
        for _ in range(4):
            lam = tuple(rng.randint(0, 4) if j in unmarked else rng.randint(-5, 5)
                        for j in range(rank))
            num = den = 1
            for cv in levi:
                num *= sum((lam[j] + 1) * c for j, c in enumerate(cv))
                den *= sum(cv)
            assert weyl_dim_levi(rs, unmarked, lam) == num // den, (unmarked, lam)


@pytest.mark.parametrize("series, rank", ROOT_SYSTEMS,
                         ids=[f"{s}{r}" for s, r in ROOT_SYSTEMS])
def test_inversions_equal_an_explicit_count(series, rank):
    rs = root_system(series, rank)
    _, coroots = root_strings(rs)
    chain = chain_coroots(rs)
    rng = random.Random(f"{series}{rank}")
    for _ in range(150):
        w = tuple(rng.randint(-6, 6) for _ in range(rank))
        pairings = [sum(a * c for a, c in zip(w, cv)) for cv in coroots]
        want = -1 if 0 in pairings else sum(s < 0 for s in pairings)
        assert inversions(rs, w) == want, w
        # the one walk: the pairings with the chain's coroots, in its order
        assert coroot_pairings(rs, w) == [
            sum(a * c for a, c in zip(w, cv)) for cv in chain], w


def test_walk_of_dominant_weight_is_trivial():
    rs = root_system("D", 5)
    walk = to_dominant(rs, (1, 2, 1, 1, 3))
    assert walk.length == 0 and walk.dominant == (1, 2, 1, 1, 3)
    assert not walk.singular and walk.pivots == ()


def test_walk_detects_wall():
    rs = root_system("A", 3)
    assert to_dominant(rs, (0, 1, 2)).singular
    # s_1(1,-1,2) has a zero coordinate only after one reflection
    w = simple_reflection(rs, 0, (1, 0, 2))
    walk = to_dominant(rs, w)
    assert walk.singular and walk.dominant is None


def test_walk_length_equals_inversion_count():
    rng = random.Random(20260814)
    for ser, rk in SMALL:
        rs = root_system(ser, rk)
        for _ in range(300):
            w = tuple(rng.randint(-5, 5) for _ in range(rk))
            walk = to_dominant(rs, w)
            inv = inversions(rs, w)
            if walk.singular:
                assert inv == -1
            else:
                assert walk.length == inv
                assert all(c > 0 for c in walk.dominant)


def test_longest_walk_hits_number_of_positive_roots():
    for ser, rk in SMALL:
        rs = root_system(ser, rk)
        lowest = to_dominant(rs, tuple(-c for c in rs.rho))
        assert lowest.length == rs.num_positive
        assert lowest.dominant == rs.rho


def test_pivot_rule_is_most_negative_then_leaf():
    rs = root_system("D", 4)
    assert to_dominant(rs, (-1, -3, 2, 1)).pivots[0] == 1
    # tie on value: node 0 is a leaf (degree 1), node 1 is the center
    assert to_dominant(rs, (-2, -2, 1, 1)).pivots[0] == 0
    # tie on value and degree: smaller index wins among the three leaves
    assert to_dominant(rs, (1, -2, -2, -2)).pivots[0] == 2


@st.composite
def case_and_weight(draw):
    ser, rk = draw(st.sampled_from(SMALL))
    w = tuple(draw(st.integers(-6, 6)) for _ in range(rk))
    return ser, rk, w, draw(st.randoms(use_true_random=False))


@settings(max_examples=400, deadline=None)
@given(case_and_weight())
def test_walk_is_pivot_independent(case):
    ser, rk, w, rng = case
    rs = root_system(ser, rk)

    def random_pivot(cur):
        return rng.choice([i for i, c in enumerate(cur) if c < 0])

    base = to_dominant(rs, w)
    dominant, length, singular, _ = reference_walk(rs, w, random_pivot)
    assert base.singular == singular
    if not singular:
        # regular orbits: the wall-free walk length is the Weyl length,
        # the same whatever pivot order is used
        assert (base.length, base.dominant) == (length, dominant)


@settings(max_examples=300, deadline=None)
@given(case_and_weight())
def test_reflection_preserves_orbit_data(case):
    ser, rk, w, _ = case
    rs = root_system(ser, rk)
    walk = to_dominant(rs, w)
    for i in range(rk):
        v = simple_reflection(rs, i, w)
        assert simple_reflection(rs, i, v) == tuple(w)  # involution
        other = to_dominant(rs, v)
        assert other.singular == walk.singular
        assert other.dominant == walk.dominant


def cartan_column_reflection(rs, i, w):
    """The dense reflection: subtract ``w_i`` times column ``i`` of the
    Cartan matrix, every node included.  The reference for
    ``simple_reflection``, which touches the Dynkin neighbours only."""
    return tuple(w[j] - w[i] * rs.cartan[j][i] for j in range(rs.rank))


# B, C and G have cartan[j][i] = -2 or -3 at a neighbour
REFLECTION_SYSTEMS = [("A", 1), ("A", 5), ("B", 3), ("B", 5), ("C", 3),
                      ("C", 4), ("D", 4), ("D", 7), ("E", 6), ("E", 7), ("G", 2)]


def test_simple_reflection_equals_the_cartan_column_formula():
    rng = random.Random(20261019)
    cases = 0
    for ser, rk in REFLECTION_SYSTEMS:
        rs = root_system(ser, rk)
        for _ in range(120):
            w = [rng.randint(-9, 9) for _ in range(rk)]
            before = list(w)
            for i in range(rk):
                got = simple_reflection(rs, i, w)
                assert got == cartan_column_reflection(rs, i, w), (rs, i, w)
                assert simple_reflection(rs, i, tuple(w)) == got
                cases += 1
            assert w == before  # the input list is read, not changed
    assert cases == 120 * sum(rk for _, rk in REFLECTION_SYSTEMS)


# Every supported root system the walk oracle below draws from.
ORACLE_SYSTEMS = (
    [("A", r) for r in range(1, 11)]
    + [(s, r) for s in ("B", "C") for r in range(2, 6)]
    + [("D", r) for r in range(4, 8)]
    + [("E", 6), ("E", 7), ("G", 2)]
)


def reference_walk(rs, w, pivot=None):
    """Reference dominance walk sharing no code with ``to_dominant``: a pivot
    scan over every node, a dense reflection through the whole Cartan column
    and a new tuple per step.  ``pivot(cur)`` picks the node to reflect at
    among the negative coordinates; by default the most negative, ties
    broken by vertex degree (read off the Cartan matrix), then index."""

    def degree(i):
        return sum(1 for j in range(rs.rank) if j != i and rs.cartan[j][i])

    def most_negative(cur):
        return min((wi, degree(i), i) for i, wi in enumerate(cur) if wi < 0)[2]

    pivot = pivot or most_negative

    def reflect(i, cur):
        return tuple(cur[j] - cur[i] * rs.cartan[j][i] for j in range(rs.rank))

    cur, pivots = tuple(w), []
    while True:
        if any(c == 0 for c in cur):
            return None, len(pivots), True, tuple(pivots)
        if all(c > 0 for c in cur):
            return cur, len(pivots), False, tuple(pivots)
        i = pivot(cur)
        assert cur[i] < 0, "the pivot must be a negative coordinate"
        cur = reflect(i, cur)
        pivots.append(i)
        assert len(pivots) <= rs.num_positive


def reference_weyl_dim(rs, lam):
    """Dense Weyl dimension formula over the root strings' coroots."""
    num = den = 1
    for cv in root_strings(rs)[1]:
        num *= sum((lam[j] + 1) * cv[j] for j in range(rs.rank))
        den *= sum(cv)
    assert num % den == 0
    return num // den


@st.composite
def oracle_weight(draw):
    ser, rk = draw(st.sampled_from(ORACLE_SYSTEMS))
    return ser, rk, tuple(draw(st.integers(-7, 7)) for _ in range(rk))


@settings(max_examples=600, deadline=None)
@given(oracle_weight())
def test_walk_matches_reference_walk(case):
    ser, rk, w = case
    rs = root_system(ser, rk)
    walk = to_dominant(rs, w)
    assert (walk.dominant, walk.length, walk.singular, walk.pivots) == \
        reference_walk(rs, w)
    if not walk.singular:
        mu = tuple(c - 1 for c in walk.dominant)
        assert weyl_dim(rs, mu) == reference_weyl_dim(rs, mu)


@settings(max_examples=300, deadline=None)
@given(oracle_weight())
def test_weyl_dim_matches_dense_formula(case):
    # a weight that is not dominant is refused; its absolute values are
    # dominant and meet the dense formula
    ser, rk, lam = case
    rs = root_system(ser, rk)
    if min(lam) < 0:
        with pytest.raises(ValueError, match=re.escape(f"weight {lam} is not dominant")):
            weyl_dim(rs, lam)
        lam = tuple(map(abs, lam))
    assert weyl_dim(rs, lam) == reference_weyl_dim(rs, lam)


def orbit_dim(rs, v):
    """Borel-Weil-Bott data of ``v = w(mu + rho)`` without walking to ``mu``.

    W permutes the positive coroots up to sign, so the pairings
    ``<v, alpha^vee>`` are those of ``mu + rho`` up to sign, and the negative
    ones count the length of ``w`` (see :func:`inversions`).  Returns None at
    the first zero pairing (``v`` singular), else ``(length, weyl_dim(mu))``,
    from the same chain of pairings :func:`weyl_dim` uses.
    """
    pairings = [0]
    num = 1
    negative = 0
    for k, j in rs.dim_steps:
        s = pairings[k] + v[j]
        if s <= 0:
            if not s:
                return None
            negative += 1
        num *= s
        pairings.append(s)
    num = abs(num)
    assert num % rs.dim_den == 0, "Weyl dimension must be an integer"
    return negative, num // rs.dim_den


def test_orbit_dim_matches_reference_walk_and_dimension():
    # orbit_dim(v) must be (length, dim mu) of the walk v -> mu + rho, or None
    # when the walk meets a wall; both cases occur on every system, and some
    # walls are met only at a non-simple coroot (no coordinate of v is zero)
    rng = random.Random(20261018)
    hidden_walls = 0
    for ser, rk in ORACLE_SYSTEMS:
        rs = root_system(ser, rk)
        seen = set()
        for _ in range(250):
            v = tuple(rng.randint(-7, 7) for _ in range(rk))
            dominant, length, singular, _ = reference_walk(rs, v)
            got = orbit_dim(rs, v)
            if singular:
                assert got is None, (rs, v)
                hidden_walls += 0 not in v
            else:
                mu = tuple(c - 1 for c in dominant)
                assert got == (length, reference_weyl_dim(rs, mu)), (rs, v)
            seen.add(singular)
        assert seen == {False, True}, rs
    assert hidden_walls > 100


def test_root_system_identity_is_series_and_rank():
    for ser, rk in ORACLE_SYSTEMS:
        rs = root_system(ser, rk)
        fresh = root_system.__wrapped__(ser, rk)  # a second, uncached build
        assert fresh is not rs
        assert fresh == rs and hash(fresh) == hash(rs)
        assert fresh.dim_steps == rs.dim_steps and fresh.neighbours == rs.neighbours
    assert root_system("A", 3) != root_system("A", 4)
    assert root_system("B", 3) != root_system("C", 3)
    assert root_system("D", 5) != root_system("D", 6)


def test_a_pickled_root_system_hashes_alike_in_another_process():
    # the system caches its hash, and a pickle carries that cached value
    rs = root_system("E", 6)
    hash(rs)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = ("import pickle, sys; from bwb.rootsys import root_system; "
            "g = pickle.loads(sys.stdin.buffer.read()); "
            "rs = root_system('E', 6); "
            "print(g == rs and hash(g) == hash(rs) and {rs: 1}.get(g) == 1)")
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(rs),
                         capture_output=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
    assert out.stdout.strip() == b"True"


def test_coset_reps_count_and_top_length():
    # |W| / |W_P| representatives; top length = codimension of the parabolic
    for ser, rk, node, count in COSET_COUNTS:
        rs = root_system(ser, rk)
        levels = minimal_coset_reps(rs, node)
        assert len([w for lv in levels for w in lv]) == count
        assert len(levels[0]) == 1 and len(levels[-1]) == 1
        assert sum(len(lv) for lv in levels) == count


def test_coset_rep_shifted_weights_are_distinct():
    rs = root_system("D", 5)
    levels = minimal_coset_reps(rs, 4)
    shifted = [w for lv in levels for w in lv]
    assert len(set(shifted)) == len(shifted) == 16
    # the weights of level p are w(rho) - rho for w of length p
    assert all(inversions(rs, [c + 1 for c in w]) == p
               for p, lv in enumerate(levels) for w in lv)


EXPECTED_POSITIVE = {
    ("A", 3): 6,
    ("B", 3): 9,
    ("C", 3): 9,
    ("D", 4): 12,
    ("D", 5): 20,
    ("G", 2): 6,
    ("E", 6): 36,
    ("E", 7): 63,
}

E6_CARTAN = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)

G2_CARTAN = (
    (2, -3),
    (-1, 2),
)

DIM_ORACLES = [
    (("A", 4, (0, 1, 0, 0)), 10),
    (("A", 4, (0, 0, 1, 0)), 10),
    (("A", 4, (1, 0, 0, 1)), 24),
    (("D", 5, (1, 0, 0, 0, 0)), 10),
    (("D", 5, (0, 1, 0, 0, 0)), 45),
    (("D", 5, (0, 0, 0, 0, 1)), 16),
    (("D", 6, (0, 1, 0, 0, 0, 0)), 66),
    (("D", 7, (0, 1, 0, 0, 0, 0, 0)), 91),
    (("E", 6, (1, 0, 0, 0, 0, 0)), 27),
    (("E", 6, (0, 1, 0, 0, 0, 0)), 78),
    (("E", 7, (0, 0, 0, 0, 0, 0, 1)), 56),
    (("G", 2, (1, 0)), 7),
    (("G", 2, (0, 1)), 14),
    (("A", 9, (1, 0, 0, 0, 0, 0, 0, 0, 1)), 99),
]

# marked node is 0-based
COSET_COUNTS = [
    ("A", 4, 2, 10),   # W(A4)/W(A2 x A1): 120 / 12
    ("A", 5, 2, 20),   # 720 / 36
    ("D", 5, 4, 16),   # 1920 / 120
    ("C", 3, 2, 8),    # 48 / 6
    ("E", 6, 0, 27),   # 51840 / 1920
]
