"""Jacobian-ring Hilbert series and the middle Hodge rows of weighted
hypersurfaces."""

from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bwb import jacring
from bwb.jacring import (
    _jacobian_poly,
    _multiplicities,
    _polynomial_series,
    hilbert_coefficients,
    jacobian_hilbert,
    socle_degree,
    steenbrink_hodge,
    weighted_cy_scan,
)


def test_hilbert_series_of_the_cubic_sevenfold():
    w = (1,) * 9
    # Jacobian ring of a generic cubic in nine variables: (1-t^2)^9 / (1-t)^9
    coeffs = hilbert_coefficients(w, 3, socle_degree(w, 3))
    assert coeffs == [1, 9, 36, 84, 126, 126, 84, 36, 9, 1]


def test_socle_symmetry_and_degree():
    for w, d in [((1,) * 9, 3), ((1,) * 6 + (2,), 5), ((1, 1, 2, 2, 3), 7)]:
        top = socle_degree(w, d)
        assert top == len(w) * d - 2 * sum(w)
        coeffs = hilbert_coefficients(w, d, top)
        assert coeffs == coeffs[::-1]
        assert coeffs[0] == 1 and coeffs[-1] == 1


def test_moduli_dimensions():
    assert jacobian_hilbert((1,) * 9, 3, 3) == 84
    assert jacobian_hilbert((1,) * 6 + (2,), 4, 4) == 90
    assert jacobian_hilbert((1,) * 5, 5, 5) == 101
    assert jacobian_hilbert((1,) * 4 + (4,), 8, 8) == 149


def test_steenbrink_rows():
    for (w, d), (dim, middle, moduli) in STEENBRINK_ROWS:
        row = steenbrink_hodge(w, d)
        assert row.dim == dim, (w, d)
        assert row.entries == middle, (w, d)
        assert row.moduli == moduli, (w, d)


def test_steenbrink_row_matches_projective_space_count():
    # smooth quartic surface in P3: the K3 row
    row = steenbrink_hodge((1, 1, 1, 1), 4)
    assert row.dim == 2
    assert row.entries == (1, 19, 1)  # primitive: h^{1,1} = 20 minus the class
    assert row.moduli == 19


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        steenbrink_hodge((1, 1, 1, 0), 3)
    with pytest.raises(ValueError, match=r"weights must be >= 1, got \(0, 1\)"):
        steenbrink_hodge((0, 1), 3)
    with pytest.raises(ValueError, match=r"need at least two weights, got \(1,\)"):
        steenbrink_hodge((1,), 2)
    with pytest.raises(ValueError, match=r"need at least two weights, got \(\)"):
        steenbrink_hodge((), 2)
    with pytest.raises(ValueError):
        steenbrink_hodge((1, 1, 1), 0)
    with pytest.raises(ValueError):
        steenbrink_hodge((1, 1, 5), 4)  # weight not smaller than the degree
    with pytest.raises(ValueError, match="integers"):
        steenbrink_hodge((1.5, 1, 1, 1), 4)  # not truncated to the K3 row
    with pytest.raises(ValueError, match="integers"):
        steenbrink_hodge((1, 1, 1, 1), 4.0)
    with pytest.raises(ValueError, match="upto must be an integer"):
        hilbert_coefficients((1, 1, 1, 1), 4, 4.0)
    with pytest.raises(ValueError, match="^upto must be >= 0$"):
        hilbert_coefficients((1, 1, 1, 1), 4, -1)
    with pytest.raises(ValueError, match="k must be an integer"):
        jacobian_hilbert((1, 1, 1, 1), 4, 2.0)
    with pytest.raises(ValueError, match="max_weight must be an integer"):
        weighted_cy_scan(13, 7.0, 14)
    with pytest.raises(ValueError, match="max_dim must be an integer"):
        weighted_cy_scan(9.0, 5, 10)


def test_scan_finds_expected_rows():
    rows = weighted_cy_scan(7, 2, 7)
    table = [(r.degree, r.weights, r.dim) for r in rows]
    assert table == SCAN_TABLE
    for r in rows:
        assert r.dim % 2 == 1


def test_scan_skips_weight_systems_without_regular_sequences():
    # all-even weights with an odd degree admit no sections at all; the scan
    # must drop them rather than emit junk rows
    with pytest.raises(ValueError, match="regular sequence"):
        steenbrink_hodge((2,) * 7, 7)
    assert all(r.weights != (2,) * 7 for r in weighted_cy_scan(7, 2, 7))


def test_scan_rows_have_one_dimensional_extreme_piece():
    # the defining property of the scan output, rechecked per row
    for r in weighted_cy_scan(7, 2, 7):
        first_nonzero = next(v for v in r.entries if v)
        assert first_nonzero == 1
        assert sum(r.weights) == (r.dim - 1) // 2 * r.degree
        assert r.entries == r.entries[::-1]


def oracle_scan(max_dim, max_weight, max_degree):
    """``weighted_cy_scan`` by brute force: every nondecreasing tuple with
    the Calabi-Yau-type sum goes through ``steenbrink_hodge``, and whatever
    it refuses (a weight not below the degree included) is skipped."""
    rows = []
    for dim in range(5, max_dim + 1, 2):
        k = (dim - 1) // 2
        for degree in range(2, max_degree + 1):
            for w in combinations_with_replacement(range(1, max_weight + 1), dim + 2):
                if sum(w) == k * degree:
                    try:
                        rows.append(steenbrink_hodge(w, degree))
                    except ValueError:
                        continue
    return sorted(rows, key=lambda r: (r.dim, r.degree, r.weights))


@pytest.mark.parametrize("bounds", [(7, 2, 7), (7, 4, 9), (9, 5, 10), (11, 3, 8)])
def test_scan_equals_the_brute_force_scan(bounds):
    rows = weighted_cy_scan(*bounds)
    assert rows == oracle_scan(*bounds)
    assert rows  # each bound triple finds something


def test_scan_divides_only_what_the_gate_passes(monkeypatch):
    # the cyclotomic gate runs first, so every system it passes becomes a
    # row; each pass multiplies one packed factor per level from the lowest
    # one whose count changed since the last pass (797 with no reuse: one
    # per distinct weight of each row)
    passes, products = [], []
    gate, packing = jacring._polynomial_series, jacring._packing

    def counted_gate(counts, degree):
        passed = gate(counts, degree)
        passes.append(passed)
        return passed

    def counted_packing(n, degree, sigma):
        mask, factor, read = packing(n, degree, sigma)

        def counted_factor(v, c):
            products.append((v, c))
            return factor(v, c)
        return mask, counted_factor, read

    monkeypatch.setattr(jacring, "_polynomial_series", counted_gate)
    monkeypatch.setattr(jacring, "_packing", counted_packing)
    rows = weighted_cy_scan(9, 5, 10)
    assert sum(passes) == len(rows) == 219
    assert len(products) == 646


def test_scan_at_the_benchmark_bounds_gives_the_public_rows_in_order():
    # the jacring-scan benchmark's bounds, where the prefix products are
    # reused deepest (the brute-force oracle's bounds stop at weight 5);
    # the walk alone yields the (dim, degree, weights) order, with no sort
    rows = weighted_cy_scan(13, 7, 14)
    assert len(rows) == 2839
    assert all(r == steenbrink_hodge(r.weights, r.degree) for r in rows)
    keys = [(r.dim, r.degree, r.weights) for r in rows]
    assert keys == sorted(set(keys))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=3, max_size=7),
    st.integers(2, 8),
)
def test_rows_are_symmetric_whenever_defined(weights, degree):
    w = tuple(weights)
    try:
        row = steenbrink_hodge(w, degree)
    except ValueError:
        return  # weight >= degree, or no regular sequence in those degrees
    assert row.entries == row.entries[::-1]
    assert all(v >= 0 for v in row.entries)
    top = socle_degree(w, degree)
    coeffs = hilbert_coefficients(w, degree, top)
    assert coeffs == coeffs[::-1]
    assert coeffs[0] == 1 and coeffs[-1] == 1
    want = coeffs[degree] if degree <= top else 0
    assert row.moduli == want
    assert jacobian_hilbert(w, degree, degree) == want


def series_is_polynomial(w, degree):
    """Oracle sharing no code with the cyclotomic test: a polynomial series
    has degree sigma = (n+1)d - 2|w|, and a non-polynomial one has no run of
    |w| zero coefficients past sigma (the denominator's recurrence would
    continue it forever), so coefficients sigma+1..(n+1)d decide."""
    top = len(w) * degree
    sigma = top - 2 * sum(w)
    return not any(hilbert_coefficients(w, degree, top)[max(sigma + 1, 0):])


def multiplicities_of(w):
    """counts[v] = how many weights equal v, for v in 0..max(w)."""
    seen = Counter(w)
    return [seen[v] for v in range(max(w) + 1)]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=2, max_size=9), st.integers(2, 14))
def test_cyclotomic_test_accepts_exactly_the_polynomial_series(weights, degree):
    assume(degree > max(weights))
    w = tuple(weights)
    assert _polynomial_series(multiplicities_of(w), degree) == series_is_polynomial(w, degree)


def test_cyclotomic_test_rejects_even_weights_in_odd_degree():
    # Phi_2 divides all seven denominator factors and no numerator factor
    assert not series_is_polynomial((2,) * 7, 7)
    assert not _polynomial_series([0, 0, 7], 7)


def divisors_below(d):
    return [x for x in range(1, d) if d % x == 0]


# random weight systems, and Fermat-type ones (every weight divides the
# degree), whose series is always a polynomial
weight_systems = st.one_of(
    st.lists(st.integers(1, 12), min_size=2, max_size=16).flatmap(
        lambda w: st.tuples(st.just(tuple(w)), st.integers(max(w) + 1, 30))),
    st.integers(2, 30).flatmap(
        lambda d: st.tuples(
            st.lists(st.sampled_from(divisors_below(d)), min_size=2, max_size=16).map(tuple),
            st.just(d))),
)


def packed_coefficients(w, degree):
    """Every coefficient 0..sigma that the packed division reads back."""
    coefficient = _jacobian_poly(w, degree)
    return [coefficient(k) for k in range(socle_degree(w, degree) + 1)]


@settings(max_examples=300, deadline=None)
@given(weight_systems)
def test_packed_division_matches_the_truncated_series(system):
    w, degree = system
    if not _polynomial_series(multiplicities_of(w), degree):
        with pytest.raises(ValueError, match="regular sequence"):
            _jacobian_poly(w, degree)
        return
    coeffs = hilbert_coefficients(w, degree, socle_degree(w, degree))
    if min(coeffs) < 0:
        with pytest.raises(ValueError, match="regular sequence"):
            _jacobian_poly(w, degree)
    else:
        assert packed_coefficients(w, degree) == coeffs


def test_packed_division_holds_coefficients_wider_than_64_bits():
    w = (1,) * 16
    coeffs = hilbert_coefficients(w, 30, socle_degree(w, 30))
    assert max(coeffs).bit_length() == 72
    assert packed_coefficients(w, 30) == coeffs


@pytest.mark.parametrize("w, degree", [
    ((1,) * 16, 30),
    ((1,) * 9, 3),
    ((1,) * 6 + (2,), 5),
    ((1, 1, 2, 2, 3), 7),
    ((1,) * 4 + (4,), 8),
])
def test_jacobian_hilbert_reads_every_coefficient_and_zero_outside(w, degree):
    top = socle_degree(w, degree)
    coeffs = hilbert_coefficients(w, degree, top)
    assert [jacobian_hilbert(w, degree, k) for k in range(top + 1)] == coeffs
    for k in (-2, -1, top + 1, top + 2):
        assert jacobian_hilbert(w, degree, k) == 0, k


def test_negative_coefficient_is_rejected_past_an_open_gate(monkeypatch):
    # with the cyclotomic gate forced open, the packed sign test alone must
    # refuse a truncated series with a negative coefficient, and read back
    # one whose coefficients are all positive
    monkeypatch.setattr(jacring, "_polynomial_series", lambda counts, degree: True)
    assert hilbert_coefficients((2, 2, 1), 5, socle_degree((2, 2, 1), 5)) == [1, 1, 3, 1, 3, -1]
    with pytest.raises(ValueError, match="regular sequence"):
        jacobian_hilbert((2, 2, 1), 5, 0)
    with pytest.raises(ValueError, match="regular sequence"):
        steenbrink_hodge((2, 2, 1), 5)
    coeffs = hilbert_coefficients((3, 3, 1, 1), 5, socle_degree((3, 3, 1, 1), 5))
    assert len(coeffs) == 5 and min(coeffs) >= 1
    assert packed_coefficients((3, 3, 1, 1), 5) == coeffs


def test_multiplicities_match_filtered_combinations():
    for length in range(9):
        for top in range(7):
            for total in range(-1, length * top + 2):
                every = combinations_with_replacement(range(1, top + 1), length)
                want = [w for w in every if sum(w) == total]
                got = [tuple(v for v, c in enumerate(counts) for _ in range(c))
                       for counts in _multiplicities(length, top, total)]
                assert got == want, (length, top, total)


def multiplicities_by_recursion(length, top, total):
    """Oracle for ``_multiplicities``: a depth-first recursion that fixes
    counts[1], counts[2], ... in turn, keeping after counts[v] exactly the
    counts with rl*(v+1) <= rest <= rl*top for the rl entries and the rest
    of the sum left.  It yields one list, updated in place."""
    counts = [0] * (top + 1)

    def walk(v, rl, rest):
        if v == top:
            counts[v] = rl
            yield counts
            return
        for c in range(min(rl, (rl * top - rest) // (top - v)),
                       max(0, rl * (v + 1) - rest) - 1, -1):
            counts[v] = c
            yield from walk(v + 1, rl - c, rest - c * v)

    if top >= 1 and length <= total <= length * top:
        yield from walk(1, length, total)
    elif length == total == 0:
        yield counts


def test_odometer_equals_the_recursive_walk_on_the_scan(monkeypatch):
    walked = []
    real = jacring._multiplicities

    def recorded(length, top, total):
        walked.append((length, top, total))
        return real(length, top, total)

    monkeypatch.setattr(jacring, "_multiplicities", recorded)
    weighted_cy_scan(13, 7, 14)

    def same_walk(args):
        got = [list(c) for c in real(*args)]  # copied as read: one list in place
        assert got == [list(c) for c in multiplicities_by_recursion(*args)], args
        return len(got)

    assert sum(map(same_walk, walked)) == 17779
    # total = -1, top = 0 and length = total = 0, then top = 1 and totals
    # just past either end
    for args in [(2, 3, -1), (0, 0, -1), (3, 0, 0), (0, 0, 0), (0, 4, 0),
                 (1, 1, 1), (5, 1, 5), (3, 4, 13), (3, 4, 2)]:
        same_walk(args)


STEENBRINK_ROWS = [
    (((1,) * 9, 3), (7, (0, 0, 1, 84, 84, 1, 0, 0), 84)),
    (((1,) * 6 + (2,), 4), (5, (0, 1, 90, 90, 1, 0), 90)),
    (((1,) * 5, 5), (3, (1, 101, 101, 1), 101)),
    (((1,) * 4 + (4,), 8), (3, (1, 149, 149, 1), 149)),
    (((1,) * 6 + (2,), 5), (5, (0, 22, 592, 592, 22, 0), 256)),
    (((1,) * 9, 7), (7, (0, 1287, 98979, 619569, 619569, 98979, 1287, 0), 6354)),
    (((1,) * 6 + (2,) * 3, 7), (7, (0, 24, 5511, 46536, 46536, 5511, 24, 0), 1836)),
    (((1,) * 6, 8), (4, (21, 2667, 9331, 2667, 21), 1251)),
]

SCAN_TABLE = [
    (4, (1, 1, 1, 1, 1, 1, 2), 5),
    (5, (1, 1, 1, 1, 2, 2, 2), 5),
    (6, (1, 1, 2, 2, 2, 2, 2), 5),
    (3, (1, 1, 1, 1, 1, 1, 1, 1, 1), 7),
    (4, (1, 1, 1, 1, 1, 1, 2, 2, 2), 7),
    (6, (2, 2, 2, 2, 2, 2, 2, 2, 2), 7),
]
