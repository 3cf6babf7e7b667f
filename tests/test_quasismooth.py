"""Iano-Fletcher's quasi-smoothness criterion as a second oracle for the
Jacobian-ring gate of ``bwb.jacring``.

Theorem 8.1 of Iano-Fletcher, *Working with weighted complete
intersections*: the general degree-d hypersurface in P(a_0, ..., a_n) is
quasi-smooth if and only if some a_i = d (a linear cone), or for every
nonempty set I of indices

  (a) there is a monomial of degree d in the variables x_i, i in I, or
  (b) there are |I| distinct indices e, each with a monomial x_I^M x_e of
      degree d.

Quasi-smooth means the partials of the general equation vanish together
only at the origin, so they form a regular sequence and the Jacobian ring
has the Hilbert series prod (1 - t^{d-a_i}) / (1 - t^{a_i}): a polynomial
with nonnegative coefficients, which is what ``steenbrink_hodge`` accepts.
The criterion is a statement about subsets and monomials and shares nothing
with that series; ``quasi_smooth`` below imports nothing from ``bwb``.
"""

import random
from itertools import chain, combinations

from bwb.jacring import steenbrink_hodge

SCAN = (13, 7, 14)  # weighted_cy_scan's arguments in the jacring-scan benchmark


def reachable(weights, top):
    """reach[s] for s in 0..top: is s a nonnegative integer combination of
    ``weights``?"""
    reach = [True] + [False] * top
    for a in weights:
        for s in range(a, top + 1):
            if reach[s - a]:
                reach[s] = True
    return reach


def quasi_smooth(weights, degree):
    """Theorem 8.1, one index set per set of weight values.

    Both (a) and the indices e with a monomial x_I^M x_e depend only on the
    set S of weights that occur in I (an e inside I gives (a) itself). For
    a fixed S, the worst I takes every index whose weight is in S: each
    further such index adds one to |I| and removes at most one e."""
    if degree in weights:
        return True
    values = sorted(set(weights))
    for r in range(1, len(values) + 1):
        for support in combinations(values, r):
            reach = reachable(support, degree)
            if reach[degree]:
                continue
            inside = sum(1 for a in weights if a in support)
            outside = sum(1 for a in weights if a not in support and reach[degree - a])
            if outside < inside:
                return False
    return True


def quasi_smooth_every_subset(weights, degree):
    """Theorem 8.1 read literally, over all 2^{n+1} - 1 index sets."""
    if degree in weights:
        return True
    idx = range(len(weights))
    every = chain.from_iterable(combinations(idx, r) for r in range(1, len(weights) + 1))
    for subset in every:
        reach = reachable([weights[i] for i in subset], degree)
        if reach[degree]:
            continue
        outside = [e for e in idx if e not in subset and reach[degree - weights[e]]]
        if len(outside) < len(subset):
            return False
    return True


def accepted(weights, degree):
    try:
        steenbrink_hodge(weights, degree)
    except ValueError:
        return False
    return True


def weight_tuples(length, top, total, low=1):
    """The nondecreasing tuples of ``length`` entries in low..top that sum to
    ``total``, in lexicographic order: the tuples of
    ``combinations_with_replacement(range(low, top + 1), length)`` with that
    sum, without enumerating the others."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for x in range(low, top + 1):
        rest = total - x
        if rest < x * (length - 1):
            return  # the rest cannot stay >= x: larger x only make it worse
        if rest <= top * (length - 1):
            for tail in weight_tuples(length - 1, top, rest, x):
                yield (x,) + tail


def scan_tuples(max_dim, max_weight, max_degree):
    """Every (weights, degree) that ``weighted_cy_scan`` weighs: the weights
    below the degree with its Calabi-Yau-type sum, accepted or not (the scan
    passes only those with a polynomial series on to ``steenbrink_hodge``)."""
    for dim in range(5, max_dim + 1, 2):
        k = (dim - 1) // 2
        for degree in range(2, max_degree + 1):
            top = min(max_weight, degree - 1)
            for w in weight_tuples(dim + 2, top, k * degree):
                yield w, degree


def random_systems(rng, count):
    for _ in range(count):
        w = tuple(sorted(rng.randint(1, 12) for _ in range(rng.randint(2, 16))))
        yield w, rng.randint(max(w) + 1, 30)


def test_reduction_to_weight_sets_matches_every_index_set():
    rng = random.Random(3)
    for _ in range(300):
        w = tuple(rng.randint(1, 6) for _ in range(rng.randint(2, 7)))
        d = rng.randint(max(w) + 1, 14)
        assert quasi_smooth(w, d) == quasi_smooth_every_subset(w, d), (w, d)


def test_known_quasi_smooth_and_singular_systems():
    assert quasi_smooth((1, 1, 1, 1), 4)  # quartic surface
    assert quasi_smooth((1, 1, 1, 1, 2), 6)  # sextic in P(1,1,1,1,2)
    assert quasi_smooth((1, 1, 2, 3), 6)  # x^6 + y^6 + z^3 + w^2
    assert not quasi_smooth((2,) * 7, 7)  # no monomial of odd degree at all
    # no monomial of degree 5 in the two weight-2 variables, and only the
    # index of weight 1 outside them carries one: x_e * x_I^M needs 2
    assert not quasi_smooth((1, 2, 2), 5)


def test_iano_fletcher_agrees_with_the_jacobian_gate():
    """Quasi-smooth implies accepted (the theorem above); the converse is
    asserted too, on the same sample, and held on every one of the 17,779
    tuples the benchmark scan enumerates."""
    rng = random.Random(11)
    candidates = list(scan_tuples(*SCAN))
    assert len(candidates) == 17779
    sample = rng.sample(candidates, 300)
    sample += list(random_systems(rng, 300))
    verdicts = [(quasi_smooth(w, d), accepted(w, d), w, d) for w, d in sample]
    for smooth, ok, w, d in verdicts:
        assert smooth <= ok, ("quasi-smooth but rejected", w, d)
        assert ok <= smooth, ("accepted but not quasi-smooth", w, d)
    accepted_count = sum(ok for _, ok, _, _ in verdicts)
    assert 50 < accepted_count < len(verdicts) - 50
