"""Middle Hodge numbers of quasi-smooth weighted hypersurfaces through the
Hilbert series of their Jacobian rings.

For a generic degree-d hypersurface in the weighted projective space with
weights w = (w_0, ..., w_n), the partial derivatives form a regular
sequence, so the Jacobian ring R has Hilbert series

    prod_i (1 - t^{d - w_i}) / (1 - t^{w_i}),

a polynomial with socle degree sigma = (n+1)d - 2|w| and the Gorenstein
symmetry R_k = R_{sigma-k}.  The primitive middle Hodge numbers of the
(n-1)-dimensional hypersurface X are graded pieces of R:

    h^{n-1-q, q}_prim(X) = dim R_{(q+1)d - |w|},

and the degree-d piece R_d counts the moduli of X (sections modulo the
degree-preserving coordinate changes, assuming a finite generic stabilizer).

The scan at the bottom enumerates the weight systems whose hypersurfaces
have the Calabi-Yau-type middle shape: odd dimension 2k+1 >= 5 with
|w| = kd, which makes the extreme piece h^{k+2,k-1} = R_0 = 1 with nothing
above it, while staying Fano (|w| > d).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from collections.abc import Callable

from .rootsys import _integer


def _validated(weights, degree) -> tuple[tuple[int, ...], int]:
    """The weights as a tuple of ints and the degree as an int, both checked:
    every weight >= 1, at least two of them, and each below the degree.
    Anything that is not an integer (1.5, but also 4.0) is refused rather
    than rounded."""
    try:
        w = tuple(map(operator.index, weights))
        degree = operator.index(degree)
    except TypeError:
        raise ValueError(
            f"weights and degree must be integers, got {weights!r} and {degree!r}"
        ) from None
    if len(w) < 2:
        raise ValueError(f"need at least two weights, got {w}")
    if min(w) < 1:
        raise ValueError(f"weights must be >= 1, got {w}")
    if degree - max(w) < 1:
        raise ValueError(f"degree {degree} must exceed every weight in {w}")
    return w, degree


def hilbert_coefficients(weights, degree: int, upto: int) -> list[int]:
    """Coefficients 0..upto of prod (1 - t^{d-w_i}) / (1 - t^{w_i})."""
    w, degree = _validated(weights, degree)
    upto = _integer(upto, "upto")
    if upto < 0:
        raise ValueError("upto must be >= 0")
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for wi in w:  # numerator factor 1 - t^{d - w_i}
        e = degree - wi
        if e <= upto:
            for j in range(upto, e - 1, -1):
                coeffs[j] -= coeffs[j - e]
    for wi in w:  # denominator factor 1/(1 - t^{w_i}) on truncated series
        for j in range(wi, upto + 1):
            coeffs[j] += coeffs[j - wi]
    return coeffs


def socle_degree(weights, degree: int) -> int:
    w, degree = _validated(weights, degree)
    return len(w) * degree - 2 * sum(w)


def _polynomial_series(counts: list[int], degree: int) -> bool:
    """Whether prod (1 - t^{d-w_i}) / prod (1 - t^{w_i}) is a polynomial, for
    the weights with multiplicities ``counts``: counts[v] weights equal v,
    and counts[0] = 0.

    1 - t^a is the product of the cyclotomic polynomials Phi_m over m | a,
    so the quotient is a polynomial exactly when every Phi_m with m >= 2
    divides the numerator at least as often as the denominator; only
    m <= max(w) divide the denominator at all.  Phi_m divides 1 - t^{w_i}
    when w_i = 0 (mod m), and 1 - t^{d-w_i} when w_i = d (mod m), so each
    side is a count of weights in one residue class mod m: a sum of every
    m-th multiplicity.  The largest m go first: on the scan's weight
    systems they reject sooner."""
    for m in range(len(counts) - 1, 1, -1):
        if sum(counts[m::m]) > sum(counts[degree % m::m]):
            return False
    return True


def _packing(n: int, degree: int, sigma: int):
    """The packed-series kernel for n+1 weights in degree ``degree`` with
    socle degree ``sigma``: ``(mask, factor, read)``.

    Kronecker substitution: a series is evaluated at t = X = 2^B on one
    Python int and reduced mod X^{sigma+1} (``& mask``).  ``factor(v, c)``
    is ((1 - X^{d-v}) / (1 - X^v))^c, built once per (v, c) by c
    shift-subtracts and c runs of shift-adds by v, 2v, 4v, ... <= sigma,
    since 1/(1-u) = prod_k (1 + u^{2^k}) mod X^{sigma+1} for u = X^v.  A
    weight system's series is the product of its factors, one multiply and
    mask each.  Truncating at sigma is exact because a polynomial quotient
    has degree sigma, and t -> X mod 2^{B(sigma+1)} is a ring map, so the
    factors may come in any order and only the final coefficients must fit.

    Each coefficient of the truncated quotient is at most
    2^{n+1} C(sigma+n, n) in absolute value: the numerator's absolute
    coefficient sum times the number of (a_1..a_n) with sum a_i <= sigma
    (a_0 is then fixed by the degree).  B is one bit more, for the sign,
    rounded up to whole bytes, so |c_j| < 2^{B-1}.  If every c_j >= 0, the
    base-X digits of the reduced int are the c_j themselves, each below
    2^{B-1}; if not, the lowest negative c_j leaves the digit
    c_j + 2^B >= 2^{B-1}, the digits below it untouched.  So ``read(x)``
    is None when one AND finds a digit's top bit set, and otherwise maps k
    to its digit alone (0 outside 0..sigma): only digits asked for are read."""
    nbytes = (n + 2 + math.comb(sigma + n, n).bit_length() + 7) // 8
    bits = 8 * nbytes
    mask = (1 << bits * (sigma + 1)) - 1
    signs = int.from_bytes(b"\x01".ljust(nbytes, b"\x00") * (sigma + 1), "little") << bits - 1
    digit = (1 << bits) - 1

    @functools.cache
    def factor(v: int, c: int) -> int:
        f = 1
        for _ in range(c):
            if degree - v <= sigma:
                f = (f - (f << bits * (degree - v))) & mask
            s = v
            while s <= sigma:
                f = (f + (f << bits * s)) & mask
                s += s
        return f

    def read(x: int):
        if not x & signs:
            return lambda k: (x >> bits * k) & digit if 0 <= k <= sigma else 0

    return mask, factor, read


def _jacobian_poly(w: tuple[int, ...], degree: int) -> Callable[[int], int]:
    """The Hilbert polynomial of the Jacobian ring of validated weights
    ``w``, prod (1 - t^{d-w_i}) / prod (1 - t^{w_i}), as a function that
    maps k to its coefficient dim R_k: 0 outside 0..sigma.  It is the
    product of one ``_packing`` factor per distinct weight.

    Raises ValueError when no regular sequence exists in those degrees: the
    series is not a polynomial (rejected before any arithmetic), or it is
    one with a negative coefficient, which no graded ring has."""
    counts = [0] * (max(w) + 1)
    for wi in w:
        counts[wi] += 1
    if _polynomial_series(counts, degree):
        mask, factor, read = _packing(len(w) - 1, degree, len(w) * degree - 2 * sum(w))
        x = 1
        for v, c in enumerate(counts):
            if c:
                x = x * factor(v, c) & mask
        if coefficient := read(x):
            return coefficient
    raise ValueError(
        f"weights {w} admit no regular sequence in degree {degree}: the "
        f"Hilbert series is not a polynomial with nonnegative coefficients"
    )


def jacobian_hilbert(weights, degree: int, k: int) -> int:
    """dim R_k of the generic Jacobian ring; 0 outside 0..socle."""
    coefficient = _jacobian_poly(*_validated(weights, degree))
    return coefficient(_integer(k, "k"))


class WeightedHodgeRow(namedtuple("WeightedHodgeRow",
                                  "weights degree dim entries moduli")):
    """Primitive middle Hodge numbers of a weighted hypersurface: ``entries``
    holds h^{p, dim-p}_prim for p = 0..dim, and ``moduli`` is dim R_degree.
    For odd ``dim`` the primitive part is the whole middle row."""

    __slots__ = ()

    def as_json(self) -> dict:
        return {
            "weights": list(self.weights),
            "degree": self.degree,
            "dim": self.dim,
            "middle": list(self.entries),
            "moduli": self.moduli,
        }


def steenbrink_hodge(weights, degree: int) -> WeightedHodgeRow:
    """Primitive middle Hodge row of the generic degree-``degree``
    hypersurface in the weighted projective space of ``weights``."""
    w, degree = _validated(weights, degree)
    return _row(w, degree, _jacobian_poly(w, degree))


def _row(w: tuple[int, ...], degree: int, piece: Callable[[int], int]) -> WeightedHodgeRow:
    """The row of weights ``w`` whose Jacobian ring has the pieces ``piece``."""
    dim, total = len(w) - 2, sum(w)
    entries = tuple(piece((dim - p + 1) * degree - total) for p in range(dim + 1))
    return WeightedHodgeRow(w, degree, dim, entries, piece(degree))


def _multiplicities(length: int, top: int, total: int):
    """The multiplicity vectors of the nondecreasing tuples of ``length``
    entries in 1..top that sum to ``total``: lists ``counts`` with counts[v]
    entries equal to v for v in 1..top, and counts[0] = 0.  They come in
    the lexicographic order of their tuples (more small entries first), and
    one list is yielded each time, updated in place: read it before asking
    for the next.

    An odometer over counts[1..top].  With rl entries and ``rest`` of the
    sum left after counts[v], those entries lie in v+1..top, so a choice
    of counts[v] completes exactly when rl*(v+1) <= rest <= rl*top.  Going
    down, each level takes the largest such count and counts[top] takes
    what is left.  To advance, the walk climbs from level top-1 to the
    deepest level whose count can still drop by one: a nonzero count whose
    rl and rest after it satisfy rl*(v+1) < rest, so that one more entry
    and v more of the sum still fit above v.  It lowers that count and goes
    down again.  Every choice completes, so it never backtracks from a
    dead end."""
    counts = [0] * (top + 1)
    if not (top >= 1 and length <= total <= length * top):
        if length == total == 0:
            yield counts
        return
    v, rl, rest = 1, length, total
    while True:
        while v < top:
            c = min(rl, (rl * top - rest) // (top - v))
            counts[v] = c
            rl -= c
            rest -= c * v
            v += 1
        counts[top] = rl
        yield counts
        rest = rl * top
        v = top - 1
        while v and not (counts[v] and rest > rl * (v + 1)):
            rl += counts[v]
            rest += counts[v] * v
            v -= 1
        if not v:
            return
        counts[v] -= 1
        rl += 1
        rest += v
        v += 1


def weighted_cy_scan(max_dim: int, max_weight: int, max_degree: int) -> list[WeightedHodgeRow]:
    """All weight systems with entries <= max_weight and degree <= max_degree
    whose generic hypersurface is a Fano of odd dimension 5..max_dim with the
    Calabi-Yau-type middle shape (|w| = kd for dimension 2k+1), in
    (dim, degree, weights) order; the caller decides which rows are backed
    by stored reference values.

    Weight systems are walked as multiplicity vectors, and only those whose
    Hilbert series is a polynomial are multiplied out.  Every row has socle
    degree (n+1)d - 2kd = 3d, so one ``_packing`` kernel serves a (dim,
    degree) block.  prefix[v] is the product of the factors of levels 1..v,
    and a vector that passes the gate multiplies again only from the lowest
    level whose count changed since the last vector that passed."""
    max_dim = _integer(max_dim, "max_dim")
    max_weight = _integer(max_weight, "max_weight")
    max_degree = _integer(max_degree, "max_degree")
    rows = []
    for dim in range(5, max_dim + 1, 2):
        n = dim + 1
        k = (dim - 1) // 2
        for degree in range(2, max_degree + 1):
            top = min(max_weight, degree - 1)
            mask, factor, read = _packing(n, degree, 3 * degree)
            last, prefix = [0] * (top + 1), [1] * (top + 1)
            for counts in _multiplicities(n + 1, top, k * degree):
                if not _polynomial_series(counts, degree):
                    continue
                v = 1
                while counts[v] == last[v]:
                    v += 1
                last[v:] = counts[v:]
                for v in range(v, top + 1):
                    c = counts[v]
                    prefix[v] = prefix[v - 1] * factor(v, c) & mask if c else prefix[v - 1]
                piece = read(prefix[top])
                if piece:  # else a negative coefficient: no regular sequence
                    w = tuple(v for v in range(1, top + 1) for _ in range(counts[v]))
                    rows.append(_row(w, degree, piece))
    return rows


__all__ = [
    "WeightedHodgeRow",
    "hilbert_coefficients",
    "socle_degree",
    "jacobian_hilbert",
    "steenbrink_hodge",
    "weighted_cy_scan",
]
