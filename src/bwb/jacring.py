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

import math
import operator
from dataclasses import dataclass

from .catalog import _integer


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


def _jacobian_poly(w: tuple[int, ...], degree: int) -> list[int]:
    """The Hilbert polynomial of the Jacobian ring of validated weights
    ``w``: prod (1 - t^{d-w_i}) / prod (1 - t^{w_i}), coefficients 0..sigma.

    Kronecker substitution: the series is evaluated at t = X = 2^B on one
    Python int and reduced mod X^{sigma+1}, so every loop over coefficients
    runs inside int arithmetic.  A numerator factor is one shift-subtract;
    a denominator factor is the shift-adds by w, 2w, 4w, ... <= sigma, since
    1/(1-u) = prod_k (1 + u^{2^k}) mod X^{sigma+1} for u = X^w.  Truncating
    at sigma is exact because a polynomial quotient has degree sigma.

    Every coefficient, of the quotient and of each partial product on the
    way, is at most 2^{n+1} C(sigma+n, n) in absolute value: the numerator's
    absolute coefficient sum times the number of (a_1..a_n) with
    sum a_i <= sigma (a_0 is then fixed by the degree).  B is one bit more
    than that, for the sign, rounded up to whole bytes.  The digits are read
    back little-endian after adding 2^{B-1} to each, which turns the signed
    digits into base-2^B ones.

    Raises ValueError when no regular sequence exists in those degrees: the
    series is not a polynomial (rejected before any arithmetic), or it is
    one with a negative coefficient, which no graded ring has."""
    counts = [0] * (max(w) + 1)
    for wi in w:
        counts[wi] += 1
    if _polynomial_series(counts, degree):
        n = len(w) - 1
        sigma = (n + 1) * degree - 2 * sum(w)
        nbytes = (n + 2 + math.comb(sigma + n, n).bit_length() + 7) // 8
        bits = 8 * nbytes
        mask = (1 << bits * (sigma + 1)) - 1
        x = 1
        for wi in w:
            e = degree - wi
            if e <= sigma:
                x = (x - (x << bits * e)) & mask
        for wi in w:
            s = wi
            while s <= sigma:
                x = (x + (x << bits * s)) & mask
                s += s
        half = 1 << bits - 1
        ones = int.from_bytes(b"\x01".ljust(nbytes, b"\x00") * (sigma + 1), "little")
        raw = ((x + ones * half) & mask).to_bytes(nbytes * (sigma + 1), "little")
        poly = [int.from_bytes(raw[i:i + nbytes], "little") - half
                for i in range(0, len(raw), nbytes)]
        if min(poly) >= 0:
            return poly
    raise ValueError(
        f"weights {w} admit no regular sequence in degree {degree}: the "
        f"Hilbert series is not a polynomial with nonnegative coefficients"
    )


def jacobian_hilbert(weights, degree: int, k: int) -> int:
    """dim R_k of the generic Jacobian ring; 0 outside 0..socle."""
    poly = _jacobian_poly(*_validated(weights, degree))
    k = _integer(k, "k")
    return poly[k] if 0 <= k < len(poly) else 0


@dataclass(frozen=True)
class WeightedHodgeRow:
    """Primitive middle Hodge numbers of a weighted hypersurface; for odd
    ``dim`` the primitive part is the whole middle row."""

    weights: tuple[int, ...]
    degree: int
    dim: int
    entries: tuple[int, ...]  # h^{p, dim-p}_prim for p = 0..dim
    moduli: int  # dim R_degree

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
    n = len(w) - 1
    dim = n - 1
    total = sum(w)
    poly = _jacobian_poly(w, degree)

    def piece(k: int) -> int:
        return poly[k] if 0 <= k < len(poly) else 0

    entries = tuple(piece((dim - p + 1) * degree - total) for p in range(dim + 1))
    return WeightedHodgeRow(
        weights=w,
        degree=degree,
        dim=dim,
        entries=entries,
        moduli=piece(degree),
    )


def _multiplicities(length: int, top: int, total: int):
    """The multiplicity vectors of the nondecreasing tuples of ``length``
    entries in 1..top that sum to ``total``: lists ``counts`` with counts[v]
    entries equal to v for v in 1..top, and counts[0] = 0.  They come in
    the lexicographic order of their tuples (more small entries first), and
    one list is yielded each time, updated in place: read it before asking
    for the next.

    A depth-first walk fixes counts[1], counts[2], ... in turn.  After
    counts[v], the rl entries left must lie in v+1..top and sum to the rest,
    so it keeps exactly the counts with rl*(v+1) <= rest <= rl*top; every
    such choice completes, so the walk never backtracks from a dead end."""
    counts = [0] * (top + 1)

    def walk(v: int, rl: int, rest: int):
        if v == top:
            counts[v] = rl  # rest == rl * top, by the bound one level up
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


def weighted_cy_scan(max_dim: int, max_weight: int, max_degree: int) -> list[WeightedHodgeRow]:
    """All weight systems with entries <= max_weight and degree <= max_degree
    whose generic hypersurface is a Fano of odd dimension 5..max_dim with the
    Calabi-Yau-type middle shape (|w| = kd for dimension 2k+1).

    Weight systems are walked as multiplicity vectors, and only those whose
    Hilbert series is a polynomial become tuples for ``steenbrink_hodge``.
    Results are sorted by (dim, degree, weights); the caller decides which
    rows are backed by stored reference values.
    """
    max_dim = _integer(max_dim, "max_dim")
    max_weight = _integer(max_weight, "max_weight")
    max_degree = _integer(max_degree, "max_degree")
    rows = []
    for dim in range(5, max_dim + 1, 2):
        n = dim + 1
        k = (dim - 1) // 2
        for degree in range(2, max_degree + 1):
            top = min(max_weight, degree - 1)
            for counts in _multiplicities(n + 1, top, k * degree):
                if not _polynomial_series(counts, degree):
                    continue
                w = tuple(v for v in range(1, top + 1) for _ in range(counts[v]))
                try:
                    rows.append(steenbrink_hodge(w, degree))
                except ValueError:
                    continue  # a negative coefficient: no regular sequence
    rows.sort(key=lambda r: (r.dim, r.degree, r.weights))
    return rows


__all__ = [
    "WeightedHodgeRow",
    "hilbert_coefficients",
    "socle_degree",
    "jacobian_hilbert",
    "steenbrink_hodge",
    "weighted_cy_scan",
]
