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

from dataclasses import dataclass


def _validated(weights, degree: int) -> tuple[int, ...]:
    w = tuple(int(x) for x in weights)
    if len(w) < 2 or any(x < 1 for x in w):
        raise ValueError(f"weights must be >= 1, got {w}")
    if any(degree - x < 1 for x in w):
        raise ValueError(f"degree {degree} must exceed every weight in {w}")
    return w


def hilbert_coefficients(weights, degree: int, upto: int) -> list[int]:
    """Coefficients 0..upto of prod (1 - t^{d-w_i}) / (1 - t^{w_i})."""
    w = _validated(weights, degree)
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
    w = _validated(weights, degree)
    return len(w) * degree - 2 * sum(w)


def _polynomial_series(w: tuple[int, ...], degree: int) -> bool:
    """Whether prod (1 - t^{d-w_i}) / prod (1 - t^{w_i}) is a polynomial.

    1 - t^a is the product of the cyclotomic polynomials Phi_m over m | a,
    so the quotient is a polynomial exactly when every Phi_m with m >= 2
    divides the numerator at least as often as the denominator; only
    m <= max(w) divide the denominator at all.  Phi_m divides 1 - t^{w_i}
    when w_i = 0 (mod m), and 1 - t^{d-w_i} when w_i = d (mod m)."""
    for m in range(2, max(w) + 1):
        residues = [x % m for x in w]
        if residues.count(0) > residues.count(degree % m):
            return False
    return True


def _jacobian_poly(w: tuple[int, ...], degree: int) -> list[int]:
    """The Hilbert polynomial of the Jacobian ring of validated weights
    ``w``, by exact division of prod (1 - t^{d-w_i}) by prod (1 - t^{w_i}).

    Raises ValueError when no regular sequence exists in those degrees: the
    series is not a polynomial (rejected before any arithmetic), or it is
    one with a negative coefficient, which no graded ring has."""
    if _polynomial_series(w, degree):
        num = [1]
        for wi in w:
            e = degree - wi
            ext = num + [0] * e
            for j, c in enumerate(num):
                ext[j + e] -= c
            num = ext
        for wi in w:
            # series division by 1 - t^{wi}: q_j = num_j + q_{j-wi}; every
            # partial quotient is a polynomial, so its top wi terms vanish
            q = [0] * len(num)
            for j, c in enumerate(num):
                q[j] = c + (q[j - wi] if j >= wi else 0)
            num = q[: len(num) - wi]
        if min(num) >= 0:
            return num
    raise ValueError(
        f"weights {w} admit no regular sequence in degree {degree}: the "
        f"Hilbert series is not a polynomial with nonnegative coefficients"
    )


def jacobian_hilbert(weights, degree: int, k: int) -> int:
    """dim R_k of the generic Jacobian ring; 0 outside 0..socle."""
    poly = _jacobian_poly(_validated(weights, degree), degree)
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
    w = _validated(weights, degree)
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


def _weight_tuples(length: int, top: int, total: int, low: int = 1):
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
            for tail in _weight_tuples(length - 1, top, rest, x):
                yield (x,) + tail


def weighted_cy_scan(max_dim: int, max_weight: int, max_degree: int) -> list[WeightedHodgeRow]:
    """All weight systems with entries <= max_weight and degree <= max_degree
    whose generic hypersurface is a Fano of odd dimension 5..max_dim with the
    Calabi-Yau-type middle shape (|w| = kd for dimension 2k+1).

    Results are sorted by (dim, degree, weights); the caller decides which
    rows are backed by stored reference values.
    """
    rows = []
    for dim in range(5, max_dim + 1, 2):
        n = dim + 1
        k = (dim - 1) // 2
        for degree in range(2, max_degree + 1):
            top = min(max_weight, degree - 1)
            for w in _weight_tuples(n + 1, top, k * degree):
                try:
                    rows.append(steenbrink_hodge(w, degree))
                except ValueError:
                    continue  # no regular sequence in those degrees
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
