"""Cohomology of irreducible homogeneous vector bundles.

The central routine :func:`bott` takes an irreducible bundle E_lambda on a
marked homogeneous space (lambda Levi-dominant: unmarked coordinates >= 0,
marked coordinates unrestricted, twists folded into the marked coordinates)
and returns its sheaf cohomology: either everything vanishes, or there is a
single nonzero group H^q of dimension weyl_dim(mu), where the dominance walk
of lambda + rho lands on mu + rho after q reflections.  Each factor's group
is cached on (root system, weight), so a weight that many bundles share (the
same Schur bundle spelled several ways, say) is walked once per process.

On top of that sit:

* :func:`kostant_forms` — the p-forms of a cominuscule space decompose as a
  multiplicity-free sum of irreducible bundles E_{w(rho)-rho} over the
  length-p minimal coset representatives (products: all bidegree splittings);
* :func:`forms_cohomology` — aggregated cohomology of Omega^p(-k).  It only
  needs degrees and dimensions, so it never walks: both are read off the
  pairings of the non-dominant weight w(rho) - k * omega with the positive
  coroots, which per Kostant weight are tabulated once
  (``_kostant_pairings``) and moved by the twist only where the coroot
  involves the marked node.  Serre duality pairs Omega^p(-vec) with
  Omega^{n-p}(vec), so each pair is summed and cached once;
* closed-form epsilon-coordinate fast paths for Grassmannians G(k,n) and
  spinor varieties S_{2n} that avoid the dominance walk entirely, plus the
  Schur-label constructors that feed them, on a shape derived once per
  space (a refusal is not cached) and label views cached per (label, parts);
* :func:`euler_char` — a weight-level Euler characteristic for form bundles
  that works on any marked space, cominuscule or not.

Conventions for G(k,n) (type A, marked node n-k, 0-indexed n-k-1): epsilon
order lists the quotient block Q first, then the tautological block E, so
O(1) = det Q and a twist by O(t) shifts the Q block by t.  The fast-path
sequence for S_a Q* otimes S_b E (t) is

    (-rev(pad(a, n-k)) + t, pad(b, k)) + (n-1, n-2, ..., 0)

with repeated entries meaning vanishing, the cohomological degree counting
the ascents i < j with s_i < s_j, and the dimension given by the Vandermonde
ratio of the sorted sequence.

For S_{2n} (type D, marked node n), the shifted sequence of S_lambda E (t) is

    rho - rev(pad(lambda, n)) + t/2,    rho = (n-1, ..., 1, 0),

stored with doubled entries so odd twists stay integral.  Vanishing happens
iff two entries coincide or two entries sum to zero; the degree adds the
number of pairs with negative sum to the number of ascents; the dimension is
the even-orthogonal Vandermonde ratio in the squared entries.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, compress, product, starmap
from math import prod

from .catalog import HomogSpace
from .rootsys import (_integer, _integers, _weight, coroot_pairings,
                      minimal_coset_reps, to_dominant, weyl_dim, weyl_dim_levi)


class Bundle(namedtuple("Bundle", "space weights")):
    """Irreducible homogeneous bundle on ``space``, one Levi-dominant weight
    per factor (twists already folded into the marked coordinates)."""

    __slots__ = ()

    def twisted(self, k) -> "Bundle":
        """Tensor with O(k): k copies of the primitive ample class L, or a
        tuple of raw per-factor marked increments.  O(0) returns ``self``."""
        vec = self.space.degree_vector(k)
        if not any(vec):
            return self
        new = []
        for f, w, inc in zip(self.space.factors, self.weights, vec):
            w = list(w)
            w[f.node] += inc
            new.append(tuple(w))
        return Bundle(self.space, tuple(new))


def bundle(space: HomogSpace, weights, twist=0) -> Bundle:
    """Validated constructor: integer coordinates, every unmarked one >= 0;
    ``twist`` is an integer or one integer per factor."""
    weights = tuple(weights)
    if len(weights) != len(space.factors):
        raise ValueError("need one weight per factor")
    weights = tuple([_weight(f.rs, w) for f, w in zip(space.factors, weights)])
    for f, w in zip(space.factors, weights):
        for j, c in enumerate(w):
            if j != f.node and c < 0:
                raise ValueError(f"weight {w} is not Levi-dominant at node {j + 1}")
    return Bundle(space, weights).twisted(twist)


class CohomologyTable(namedtuple("CohomologyTable", "group", defaults=(None,))):
    """Borel-Weil-Bott gives at most one nonzero group: ``group`` is
    ``(degree, per-factor dominant weight, dim)``, or None when acyclic."""

    __slots__ = ()

    @property
    def acyclic(self) -> bool:
        return self.group is None

    def dims(self) -> dict[int, int]:
        return {} if self.group is None else {self.group[0]: self.group[2]}

    def single(self):
        """(degree, weight, dim), or None when acyclic."""
        return self.group


@lru_cache(maxsize=None)
def _factor_group(rs, lam: tuple[int, ...]):
    """The one group of E_lam on a factor of type ``rs``, in the shape of
    ``CohomologyTable.group``: None when the dominance walk of lam + rho
    meets a wall, else ``(length, (mu,), weyl_dim(mu))`` with mu + rho
    where the walk lands.  Cached on ``(rs, lam)``, so each weight is
    walked once per process; :func:`bott` lets only ints into the key."""
    walk = to_dominant(rs, [c + 1 for c in lam])
    if walk.singular:
        return None
    mu = tuple([c - 1 for c in walk.dominant])
    return walk.length, (mu,), weyl_dim(rs, mu)


def bott(b: Bundle) -> CohomologyTable:
    """Borel-Weil-Bott: dominance walk of lambda + rho on every factor; a
    walk that meets a wall makes the bundle acyclic.  Kuenneth: degrees
    add, weights concatenate and dimensions multiply over the factors'
    groups (:func:`_factor_group`), and a one-factor bundle gets the cached
    group itself.  Each weight passes the one weight gate ``_weight`` first:
    ``2.0`` raises ValueError, because ``(2.0,) == (2,)`` would take the
    integer weight's cache slot, and so does a weight of the wrong length."""
    group = None
    for f, lam in zip(b.space.factors, b.weights):
        g = _factor_group(f.rs, _weight(f.rs, lam))
        if g is None:
            return CohomologyTable()
        group = g if group is None else (
            group[0] + g[0], group[1] + g[1], group[2] * g[2])
    return CohomologyTable((0, (), 1) if group is None else group)


def fiber_dim(b: Bundle) -> int:
    """Rank of the bundle: Weyl dimension over the Levi on each factor."""
    out = 1
    for f, lam in zip(b.space.factors, b.weights):
        out *= weyl_dim_levi(f.rs, f.unmarked, lam)
    return out


# ---------------------------------------------------------------------------
# Kostant decomposition of form bundles


def _require_cominuscule(space: HomogSpace, p: int) -> None:
    if p and not space.cominuscule:
        raise ValueError(
            f"{space.name} has a non-cominuscule factor; "
            "form bundles are not multiplicity-free irreducible sums there"
        )


def _splittings(per_factor, p: int):
    """Kuenneth splittings of p: one ``(p_i, x_i)`` choice per factor, the p_i
    summing to p, as ``(x_1, ..., x_m)`` in nested-loop order."""
    return (tuple(x for _, x in split) for split in product(*per_factor)
            if sum(pf for pf, _ in split) == p)


@lru_cache(maxsize=None, typed=True)
def kostant_forms(space: HomogSpace, p: int) -> tuple[Bundle, ...]:
    """Summands of Omega^p as a sum of irreducible bundles.

    Requires every factor to be cominuscule for p != 0 (on a single factor
    the p-forms are exactly the length-p shifted weights; on products,
    Omega^p collects all exterior bidegrees summing to p, each factor's
    levels taken from the top down).  The cache is typed, so a refused
    ``p = 1.0`` never meets the key of ``p = 1``.
    """
    p = _integer(p, "form degree")
    _require_cominuscule(space, p)
    levels = [minimal_coset_reps(f.rs, f.node) for f in space.factors]
    choices = [[(pf, w) for pf in range(len(reps) - 1, -1, -1) for w in reps[pf]]
               for reps in levels]
    return tuple(Bundle(space, ws) for ws in _splittings(choices, p))


@lru_cache(maxsize=None)
def _kostant_pairings(f, pf: int):
    """The length-pf Kostant weights u = w(rho) of the factor, by their
    pairings with the positive coroots.

    ``<u + inc * omega_node, alpha^vee> = a + inc * c`` with
    ``c = <omega_node, alpha^vee>``, the coroot's coefficient at the node.
    Pairings with ``c = 0`` are the same for every twist: per weight they
    fold into ``(|product|, number negative)`` once, and a zero among them
    drops the weight.  The other coroots are the nilradical's (``dim f`` of
    them); their ``c`` form one tuple shared by every weight, and each
    weight keeps its ``a`` in a flat tuple of the same order.  Returns
    ``(c, ((|product|, negative, a), ...))``."""
    coeffs = coroot_pairings(f.rs, f.omega())
    fixed_at = [not c for c in coeffs]
    out = []
    for w in minimal_coset_reps(f.rs, f.node)[pf]:
        pairings = coroot_pairings(f.rs, [x + 1 for x in w])
        fixed = list(compress(pairings, fixed_at))
        if 0 not in fixed:  # else u + inc * omega is singular for every inc
            out.append((abs(prod(fixed)), sum(a < 0 for a in fixed),
                        tuple(compress(pairings, coeffs))))
    return tuple(filter(None, coeffs)), tuple(out)


def _factor_forms(f, pf: int, inc: int) -> dict[int, int]:
    """H^* of Omega^pf(inc) on one factor, as degree -> dimension.  Each
    Kostant weight's group is read off its pairings ``a + inc * c``: the
    degree counts the negative ones, the dimension is
    ``|product| / rs.dim_den``, and a zero pairing means no group."""
    acc: dict[int, int] = {}
    den = f.rs.dim_den
    coeffs, table = _kostant_pairings(f, pf)
    for num, q, moving in table:
        for a, c in zip(moving, coeffs):
            s = a + inc * c
            if s <= 0:
                if not s:
                    break
                q += 1
            num *= s
        else:
            acc[q] = acc.get(q, 0) + abs(num) // den
    return acc


@lru_cache(maxsize=None)
def _forms_cohomology(space: HomogSpace, p: int, vec) -> tuple[tuple[int, int], ...]:
    """Kuenneth: Omega^p(-vec) is the sum over splittings p = p_1 + ... + p_m
    of the outer products of Omega^{p_i}(-vec_i) on the factors, so its
    cohomology is the convolution of per-factor Bott sums over the factor's
    own Kostant weights (:func:`_factor_forms`, no dominance walk).
    Splittings the remaining factors cannot fill are never visited;
    per-factor sums are shared within the call only."""
    _require_cominuscule(space, p)
    up = tuple(-v for v in vec)
    sums: dict[tuple, dict[int, int]] = {}
    partial: dict[int, dict[int, int]] = {0: {0: 1}}  # degrees used -> H^*
    rest = space.dim  # form degrees the factors after f can still hold
    for f, inc in zip(space.factors, up):
        rest -= f.dim
        nxt: dict[int, dict[int, int]] = {}
        for used, coh in partial.items():
            left = p - used
            for pf in range(max(0, left - rest), min(left, f.dim) + 1):
                key = (f, pf, inc)
                fc = sums.get(key)
                if fc is None:
                    fc = sums[key] = _factor_forms(f, pf, inc)
                if not fc:
                    continue
                acc = nxt.setdefault(used + pf, {})
                for q1, d1 in coh.items():
                    for q2, d2 in fc.items():
                        acc[q1 + q2] = acc.get(q1 + q2, 0) + d1 * d2
        partial = nxt
    return tuple(sorted(partial.get(p, {}).items()))


def forms_cohomology(space: HomogSpace, p: int, k=0) -> dict[int, int]:
    """Aggregated dims of H^*(Omega^p(-k)): ``k`` counts copies of L, or
    gives the per-factor downward twist.  On a cominuscule space of
    dimension n, K (x) (Omega^p)^dual = Omega^{n-p}, so Serre duality gives
    h^q(Omega^p(-vec)) = h^{n-q}(Omega^{n-p}(vec)): the cache holds one entry
    per orbit, keyed on the smaller of ``(p, vec)`` and ``(n - p, -vec)``,
    and the other member reads it with q -> n - q."""
    p = _integer(p, "form degree")
    vec = space.degree_vector(k)
    n = space.dim
    if n >= p and 2 * p >= n and space.cominuscule:
        dual = tuple([-v for v in vec])
        if 2 * p > n or dual < vec:
            return {n - q: d for q, d in reversed(_forms_cohomology(space, n - p, dual))}
    return dict(_forms_cohomology(space, p, vec))


def euler_char(space: HomogSpace, p: int, k=0) -> int:
    """Euler characteristic of Omega^p(-k) at the level of tangent weights.

    The class of Omega^p in K-theory is the sum of the lines with weights
    -(alpha_1 + ... + alpha_p) over p-subsets of the nilradical roots of each
    factor, so chi is a signed sum of Weyl dimensions.  Works on any marked
    space; cost is binomial in the factor dimension (guarded).  Each weight's
    group is read from the walk cache :func:`_factor_group`, which
    :func:`forms_cohomology` never reads, so the two share no Bott code.
    """
    p = _integer(p, "form degree")
    up = tuple(-v for v in space.degree_vector(k))
    per_factor = []
    for f, inc in zip(space.factors, up):
        if f.dim > 16:
            raise ValueError(f"factor {f.describe()} too large for weight-level chi")
        by_p = []
        for pf in range(min(p, f.dim) + 1):
            chi = 0
            for subset in combinations(f.u_root_indices, pf):
                w = [0] * f.rs.rank
                for i in subset:
                    for j, c in enumerate(f.rs.root_coords[i]):
                        w[j] -= c
                w[f.node] += inc
                g = _factor_group(f.rs, tuple(w))
                if g is not None:
                    chi += -g[2] if g[0] % 2 else g[2]
            by_p.append(chi)
        per_factor.append(tuple(enumerate(by_p)))
    return sum(map(prod, _splittings(per_factor, p)))


# ---------------------------------------------------------------------------
# Type A fast path: G(k,n)


@lru_cache(maxsize=None)
def grassmann_shape(space: HomogSpace):
    """(k, n) for a single-factor type A space marked at node n-k."""
    f = space.factors[0]
    if len(space.factors) != 1 or f.rs.series != "A":
        raise ValueError(f"{space.name} is not a Grassmannian")
    n = f.rs.rank + 1
    k = n - (f.node + 1)
    return k, n


def grassmann_sequence(space: HomogSpace, q_label, e_label, twist: int = 0):
    """Shifted epsilon-sequence of S_{q_label} Q* otimes S_{e_label} E (twist):
    the Q block rho - rev(a) shifted by k + twist, then b + rho."""
    k, n = grassmann_shape(space)
    a = _pad_partition(q_label, n - k)
    b = _pad_partition(e_label, k)
    shift = _integer(twist, "twist") + k
    return tuple([c + shift for c in a.down]) + b.up


def grassmann_bundle(space: HomogSpace, q_label, e_label, twist: int = 0) -> Bundle:
    """Same bundle in fundamental coordinates (for the generic walk): the
    differences of consecutive epsilon coordinates (-rev(a) + t, b)."""
    k, n = grassmann_shape(space)
    a = _pad_partition(q_label, n - k)
    b = _pad_partition(e_label, k)
    marked = _integer(twist, "twist") - a.lam[0] - b.lam[0]
    return Bundle(space, (a.rsteps + (marked,) + b.steps,))


def sequence_cohomology(seq):
    """Cohomology from a shifted type-A sequence: None if two entries repeat,
    else (degree, dim) with degree the number of ascents."""
    seq = _integers(seq, "sequence entry")
    if len(set(seq)) != len(seq):
        return None
    degree = sum(starmap(operator.lt, combinations(seq, 2)))
    num = prod(starmap(operator.sub, combinations(sorted(seq, reverse=True), 2)))
    den = _vandermonde_den(len(seq), False)
    assert num % den == 0
    return degree, num // den


# ---------------------------------------------------------------------------
# Type D fast path: spinor varieties S_{2n}


@lru_cache(maxsize=None)
def spinor_shape(space: HomogSpace) -> int:
    """n for the spinor variety S_{2n}: type D_n marked at its last node."""
    f = space.factors[0]
    if len(space.factors) != 1 or f.rs.series != "D" or f.node != f.rs.rank - 1:
        raise ValueError(f"{space.name} is not a spinor variety")
    return f.rs.rank


def spinor_sequence(space: HomogSpace, label, twist: int = 0):
    """Shifted sequence of S_label E (twist) with doubled entries:
    2 (rho - rev(label)) + twist."""
    lab = _pad_partition(label, spinor_shape(space))
    twist = _integer(twist, "twist")
    return tuple([2 * c + twist for c in lab.down])


def spinor_bundle(space: HomogSpace, label, twist: int = 0) -> Bundle:
    """S_label E (twist) in fundamental coordinates: the differences of the
    reversed label, then ``twist - label[0] - label[1]`` at the marked node."""
    lab = _pad_partition(label, spinor_shape(space))
    marked = _integer(twist, "twist") - lab.lam[0] - lab.lam[1]
    return Bundle(space, (lab.rsteps + (marked,),))


def spinor_sequence_cohomology(seq, doubled: bool = False):
    """Cohomology from a shifted type-D sequence.

    ``seq`` holds the entries as printed (integers), or doubled integers when
    ``doubled`` is set.  None if two entries coincide or sum to zero; else
    (degree, dim), degree = ascents + pairs with negative sum.
    """
    s = _integers(seq, "sequence entry")
    if not doubled:
        s = tuple(2 * v for v in s)
    deg = 0
    for a, b in combinations(s, 2):
        if a == b or a + b == 0:
            return None
        deg += (a < b) + (a + b < 0)
    num = prod(a * a - b * b
               for a, b in combinations(sorted(map(abs, s), reverse=True), 2))
    den = _vandermonde_den(len(s), True)
    assert num % den == 0
    return deg, num // den


@lru_cache(maxsize=None)
def _vandermonde_den(n: int, squared: bool) -> int:
    """Product over the pairs of rho = (n-1, ..., 0) of ``a - b``, or of
    ``a^2 - b^2`` over those of 2 rho when ``squared``: once per length."""
    return prod(4 * (a * a - b * b) if squared else a - b
                for a, b in combinations(range(n - 1, -1, -1), 2))


def _pad_partition(label, parts: int) -> _Label:
    """The label's views (:class:`_Label`), its ``lam`` a weakly decreasing
    tuple of exactly ``parts`` integers >= 0, zeros added or dropped.  Parts
    go through ``operator.index`` before the cache (:func:`_padded`), so 2.0
    never takes the slot of 2."""
    try:
        return _padded(tuple(map(operator.index, label)), parts)
    except TypeError:
        raise ValueError(f"label {label!r} must be a sequence of integers") from None
    except ValueError as exc:
        raise ValueError(f"{label} {exc}") from None


_Label = namedtuple("_Label", "lam up down steps rsteps")


@lru_cache(maxsize=None)
def _padded(lam: tuple[int, ...], parts: int) -> _Label:
    """One entry per (label, parts): the padded label ``lam`` and the views
    the constructors read, ``lam + rho`` and ``rho - rev(lam)`` with
    rho = (parts-1, ..., 0), the differences ``lam[i] - lam[i+1]``, and
    those reversed."""
    if any(map(operator.lt, lam, lam[1:])):
        raise ValueError("is not weakly decreasing")
    if any(lam[parts:]):
        raise ValueError(f"has more than {parts} parts")
    lam = lam[:parts]
    if lam and lam[-1] < 0:
        raise ValueError("has negative parts")
    lam += (0,) * (parts - len(lam))
    rho = range(parts - 1, -1, -1)
    steps = tuple(map(operator.sub, lam, lam[1:]))
    return _Label(lam, tuple(map(operator.add, lam, rho)),
                  tuple(map(operator.sub, rho, lam[::-1])), steps, steps[::-1])
