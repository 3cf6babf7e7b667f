"""Exact root-system arithmetic for the series A, B, C, D, E6, E7 and G2.

Everything here is integer arithmetic on weights written in fundamental-weight
coordinates.  Conventions, fixed once and used by every other module:

* Nodes are 0-indexed in the Python API.  Bourbaki 1-based labels appear only
  in serialized catalog data and CLI output.  For the E series the branch node
  is node 1 (Bourbaki node 2), attached to node 3 (Bourbaki 4).
* ``cartan[i][j] = <alpha_j, alpha_i^vee>``, so column ``j`` of the Cartan
  matrix holds the fundamental coordinates of the simple root ``alpha_j``.
* Squared lengths are normalized so short roots have ``d = 1``; long roots
  have ``d = 2`` (B, C) or ``d = 3`` (G2).  Simply-laced systems are all 1.
* Coroot coordinates of a positive root ``alpha = sum c_j alpha_j`` are
  ``c_j d_j / d_alpha``; they are always integers, so pairings
  ``<w, alpha^vee>`` stay exact.
* ``rho`` is the all-ones weight.  ``to_dominant`` walks an arbitrary weight
  into the dominant chamber by simple reflections at negative coordinates and
  reports the number of reflections used, which for a regular weight equals
  the inversion count of the unique Weyl element involved.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import compress
from math import factorial, prod

SERIES = ("A", "B", "C", "D", "E", "G")

WEYL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("G", 2): 12,
}


def _integer(value, name: str) -> int:
    """``value`` as an int, refused (not rounded) when it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _weight(rs, w):
    """``w`` as ints, one per node of ``rs``; an all-int ``w`` passes as it is."""
    if set(map(type, w)) != {int}:
        w = [_integer(c, "weight coordinate") for c in w]
    if len(w) != rs.rank:
        raise ValueError(f"weight {tuple(w)} has {len(w)} coordinates, not {rs.rank}")
    return w


def weyl_order(series: str, rank: int) -> int:
    """Order of the Weyl group, used by enumeration cross-checks."""
    if series == "A":
        return factorial(rank + 1)
    if series in ("B", "C"):
        return 2**rank * factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return WEYL_ORDERS[(series, rank)]


def _edges(series: str, rank: int) -> list[tuple[int, int]]:
    # 0-indexed Dynkin diagram edges (simple-bond adjacency; multiplicities
    # live in the Cartan matrix, not here) of a system root_system supports.
    if series == "D":
        chain = [(i, i + 1) for i in range(rank - 3)]
        return chain + [(rank - 3, rank - 2), (rank - 3, rank - 1)]
    if series == "E":
        # Bourbaki: 1-3-4-5-6(-7) chain, 2 attached to 4.  0-indexed below.
        chain = [(0, 2), (2, 3), (3, 4), (4, 5)] + ([(5, 6)] if rank == 7 else [])
        return chain + [(1, 3)]
    return [(i, i + 1) for i in range(rank - 1)]  # A, B, C, G


def _lengths(series: str, rank: int) -> tuple[int, ...]:
    if series == "B":
        return tuple([2] * (rank - 1) + [1])
    if series == "C":
        return tuple([1] * (rank - 1) + [2])
    if series == "G":
        return (1, 3)
    return tuple([1] * rank)


def _cartan(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    d = _lengths(series, rank)
    mat = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in _edges(series, rank):
        # <alpha_j, alpha_i^vee> = (alpha_i, alpha_j)/d_i with (alpha_i, alpha_j)
        # = -max(d_i, d_j) for adjacent nodes in all supported diagrams.
        m = max(d[i], d[j])
        mat[i][j] = -m // d[i]
        mat[j][i] = -m // d[j]
    return tuple(tuple(row) for row in mat)


EXPECTED_POSITIVE_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63}[n],
    "G": lambda n: 6,
}


def _immutable(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")


class RootSystem(namedtuple("RootSystem", "series rank cartan positive_roots "
                            "root_coords neighbours pivot_order "
                            "dim_steps dim_den")):
    """A root system is determined by its series and rank, so equality and
    hashing look at those two fields only; every derived field is built once
    by :func:`root_system`:

    * ``positive_roots``: coefficient vectors over the simple roots, sorted
      by height; ``root_coords`` holds the fundamental coordinates of each;
    * ``neighbours[i]``: ``(j, cartan[j][i])`` for the Dynkin neighbours j
      of i, the off-diagonal nonzeros of column i that a reflection at i
      touches; ``pivot_order``: the nodes by (number of neighbours, index),
      the pivot's tie-break;
    * ``dim_steps``: one step (k, j) per positive coroot, in order of height:
      the coroot is alpha_j^vee plus the one of step k (1-based; k = 0 means
      zero); ``dim_den``: prod over positive roots of <rho, alpha^vee>, the
      Weyl denominator.

    The hash is computed once per system, with the series letter as its code
    point, so it does not depend on string-hash randomization and stays right
    in a pickle read by another process.  The instance keeps a ``__dict__``
    for that cached hash, and refuses every assignment."""

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other):
        if other.__class__ is not RootSystem:
            return NotImplemented
        return self.series == other.series and self.rank == other.rank

    __ne__ = object.__ne__  # not tuple's, which would compare every field

    @cached_property
    def _hash(self) -> int:
        return hash((ord(self.series), self.rank))

    def __hash__(self) -> int:
        return self._hash

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    @property
    def rho(self) -> tuple[int, ...]:
        return (1,) * self.rank

    @property
    def highest_root(self) -> tuple[int, ...]:
        """Coefficient vector of the highest root (maximal height, unique)."""
        return self.positive_roots[-1]

    def __repr__(self) -> str:  # keep pytest output readable
        return f"RootSystem({self.series}{self.rank})"


def _lower(v: tuple[int, ...], j: int) -> tuple[int, ...]:
    return v[:j] + (v[j] - 1,) + v[j + 1:]


@lru_cache(maxsize=None, typed=True)
def root_system(series: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of a supported (series, rank): this
    is the one support rule.  The cache is typed, so 3.0 meets the gate."""
    rank = _integer(rank, "rank")
    if series not in SERIES:
        raise ValueError(f"unknown series {series!r}")
    if rank < 1 or (series == "D" and rank < 3) or (series == "G" and rank != 2):
        raise ValueError(f"unsupported rank {rank} for series {series}")
    if series == "E" and rank not in (6, 7):
        raise ValueError("only E6 and E7 are supported")
    cartan = _cartan(series, rank)
    d = _lengths(series, rank)
    neighbours = tuple(
        tuple((j, cartan[j][i]) for j in range(rank) if j != i and cartan[j][i])
        for i in range(rank)
    )

    # The positive roots are the closure of the simple roots under simple
    # reflections.  s_i alpha = alpha - <alpha, alpha_i^vee> alpha_i raises
    # coordinate i exactly when that pairing is negative, and keeps length.
    # A root's fundamental coordinates are stored as the closure reaches it:
    # s_i moves them by -c times column i of the Cartan matrix (c the
    # pairing), which negates coordinate i and changes only its neighbours.
    length_of = {}
    fund_of = {}
    for j in range(rank):
        simple = tuple(int(k == j) for k in range(rank))
        length_of[simple] = d[j]
        fund_of[simple] = tuple(row[j] for row in cartan)
    todo = list(length_of)
    while todo:
        alpha = todo.pop()
        fa = fund_of[alpha]
        for i, c in enumerate(fa):
            if c < 0:
                beta = alpha[:i] + (alpha[i] - c,) + alpha[i + 1:]
                if beta not in length_of:
                    fb = list(fa)
                    fb[i] = -c
                    for j, a in neighbours[i]:
                        fb[j] -= c * a
                    length_of[beta] = length_of[alpha]
                    fund_of[beta] = tuple(fb)
                    todo.append(beta)

    positives = sorted(length_of, key=lambda c: (sum(c), c))
    expected = EXPECTED_POSITIVE_COUNTS[series](rank)
    assert len(positives) == expected, (
        f"{series}{rank}: generated {len(positives)} positive roots, "
        f"expected {expected}"
    )
    top_height = sum(positives[-1])
    assert sum(c == top_height for c in map(sum, positives)) == 1, (
        "highest root must be unique"
    )

    coroots = []
    for alpha in positives:
        da = length_of[alpha]
        cv = []
        for j, c in enumerate(alpha):
            num = c * d[j]
            assert num % da == 0, f"non-integral coroot coordinate on {alpha}"
            cv.append(num // da)
        coroots.append(tuple(cv))

    # The coroots form a root system, so every positive coroot is a smaller
    # one (or zero) plus a simple coroot, and in order of height each pairing
    # <w, alpha^vee> is one addition to an earlier one.
    slot = {(0,) * rank: 0}  # coroot -> its slot in coroot_pairings' walk
    dim_steps = []
    dim_den = 1
    for cv in sorted(coroots, key=sum):
        j = next(j for j, c in enumerate(cv) if c and _lower(cv, j) in slot)
        dim_steps.append((slot[_lower(cv, j)], j))
        slot[cv] = len(dim_steps)
        dim_den *= sum(cv)

    return RootSystem(
        series=series,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(positives),
        root_coords=tuple(fund_of[a] for a in positives),
        neighbours=neighbours,
        pivot_order=tuple(sorted(range(rank),
                                 key=lambda i: (len(neighbours[i]), i))),
        dim_steps=tuple(dim_steps),
        dim_den=dim_den,
    )


def simple_reflection(rs: RootSystem, i: int, w) -> tuple[int, ...]:
    """Reflect ``w`` at node ``i``: subtract ``w_i`` times column ``i`` of the
    Cartan matrix, whose nonzeros are the 2 at ``i`` and ``rs.neighbours[i]``
    (the rule ``to_dominant`` applies in place to the same neighbours)."""
    out = list(w)
    for j, c in rs.neighbours[i]:
        out[j] -= w[i] * c
    out[i] = -w[i]
    return tuple(out)


def coroot_pairings(rs: RootSystem, w) -> list[int]:
    """The pairings <w, alpha^vee> with the positive coroots, in
    ``rs.dim_steps`` order: the pairing of step ``(k, j)`` is the one of
    step k plus ``w[j]``, so each costs one addition."""
    pairings = [0]
    for k, j in rs.dim_steps:
        pairings.append(pairings[k] + w[j])
    return pairings[1:]


def inversions(rs: RootSystem, w) -> int:
    """Number of positive coroots pairing negatively with ``w``, or -1 when
    one pairs to zero (singular; no well-defined inversion count).

    For regular ``w = u(rho + lam)`` this is the length of ``u^{-1}``, hence
    the number of reflections any pivot order needs to reach the chamber.
    """
    pairings = coroot_pairings(rs, w)
    return -1 if 0 in pairings else sum(s < 0 for s in pairings)


DominanceWalk = namedtuple("DominanceWalk", "dominant length singular pivots")


def to_dominant(rs: RootSystem, w) -> DominanceWalk:
    """Walk ``w`` into the dominant chamber by simple reflections.

    Returns the dominant representative, the number of reflections (the Weyl
    length for regular weights — independent of pivot order), a singularity
    flag (some coordinate hits zero, i.e. the orbit meets a wall), and the
    pivot sequence used.

    The walk runs on one int list: a reflection at node ``i`` negates
    coordinate ``i`` and updates only its Dynkin neighbours.  The pivot is
    the most negative coordinate, ties resolved by ``rs.pivot_order``
    (fewer Dynkin neighbours first, then smaller index).
    """
    cur = list(_weight(rs, w))
    pivots = []
    neighbours = rs.neighbours
    for _ in range(rs.num_positive + 1):
        low = min(cur)
        if low > 0:
            return DominanceWalk(tuple(cur), len(pivots), False, tuple(pivots))
        if 0 in cur:
            return DominanceWalk(None, len(pivots), True, tuple(pivots))
        for i in rs.pivot_order:
            if cur[i] == low:
                break
        wi = cur[i]
        cur[i] = -wi
        for j, c in neighbours[i]:
            cur[j] -= wi * c
        pivots.append(i)
    raise AssertionError("dominance walk exceeded the longest element")


def weyl_dim(rs: RootSystem, lam) -> int:
    """Dimension of the irreducible module with highest weight ``lam``
    (dominant, fundamental coordinates), by the Weyl dimension formula
    prod <lam + rho, alpha^vee> / prod <rho, alpha^vee>.
    Exact integer arithmetic throughout.  A weight with a negative
    coordinate is refused: the formula would give 0 or a negative number."""
    lam = _weight(rs, lam)
    if min(lam) < 0:
        raise ValueError(f"weight {tuple(lam)} is not dominant")
    num = prod(coroot_pairings(rs, [c + 1 for c in lam]))
    assert num % rs.dim_den == 0, "Weyl dimension must be an integer"
    return num // rs.dim_den


def weyl_dim_levi(rs: RootSystem, unmarked: frozenset[int], lam) -> int:
    """Weyl dimension over the Levi subsystem spanned by ``unmarked`` nodes.

    Only the positive coroots supported on unmarked nodes contribute, so
    marked coordinates of ``lam`` never enter and any twist leaves the value
    fixed.  Those coroots are the ones pairing to 0 with the sum of the
    marked fundamental weights; their heights are their pairings with rho.
    """
    marked = coroot_pairings(rs, [int(j not in unmarked) for j in range(rs.rank)])
    levi = [not m for m in marked]
    num = prod(compress(coroot_pairings(rs, [c + 1 for c in lam]), levi))
    den = prod(compress(coroot_pairings(rs, rs.rho), levi))
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def minimal_coset_reps(rs: RootSystem, node: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The Kostant weights w(rho) - rho of the minimal-length representatives
    w of the parabolic quotient marked at ``node`` (``w^{-1}(alpha_i) > 0``
    for every other node ``i``), grouped by the length of w.

    Enumeration is a breadth-first walk over the orbit of the fundamental
    weight at ``node``: descending from a weight at a strictly positive
    coordinate is one more reflection, and each orbit element is reached
    first at the length of its minimal word.
    """
    lam0 = tuple(int(j == node) for j in range(rs.rank))
    frontier = {lam0: ()}
    seen = {lam0}
    levels = []
    while frontier:
        level = []
        for nu in sorted(frontier):
            # w = (s_{i_k} ... s_{i_1})^{-1}; apply the word in reverse to rho.
            img = rs.rho
            for i in reversed(frontier[nu]):
                img = simple_reflection(rs, i, img)
            level.append(tuple(c - 1 for c in img))
        levels.append(tuple(level))
        nxt = {}
        for nu, word in frontier.items():
            for i in range(rs.rank):
                if nu[i] > 0:
                    down = simple_reflection(rs, i, nu)
                    if down not in seen:
                        seen.add(down)
                        nxt[down] = word + (i,)
        frontier = nxt
    return tuple(levels)
