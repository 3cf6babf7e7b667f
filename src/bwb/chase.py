"""Interval bookkeeping for chases through long exact sequences.

Given an exact complex of sheaves

    0 -> T_0 -> T_1 -> ... -> T_m -> target -> 0

whose terms' cohomology is (partially) known, peeling off the images
B_i = im(T_i -> T_{i+1}) produces short exact sequences

    0 -> B_{i-1} -> T_i -> B_i -> 0   (i = 1..m),   B_0 = T_0,  B_m = target,

and each long exact cohomology sequence imposes, for every degree q,

    h^q(T_i) = h^q(B_{i-1}) - r_i[q-1] + h^q(B_i) - r_i[q],

where r_i[q] is the rank of the connecting map H^q(B_i) -> H^{q+1}(B_{i-1}),
bounded by both endpoints.  Keeping every h and every connecting rank as an
integer interval and narrowing all of them to a fixpoint preserves the
coupling between degrees that naive bound-chasing loses; whatever remains
undetermined stays an honest interval.  This is nothing but exactness
bookkeeping: no spectral-sequence differential is ever guessed.
``ses_middle`` is the same chase on A -> B onto C with B unknown, read back
at B, so there is one copy of these equations.

A term is a list of top + 1 entries, one per degree, each an ``Iv`` or an
int; every end, seed value and seed degree must be an integer
(``ValueError`` otherwise), and one that is a plain int skips the call that
checks it.  Inside the solver an interval vector over degrees 0..top is a
pair of int lists ``(lo, hi)`` of length top + 3: slot q + 1 holds degree q,
and the two end slots are the exact zeros at degrees -1 and top + 1.  Every
unknown starts at [0, S + 1], S the sum of the terms' upper ends.  B_0 and
T_0 share one vector, and a complex of fewer than two terms gets zero terms
prepended.
The equations of sequence i in degree q form slot (i, q), with one queued
flag, and one FIFO of slots runs a slot again only when one of the
variables it reads narrowed: a narrowed h^q(B_i) pushes slots (i, q),
(i + 1, q) and (i + 1, q - 1) (whose rank cap reads it), a narrowed r_i[q]
slots (i, q) and (i, q + 1), a narrowed h^q(T_i) slot (i, q).  One pass
over a linear equation is its own fixpoint, so what a slot's sum equation
narrows, r_i[q] aside, pushes only the other slots that read it.  The
start sets the telescoped upper bounds and rank caps forward; backward, it
applies each sum equation to the upper end of h^q(B_{i-1}), lowers the rank
caps that read it, and appends slot (i, q), in the order it reaches them,
only when one of its five variables is an interval (with all five exact it
is checked once).  Every narrowing is a monotone contraction, so by the
chaotic-iteration theorem the fixpoint does not depend on the order the
slots run in, and an empty interval is reached in every order or in none;
only the text of a ``ChaseError`` follows the order (one test pins such a
text): it names the first interval to come out empty, in the start or then
in the FIFO.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import partial

from .rootsys import _integer


class ChaseError(Exception):
    """Raised when the constraints become infeasible (a modeling bug or an
    inconsistent seed, never a legitimate run)."""


class Iv(namedtuple("Iv", "lo hi")):
    """Closed integer interval [lo, hi].  The one place outside the solver
    that knows how an interval is stored."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def meet(self, other: "Iv") -> "Iv":
        nlo, nhi = max(self.lo, other.lo), min(self.hi, other.hi)
        if nlo > nhi:
            raise ChaseError(f"empty interval: {self} meet {other}")
        return Iv(nlo, nhi)

    def __add__(self, other: "Iv") -> "Iv":
        return Iv(self.lo + other.lo, self.hi + other.hi)

    def __rmul__(self, k: int) -> "Iv":
        """k copies summed, for a multiplicity k >= 0."""
        return Iv(k * self.lo, k * self.hi)

    def __mul__(self, other):
        # only ``k * iv`` is defined; the tuple base would repeat ``iv * k``
        raise TypeError(f"unsupported operand: {self!r} * {other!r}")

    def __contains__(self, x: int) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self) -> str:
        return str(self.lo) if self.exact else f"[{self.lo},{self.hi}]"


_new_iv = partial(tuple.__new__, Iv)  # a checked (lo, hi) pair as an Iv, no frame


def exact(n: int) -> Iv:
    return Iv(n, n)


# Why the start bound [0, S + 1] never binds: the forward pass bounds
# h^q(B_i) by the entries T_j[q + i - j], j <= i, one per term, and each rank
# by such a bound, so by at most S; ses_middle's middle term starts above
# A[q] + C[q], so the start narrows nothing through it.  Each comparison with
# a start bound comes out as with no bound, and the fixpoint is the same.


def _vec(top: int, free: int):
    """An unknown vector: [0, free] in degrees 0..top, 0 in both pads."""
    return [0] * (top + 3), [0] + [free] * (top + 1) + [0]


def _narrow(lo, hi, s: int, nlo: int, nhi: int) -> bool:
    """Meet slot ``s`` with [nlo, nhi]; True when it narrowed."""
    changed = False
    if nlo > lo[s]:
        lo[s] = nlo
        changed = True
    if nhi < hi[s]:
        hi[s] = nhi
        changed = True
    if changed and lo[s] > hi[s]:
        raise ChaseError(f"empty interval [{lo[s]},{hi[s]}] in degree {s - 1}")
    return changed


def _entry(v, q: int):
    """The int ends of entry ``v`` in degree ``q``, the lower one >= 0."""
    lo, hi = v if isinstance(v, Iv) else (v, v)
    lo = max(lo if type(lo) is int else _integer(lo, "chase entry"), 0)
    hi = hi if type(hi) is int else _integer(hi, "chase entry")
    if lo > hi:
        raise ChaseError(f"empty interval [{lo},{hi}] in degree {q}")
    return lo, hi


def _vectors(terms, top: int):
    """The interval vectors of ``terms`` (each top + 1 entries, an Iv or an
    int per degree, each lower end at least 0) and the start bound S + 1 of
    the chase that reads them."""
    vecs, total = [], 1
    for t in terms:
        if len(t) != top + 1:
            raise ChaseError(f"term has {len(t)} degrees, expected {top + 1}")
        if set(map(type, t)) == {int} and min(t) >= 0:
            lo, hi = t, t
        else:
            ends = list(map(_entry, t, range(top + 1)))
            lo, hi = [a for a, _ in ends], [b for _, b in ends]
        vecs.append(([0, *lo, 0], [0, *hi, 0]))
        total += sum(hi)
    return vecs, total


def _ivs(lo, hi) -> list[Iv]:
    return list(map(_new_iv, zip(lo[1:-1], hi[1:-1])))


def solve_exact_complex(terms, target_seed, top: int):
    """Narrow the cohomology of the target of an exact complex.

    ``terms``: the terms T_0 .. T_m, left to right, T_m mapping onto the
    target; each a list of top + 1 entries, an Iv or an int per degree.
    ``target_seed``: dict q -> Iv (or int) of already-established target
    entries; missing degrees start unknown.  Every value takes the entry
    gate, and one outside degrees 0..top must admit 0.
    ``top``: highest cohomological degree carried (sheaf dimension bound).

    Returns the narrowed target as a list of Iv, indices 0..top.
    """
    top = _integer(top, "top degree")
    seed = target_seed or {}
    if set(map(type, seed)) - {int}:
        seed = {_integer(q, "seed degree"): v for q, v in seed.items()}
    seed = {q: _entry(v, q) for q, v in seed.items()}
    if any(seed[q][0] for q in seed if not 0 <= q <= top):
        raise ChaseError("seed outside degree window")
    T, free = _vectors(terms, top)
    ends = [seed.get(q, (0, free)) for q in range(top + 1)]
    target = [0, *(a for a, _ in ends), 0], [0, *(b for _, b in ends), 0]
    _chase(T, target, top, free)
    return _ivs(*target)


def _chase(T, target, top: int, free: int) -> int:
    """Narrow the vectors of 0 -> T_0 -> ... -> T_m -> target -> 0 in place
    to the fixpoint of the equations of its short exact sequences; every
    unknown starts at [0, free].  Returns the number of slot visits."""
    # 0 -> 0 -> T_0 -> target -> 0 pins the target to T_0, and with no term
    # to 0; each zero term gets its own lists, since the chase narrows in place
    T = [([0] * (top + 3), [0] * (top + 3)) for _ in range(2 - len(T))] + T
    m = len(T) - 1
    B = [T[0]] + [_vec(top, free) for _ in range(m - 1)] + [target]  # B_0 = T_0
    # R[i][q]: rank of H^q(B_i) -> H^{q+1}(B_{i-1}), i = 1..m; R[0] is scratch
    R = [_vec(top, free) for _ in range(m + 1)]
    # Slot (i, s) reads A[s], A[s+1] (in the rank cap), C[s], T_i[s], R_i[s-1]
    # and R_i[s], where A = B_{i-1} and C = B_i.  What its own sum equation
    # narrows pushes only the other readers: one pass over one linear equation
    # is its own fixpoint.  One queued flag per slot; block 0 (B_0 = T_0 has no
    # equations), block m + 1 and both pads count as queued forever, so a push
    # there is dropped.  The visit limit is a guard.
    closed = [1] * (top + 3)
    queued = [closed] + [[1] + [0] * (top + 1) + [1] for _ in range(m)] + [closed]
    work = deque()

    def push(i, s):
        if not queued[i][s]:
            queued[i][s] = 1
            work.append((i, s))

    # The sparse start.  Forward, block by block: the telescoped upper bounds
    # h^q(B_i) <= h^{q+1}(B_{i-1}) + h^q(T_i) and the rank caps.
    for i in range(1, m + 1):
        ahi, (clo, chi), thi, rhi = B[i - 1][1], B[i], T[i][1], R[i][1]
        for s in range(1, top + 2):
            a, b = ahi[s + 1], ahi[s + 1] + thi[s]
            if b < chi[s]:  # only the target can come out empty
                chi[s] = b
                if clo[s] > b:
                    raise ChaseError(
                        f"empty interval [{clo[s]},{b}] in degree {s - 1}")
            rhi[s] = a if a < chi[s] else chi[s]
    # Backward, i and s descending: A[s] <= T_i[s] + R_i[s-1] + R_i[s] - C[s].lo,
    # then the rank caps R_i[s-1], R_{i-1}[s] on A[s].  No later step moves a
    # variable of slot (i, s): with all five exact (a rank only at 0) it can
    # narrow nothing and its sum is checked once; else it joins the FIFO, in
    # the order this pass reaches it.
    for i in range(m, 0, -1):
        (alo, ahi), (clo, chi), (tlo, thi) = B[i - 1], B[i], T[i]
        rhi, below, qi = R[i][1], R[i - 1][1], queued[i]
        for s in range(top + 1, 0, -1):
            b = thi[s] + rhi[s - 1] + rhi[s] - clo[s]
            if b < ahi[s]:
                if alo[s] > b:
                    raise ChaseError(
                        f"empty interval [{alo[s]},{b}] in degree {s - 1}")
                ahi[s] = b
                rhi[s - 1], below[s] = min(rhi[s - 1], b), min(below[s], b)
            if (alo[s] != ahi[s] or clo[s] != chi[s] or tlo[s] != thi[s]
                    or rhi[s - 1] or rhi[s]):
                work.append((i, s))
                qi[s] = 1
            elif tlo[s] != alo[s] + clo[s]:
                raise ChaseError(f"inexact sequence {i} in degree {s - 1}")
    visits, limit = 0, 10000 * (m + 1) * (top + 1)
    while work:
        i, s = work.popleft()
        queued[i][s] = 0
        visits += 1
        if visits > limit:
            raise ChaseError("chase failed to reach a fixpoint")
        alo, ahi = B[i - 1]
        clo, chi = B[i]
        tlo, thi = T[i]
        rlo, rhi = R[i]
        # h^q(T) = A[q] - r[q-1] + C[q] - r[q]
        nlo = alo[s] + clo[s] - rhi[s - 1] - rhi[s]
        nhi = ahi[s] + chi[s] - rlo[s - 1] - rlo[s]
        if nlo > tlo[s] or nhi < thi[s]:  # T_i[s] has no other reader
            _narrow(tlo, thi, s, nlo, nhi)
        # A[q], C[q] = h^q(T) + r[q-1] + r[q] - the other end
        u_lo = tlo[s] + rlo[s - 1] + rlo[s]
        u_hi = thi[s] + rhi[s - 1] + rhi[s]
        nlo, nhi = u_lo - ahi[s], u_hi - alo[s]
        if (nlo > clo[s] or nhi < chi[s]) and _narrow(clo, chi, s, nlo, nhi):
            push(i + 1, s)
            push(i + 1, s - 1)
        nlo, nhi = u_lo - chi[s], u_hi - clo[s]
        if (nlo > alo[s] or nhi < ahi[s]) and _narrow(alo, ahi, s, nlo, nhi):
            push(i - 1, s)
            push(i, s - 1)
        # r[q], r[q-1] = A[q] + C[q] - h^q(T) - the other rank
        d_lo = alo[s] + clo[s] - thi[s]
        d_hi = ahi[s] + chi[s] - tlo[s]
        nlo, nhi = d_lo - rhi[s - 1], d_hi - rlo[s - 1]
        r_ch = (nlo > rlo[s] or nhi < rhi[s]) and _narrow(rlo, rhi, s, nlo, nhi)
        nlo, nhi = d_lo - rhi[s], d_hi - rlo[s]
        if s > 1 and (nlo > rlo[s - 1] or nhi < rhi[s - 1]) and _narrow(
                rlo, rhi, s - 1, nlo, nhi):
            push(i, s - 1)
        # a rank is bounded by both ends of its map
        nhi = chi[s] if chi[s] < ahi[s + 1] else ahi[s + 1]
        if nhi < rhi[s] and _narrow(rlo, rhi, s, 0, nhi) or r_ch:
            push(i, s)
            push(i, s + 1)
    return visits


def ses_middle(left, right, top: int):
    """Interval cohomology of B in 0 -> A -> B -> C -> 0 given the terms
    ``left`` = A and ``right`` = C: the chase of A -> B onto C with B
    unknown, read back at B."""
    top = _integer(top, "top degree")
    (A, C), free = _vectors([left, right], top)
    B = _vec(top, free)
    _chase([A, B], C, top, free)
    return _ivs(*B)
