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
int; every finite end and seed degree must be an integer (``ValueError``
otherwise), and one that is a plain int skips the call that checks it.
Inside the solver an interval vector over degrees 0..top is a pair of int
lists ``(lo, hi)`` of length top + 3: slot q + 1 holds degree q, and the two
end slots are the exact zeros at degrees -1 and top + 1.  Each chase picks
its one unbounded marker ``inf`` from its inputs.  B_0 and T_0 share one
vector, and a complex of fewer than two terms gets zero terms prepended.
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

from .catalog import _integer


class ChaseError(Exception):
    """Raised when the constraints become infeasible (a modeling bug or an
    inconsistent seed, never a legitimate run)."""


class Iv(namedtuple("Iv", "lo hi")):
    """Closed integer interval [lo, hi]; hi may be None for unbounded.  The
    one place outside the solver that knows how an interval is stored."""

    __slots__ = ()

    @property
    def exact(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def meet(self, other: "Iv") -> "Iv":
        nlo = max(self.lo, other.lo)
        if self.hi is None:
            nhi = other.hi
        elif other.hi is None:
            nhi = self.hi
        else:
            nhi = min(self.hi, other.hi)
        if nhi is not None and nlo > nhi:
            raise ChaseError(f"empty interval: {self} meet {other}")
        return Iv(nlo, nhi)

    def __add__(self, other: "Iv") -> "Iv":
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Iv(self.lo + other.lo, hi)

    def __rmul__(self, k: int) -> "Iv":
        """k copies summed, for a multiplicity k >= 0."""
        if k == 0:
            return Iv(0, 0)
        return Iv(k * self.lo, None if self.hi is None else k * self.hi)

    def __mul__(self, other):
        # only ``k * iv`` is defined; the tuple base would repeat ``iv * k``
        raise TypeError(f"unsupported operand: {self!r} * {other!r}")

    def __contains__(self, x: int) -> bool:
        return self.lo <= x and (self.hi is None or x <= self.hi)

    def __repr__(self) -> str:
        if self.exact:
            return str(self.lo)
        return f"[{self.lo},{'inf' if self.hi is None else self.hi}]"


_new_iv = partial(tuple.__new__, Iv)  # a checked (lo, hi) pair as an Iv, no frame


def exact(n: int) -> Iv:
    return Iv(n, n)


def unknown() -> Iv:
    return Iv(0, None)


# The marker.  An upper bound equal to ``inf`` means "no bound".  Each chase
# picks its own: with M the largest finite end among its inputs, m + 1 terms
# and V = 3 * (m + 2) * (top + 1), more than the number of variables that can
# start unbounded, ``inf`` is 4 * cap for the power of two
# cap > 4^V * (m + 2) * M.  A bound is stored only when it is below cap:
# ``_narrow`` drops any other narrowing, which leaves the interval wider and
# so keeps the chase sound.  Every stored lower bound and finite upper bound
# is then below cap.  An upper bound computed from an ``inf`` operand adds
# upper bounds (>= 0) to ``inf`` and subtracts at most two lower bounds, so it
# is above inf - 2 * cap = 2 * cap and is dropped; a lower bound computed
# from one adds at most three lower bounds and subtracts ``inf``, so it is
# below 3 * cap - inf < 0, the standing lower bound.  No finite upper bound
# is ever dropped: a variable's first one is at most the sum of three stored
# ones, later ones only lower it, so after the at most V first ones every
# upper bound is at most 3^V * M; a lower bound stays below a finite upper
# bound.  With finite terms, as in every caller in bwb, the sparse start
# already bounds each h^q(B_i) by (i + 1) * M and each rank by a B, so every
# bound is at most (m + 1) * M from then on.


def _vec(top: int, inf: int):
    """An unknown vector: [0, inf] in degrees 0..top, 0 in both pads."""
    return [0] * (top + 3), [0] + [inf] * (top + 1) + [0]


def _narrow(lo, hi, s: int, nlo: int, nhi: int, cap: int) -> bool:
    """Meet slot ``s`` with [nlo, nhi], each end only when below ``cap``;
    True when it narrowed."""
    changed = False
    if nlo > lo[s] and nlo < cap:
        lo[s] = nlo
        changed = True
    if nhi < hi[s] and nhi < cap:
        hi[s] = nhi
        changed = True
    if changed and lo[s] > hi[s]:
        raise ChaseError(f"empty interval [{lo[s]},{hi[s]}] in degree {s - 1}")
    return changed


def _vectors(terms, top: int):
    """The interval vectors of ``terms`` (each top + 1 entries, an Iv or an
    int per degree, met with [0, inf]) and the marker ``inf`` of the chase
    that reads them, from the maximum M of every finite end (an unbounded
    one counts with its lower end)."""
    big, vecs = 1, []
    for t in terms:
        if len(t) != top + 1:
            raise ChaseError(f"term has {len(t)} degrees, expected {top + 1}")
        if set(map(type, t)) == {int} and min(t) >= 0:
            vecs.append(([0, *t, 0], [0, *t, 0]))
            big = max(big, *t)
            continue
        lo, hi = [0], [0]
        for q, v in enumerate(t):
            nlo, nhi = v if isinstance(v, Iv) else (v, v)
            nlo = max(nlo if type(nlo) is int else _integer(nlo, "chase entry"), 0)
            if nhi is not None:
                nhi = nhi if type(nhi) is int else _integer(nhi, "chase entry")
                if nlo > nhi:
                    raise ChaseError(f"empty interval [{nlo},{nhi}] in degree {q}")
            big = max(big, nlo if nhi is None else nhi)
            lo.append(nlo)
            hi.append(nhi)
        vecs.append((lo + [0], hi + [0]))
    inf = 4 << (len(terms) * big).bit_length() + 6 * len(terms) * (top + 1)
    for _, hi in vecs:
        if None in hi:
            hi[:] = [inf if h is None else h for h in hi]
    return vecs, inf


def _ivs(lo, hi, inf: int) -> list[Iv]:
    return list(map(_new_iv, zip(lo[1:-1], [None if h == inf else h for h in hi[1:-1]])))


def solve_exact_complex(terms, target_seed, top: int):
    """Narrow the cohomology of the target of an exact complex.

    ``terms``: the terms T_0 .. T_m, left to right, T_m mapping onto the
    target; each a list of top + 1 entries, an Iv or an int per degree.
    ``target_seed``: dict q -> Iv (or int) of already-established target
    entries; missing degrees start unknown.
    ``top``: highest cohomological degree carried (sheaf dimension bound).

    Returns the narrowed target as a list of Iv, indices 0..top.
    """
    seed, free = target_seed or {}, unknown()
    if set(map(type, seed)) - {int}:
        seed = {_integer(q, "seed degree"): v for q, v in seed.items()}
    if any((v.lo if isinstance(v, Iv) else v) > 0
           for q, v in seed.items() if not 0 <= q <= top):
        raise ChaseError("seed outside degree window")
    T, inf = _vectors([*terms, [seed.get(q, free) for q in range(top + 1)]], top)
    target = T.pop()
    _chase(T, target, top, inf)
    return _ivs(*target, inf)


def _chase(T, target, top: int, inf: int) -> int:
    """Narrow the vectors of 0 -> T_0 -> ... -> T_m -> target -> 0 in place
    to the fixpoint of the equations of its short exact sequences; ``inf``
    is their unbounded marker.  Returns the number of slot visits."""
    # 0 -> 0 -> T_0 -> target -> 0 pins the target to T_0, and with no term
    # to 0; each zero term gets its own lists, since the chase narrows in place
    T = [([0] * (top + 3), [0] * (top + 3)) for _ in range(2 - len(T))] + T
    m = len(T) - 1
    B = [T[0]] + [_vec(top, inf) for _ in range(m - 1)] + [target]  # B_0 = T_0
    # R[i][q]: rank of H^q(B_i) -> H^{q+1}(B_{i-1}), i = 1..m; R[0] is scratch
    R = [_vec(top, inf) for _ in range(m + 1)]
    cap = inf >> 2
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
            if b < ahi[s] and b < cap:
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
            _narrow(tlo, thi, s, nlo, nhi, cap)
        # A[q], C[q] = h^q(T) + r[q-1] + r[q] - the other end
        u_lo = tlo[s] + rlo[s - 1] + rlo[s]
        u_hi = thi[s] + rhi[s - 1] + rhi[s]
        nlo, nhi = u_lo - ahi[s], u_hi - alo[s]
        if (nlo > clo[s] or nhi < chi[s]) and _narrow(clo, chi, s, nlo, nhi, cap):
            push(i + 1, s)
            push(i + 1, s - 1)
        nlo, nhi = u_lo - chi[s], u_hi - clo[s]
        if (nlo > alo[s] or nhi < ahi[s]) and _narrow(alo, ahi, s, nlo, nhi, cap):
            push(i - 1, s)
            push(i, s - 1)
        # r[q], r[q-1] = A[q] + C[q] - h^q(T) - the other rank
        d_lo = alo[s] + clo[s] - thi[s]
        d_hi = ahi[s] + chi[s] - tlo[s]
        nlo, nhi = d_lo - rhi[s - 1], d_hi - rlo[s - 1]
        r_ch = (nlo > rlo[s] or nhi < rhi[s]) and _narrow(rlo, rhi, s, nlo, nhi, cap)
        nlo, nhi = d_lo - rhi[s], d_hi - rlo[s]
        if s > 1 and (nlo > rlo[s - 1] or nhi < rhi[s - 1]) and _narrow(
                rlo, rhi, s - 1, nlo, nhi, cap):
            push(i, s - 1)
        # a rank is bounded by both ends of its map
        nhi = chi[s] if chi[s] < ahi[s + 1] else ahi[s + 1]
        if nhi < rhi[s] and _narrow(rlo, rhi, s, 0, nhi, cap) or r_ch:
            push(i, s)
            push(i, s + 1)
    return visits


def ses_middle(left, right, top: int):
    """Interval cohomology of B in 0 -> A -> B -> C -> 0 given the terms
    ``left`` = A and ``right`` = C: the chase of A -> B onto C with B
    unknown, read back at B."""
    (A, B, C), inf = _vectors([left, [unknown()] * (top + 1), right], top)
    _chase([A, B], C, top, inf)
    return _ivs(*B, inf)
