"""Hodge numbers and deformation counts of complete intersections in
homogeneous spaces, and of cyclic double covers.

Everything here reduces to ambient Borel-Weil-Bott facts chased through two
exact complexes.  For X the zero locus of a general section of
E = O(d_1) + ... + O(d_s) on a cominuscule space Sigma:

* restriction: the Koszul resolution

      0 -> wedge^s E* -> ... -> E* -> O_Sigma -> O_X -> 0

  twisted by Omega^a_Sigma(-v) computes H^*(X, Omega^a_Sigma(-v)|X);

* cotangent reduction: the conormal sequence
  0 -> E*|X -> Omega_Sigma|X -> Omega_X -> 0 induces, for each p, the exact
  complex

      0 -> Sym^p E*|X -> Sym^{p-1} E* (x) Omega^1_Sigma|X -> ...
        -> Omega^p_Sigma|X -> Omega^p_X -> 0,

  whose terms are handled by the restriction step (the multiplicity spaces
  Sym^k of the cut degrees enter as plain integer multiplicities).

Both complexes are resolved by the interval solver in :mod:`bwb.chase` (a
Koszul complex that degenerates at E1 for degree reasons is summed instead),
which never guesses a connecting map: whatever exactness, Serre duality and
Hodge symmetry do not pin down stays an integer range flagged indeterminate.
A full Hodge table iterates the per-p chases with two cross-entry rules --
h^{p,q} = h^{q,p} and h^{p,q} = h^{n-p,n-q} -- until nothing narrows.

Double covers branched over a divisor B in |O(2d)| are handled through the
residue sequence

      0 -> Omega^p_S(-d) -> Omega^p_S(log B)(-d) -> Omega^{p-1}_B(-d) -> 0

together with h^{p,q}(Y) = h^{p,q}(S) + h^q(S, Omega^p_S(log B)(-d)).

Deformation counts come in independent flavours (Grassmannian quotient,
section counts, the Jacobian-style complete-intersection formula) that the
verification layer cross-checks against the Hodge-theoretic route.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from contextlib import suppress
from functools import lru_cache, reduce
from math import comb

from .bott import euler_char, forms_cohomology
from .catalog import HomogSpace, projective_space
from .chase import Iv, exact, ses_middle, solve_exact_complex
from .rootsys import _integer

# Spaces whose minimal linear sections of dimension 2*coindex - 1 carry a
# one-dimensional extreme middle Hodge piece, and whose projective duals are
# hypersurfaces of degree coindex - 1.
SPECIAL_SERIES = ("OP2", "S12", "G(2,10)", "S14")

# A hyperplane section of LG(3,6) is quasi-homogeneous: its automorphism
# group is an 8-dimensional PSL3 acting with a dense orbit.
THETA_AUT_DIM = 8


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# Section specifications


class SectionSpec(namedtuple("SectionSpec", "ambient cut_degrees branch_degree",
                             defaults=((), None))):
    """X = a complete intersection of hypersurfaces in a marked homogeneous
    space ``ambient``, optionally the base of a branched double cover.

    ``cut_degrees`` holds one per-factor degree vector per hypersurface, in
    units of the primitive ample class of each factor; ``branch_degree`` is
    the (componentwise even) degree vector of a branch divisor for a double
    cover of the complete intersection, or None.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.ambient.dim - len(self.cut_degrees)

    @property
    def residual_index(self) -> tuple[int, ...]:
        """Per-factor index of X (of the double cover when branched)."""
        out = list(self.ambient.index_vector)
        for vec in self.cut_degrees:
            for i, c in enumerate(vec):
                out[i] -= c
        if self.branch_degree is not None:
            for i, c in enumerate(self.branch_degree):
                out[i] -= c // 2
        return tuple(out)

    def describe(self) -> str:
        parts = [self.ambient.name]
        for vec in self.cut_degrees:
            parts.append(f"cut {vec}")
        if self.branch_degree is not None:
            parts.append(f"double cover branched in {self.branch_degree}")
        return ", ".join(parts)


def section_spec(space: HomogSpace, cuts=(), branch=None) -> SectionSpec:
    """Validated constructor.  Integer degrees mean multiples of the
    primitive ample class; vectors give per-factor degrees directly."""

    def norm(c):
        vec = space.degree_vector(c)
        if any(x < 1 for x in vec):
            raise ValueError(f"degree vector {vec} must be componentwise >= 1")
        return vec

    cut_vecs = tuple(norm(c) for c in cuts)
    if len(cut_vecs) > space.dim:
        raise ValueError("more cuts than the ambient dimension")
    bvec = None
    if branch is not None:
        bvec = norm(branch)
        if any(x % 2 for x in bvec):
            raise ValueError(f"branch degree {bvec} must be componentwise even")
    return SectionSpec(space, cut_vecs, bvec)


def linear_section(space: HomogSpace, s: int) -> SectionSpec:
    """Codimension-s intersection of hyperplanes in the minimal embedding."""
    s = _integer(s, "hyperplane count")
    if s < 0:
        raise ValueError(f"cannot cut by {s} hyperplanes")
    return section_spec(space, cuts=(1,) * s)


# ---------------------------------------------------------------------------
# The two chases


@lru_cache(maxsize=None)
def _groups(cuts, nf: int, k: int, sym: bool):
    """Twist vectors of Sym^k (``sym``) or wedge^k of
    O(-d_1) + ... + O(-d_s), with multiplicity.

    Equal cut vectors are grouped: a piece of degree t in the n cuts equal
    to v can be chosen in C(n + t - 1, t) ways for Sym (stars and bars) and
    C(n, t) ways for wedge, so only the splittings k = sum t_v are walked.
    """
    states = {(0, (0,) * nf): 1}  # (degree used, twist vector) -> count
    for v, n in Counter(cuts).items():
        nxt: dict[tuple, int] = {}
        for (used, w), m in states.items():
            for t in range(k - used + 1):
                c = comb(n + t - 1, t) if sym else comb(n, t)
                if c:
                    key = (used + t, tuple(a + t * b for a, b in zip(w, v)))
                    nxt[key] = nxt.get(key, 0) + m * c
        states = nxt
    return tuple(sorted((w, m) for (used, w), m in states.items() if used == k))


def _e1_sums(terms, top: int):
    """h^k(F), k = 0..top, for 0 -> T_0 -> ... -> T_m -> F -> 0 exact: the sum of
    the entries T_i[q] of total degree q + i - m = k, when no nonzero entry sits
    at k - 1 in an earlier term (``below``), so the spectral sequence degenerates
    at E1; None otherwise, or when a nonzero entry falls outside 0..top."""
    m, sums, below = len(terms) - 1, [0] * (top + 1), set()
    for i, t in enumerate(terms):
        ks = [(q + i - m, d) for q, d in enumerate(t) if d]
        for k, d in ks:
            if not 0 <= k <= top or k - 1 in below:
                return None
            sums[k] += d
        below.update(k for k, _ in ks)
    return tuple(map(exact, sums))


@lru_cache(maxsize=None, typed=True)
def restricted_forms(space: HomogSpace, cuts, a: int, down) -> tuple[Iv, ...]:
    """h^q(X, Omega^a_Sigma(-down)|X) for q = 0..dim X, as intervals.

    Closes the Koszul resolution of O_X twisted by Omega^a_Sigma(-down) by
    ``_e1_sums`` or else chases it; support on X caps the degrees at dim X,
    which the solver exploits.  The typed cache sends a = 1.0 to the gate;
    ``down`` and each cut pass ``space.degree_vector`` on a miss.
    """
    a = _integer(a, "form degree")
    down, cuts = space.degree_vector(down), tuple(map(space.degree_vector, cuts))
    n_amb = space.dim
    n_x = n_amb - len(cuts)
    if a < 0 or a > n_amb:
        return (exact(0),) * (n_x + 1)
    terms = []
    for j in range(len(cuts), -1, -1):
        total = [0] * (n_amb + 1)
        for vec, mult in _groups(cuts, len(space.factors), j, False):
            for q, d in forms_cohomology(space, a, _vadd(down, vec)).items():
                total[q] += mult * d
        terms.append(total)
    seed = {q: 0 for q in range(n_x + 1, n_amb + 1)}
    return _e1_sums(terms, n_x) or tuple(solve_exact_complex(terms, seed, n_amb)[: n_x + 1])


@lru_cache(maxsize=None)
def _cotangent_terms(space, cuts, p: int, down):
    """Terms Sym^k E* (x) Omega^{p-k}_Sigma(-down)|X, ordered k = p..0."""
    n_x = space.dim - len(cuts)
    nf = len(space.factors)
    out = []
    for k in range(p, -1, -1):
        acc = (exact(0),) * (n_x + 1)
        for vec, mult in _groups(cuts, nf, k, True):
            rv = restricted_forms(space, cuts, p - k, _vadd(down, vec))
            acc = tuple(a + mult * r for a, r in zip(acc, rv))
        out.append(acc)
    return tuple(out)


def chase_section_forms(space, cuts, p: int, down, seed=None) -> tuple[Iv, ...]:
    """One pass of the cotangent chase: h^q(X, Omega^p_X(-down)) intervals.

    ``seed`` may carry already-established target entries (from symmetry or
    earlier rounds); no duality is applied here -- callers combine passes.
    ``down`` and each cut pass ``space.degree_vector``, as in section_forms.
    """
    p = _integer(p, "form degree")
    down, cuts = space.degree_vector(down), tuple(map(space.degree_vector, cuts))
    n_x = space.dim - len(cuts)
    if p < 0 or p > n_x:
        return (exact(0),) * (n_x + 1)
    terms = _cotangent_terms(space, cuts, p, down)
    return tuple(solve_exact_complex(terms, seed or {}, n_x))


def section_forms(spec: SectionSpec, p: int, down=0) -> tuple[Iv, ...]:
    """h^q(X, Omega^p_X(-down)), intervals, with the Serre-dual chase folded
    in: the same engine run on (n-p, +down) bounds degree n-q."""
    p = _integer(p, "form degree")
    space, cuts = spec.ambient, spec.cut_degrees
    down = space.degree_vector(down)
    n_x = spec.dim
    direct = chase_section_forms(space, cuts, p, down)
    mirror = chase_section_forms(space, cuts, n_x - p, _vneg(down))
    return tuple(d.meet(m) for d, m in zip(direct, reversed(mirror)))


# ---------------------------------------------------------------------------
# Full Hodge tables


def _symmetrize(table, n: int) -> bool:
    """Meet each orbit {(p,q), (q,p), (n-p,n-q), (n-q,n-p)} of Hodge symmetry
    and Serre duality once, at p <= q <= n - p, and write the meet to each of
    its cells, in place: one call closes the table.  True when some entry
    narrowed; ``ChaseError`` when a meet is empty."""
    changed = False
    for p in range(n // 2 + 1):
        for q in range(p, n - p + 1):
            cells = ((p, q), (q, p), (n - p, n - q), (n - q, n - p))
            new = reduce(Iv.meet, (table[i][j] for i, j in cells))
            for i, j in cells:
                if table[i][j] != new:
                    table[i][j], changed = new, True
    return changed


@lru_cache(maxsize=None)
def hodge_table(spec: SectionSpec) -> tuple[tuple[Iv, ...], ...]:
    """H[p][q] = h^{p,q}(X) as intervals, narrowed to a fixpoint.

    Each round re-runs the per-p chase of every row that narrowed since its
    last chase, seeded with the current row, then meets the Hodge-symmetry
    transpose and the Serre reflection.  The chase starts its target from
    the seed and only narrows it, so its result replaces the row with no
    meet.  All three steps only narrow integer intervals that keep the true
    value, so the loop ends, at the first round that changes nothing.  A
    chase seeded with its own last result returns it again, so skipping
    unchanged rows changes nothing.
    """
    if spec.branch_degree is not None:
        raise ValueError("branched specs are handled by double_cover_hodge")
    space, cuts = spec.ambient, spec.cut_degrees
    n_x = spec.dim
    zero = (0,) * len(space.factors)
    table = [[] for _ in range(n_x + 1)]  # the first round chases with seed {}
    chased = [None] * (n_x + 1)  # row p right after its last chase

    changed = True
    while changed:
        changed = False
        for p in range(n_x + 1):
            row = tuple(table[p])
            if row == chased[p]:
                continue
            res = chase_section_forms(space, cuts, p, zero, dict(enumerate(row)))
            table[p], chased[p] = list(res), res
            changed |= res != row
        changed |= _symmetrize(table, n_x)
    return tuple(tuple(row) for row in table)


SMOOTHNESS_NOTE = "cuts assumed generically smooth (not verified)"


class HodgeRow(namedtuple("HodgeRow", "spec table")):
    """Middle-degree Hodge numbers of an n-dimensional X, plus the full
    ``table`` they were cut from.  Entries are intervals: exact when
    resolved, honest ranges flagged indeterminate otherwise."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.spec.dim

    @property
    def middle(self) -> tuple[Iv, ...]:
        """h^{p, n-p} for p = 0..n."""
        return tuple(self.table[p][self.n - p] for p in range(self.n + 1))

    def entry(self, p: int, q: int) -> Iv:
        if 0 <= p <= self.n and 0 <= q <= self.n:
            return self.table[p][q]
        return exact(0)

    def as_json(self) -> dict:
        def enc(v: Iv):
            return v.lo if v.exact else {"lo": v.lo, "hi": v.hi, "indeterminate": True}

        return {
            "space": self.spec.ambient.name,
            "cuts": [list(c) for c in self.spec.cut_degrees],
            "branch": list(self.spec.branch_degree) if self.spec.branch_degree else None,
            "dim": self.n,
            "middle": [enc(v) for v in self.middle],
            "table": [[enc(v) for v in row] for row in self.table],
            "provenance": _provenance(self.spec),
            "assumptions": [SMOOTHNESS_NOTE],
        }


def _fact_string(space, a, down, dims) -> str:
    tw = "" if not any(down) else f"({','.join(str(-v) for v in down)})"
    body = " ".join(f"h^{q}={d}" for q, d in sorted(dims.items())) or "0"
    return f"H*({space.name}, Omega^{a}{tw}) = {body}"


def _ambient_terms(spec: SectionSpec, p: int, down):
    """Yield (signed multiplicity, a, twist) for every ambient
    Omega^a(-twist) that feeds Omega^p_X(-down): Sym^k of the conormal
    bundle (a = p - k) against the j-th Koszul term, with sign (-1)^(k+j)."""
    cuts, nf = spec.cut_degrees, len(spec.ambient.factors)
    for k in range(p + 1):
        for v1, m1 in _groups(cuts, nf, k, True):
            for j in range(len(cuts) + 1):
                for v2, m2 in _groups(cuts, nf, j, False):
                    yield (-1) ** (k + j) * m1 * m2, p - k, _vadd(down, _vadd(v1, v2))


def _consumed_facts(spec: SectionSpec, pmax: int, downs) -> list[str]:
    """Every ambient Bott fact the chases for p <= pmax at the twists
    ``downs`` consume."""
    space = spec.ambient
    pairs = {(a, v) for p in range(pmax + 1) for d0 in downs
             for _, a, v in _ambient_terms(spec, p, d0)}
    return [_fact_string(space, a, v, forms_cohomology(space, a, v))
            for a, v in sorted(pairs)]


def _cover_split(spec: SectionSpec) -> tuple[tuple[int, ...], SectionSpec, SectionSpec]:
    """A double cover's half branch degree, its base section X and its
    branch divisor in X."""
    half = tuple(c // 2 for c in spec.branch_degree)
    base = SectionSpec(spec.ambient, spec.cut_degrees)
    divisor = SectionSpec(spec.ambient, spec.cut_degrees + (spec.branch_degree,))
    return half, base, divisor


def _provenance(spec: SectionSpec) -> list[str]:
    """The ambient Bott facts behind a Hodge row: a section's at twist 0; a
    double cover's base at twists 0 and +-half, then its branch divisor at
    +-half."""
    zero = (0,) * len(spec.ambient.factors)
    if spec.branch_degree is None:
        return _consumed_facts(spec, spec.dim, (zero,))
    half, base, divisor = _cover_split(spec)
    return (_consumed_facts(base, spec.dim, (zero, half, _vneg(half)))
            + _consumed_facts(divisor, spec.dim - 1, (half, _vneg(half))))


def _check_ambient(spec: SectionSpec) -> None:
    """The gate of both Hodge tables: a cominuscule ambient, and a Fano or
    Calabi-Yau X (or double cover)."""
    if not spec.ambient.cominuscule:
        raise ValueError(f"{spec.ambient.name} is not cominuscule")
    if any(r < 0 for r in spec.residual_index):
        raise ValueError(f"{spec.describe()} is neither Fano nor Calabi-Yau")


def section_hodge(spec: SectionSpec) -> HodgeRow:
    """Middle Hodge numbers of a complete intersection in a cominuscule
    space (or of the space itself when there are no cuts)."""
    _check_ambient(spec)
    return HodgeRow(spec, hodge_table(spec))


def double_cover_hodge(spec: SectionSpec) -> HodgeRow:
    """Hodge numbers of the double cover Y of X branched in |O(branch)|.

    Needs h^{p,q}(X) and two twisted rows per p, all through the section
    engine, so the ambient must be cominuscule (``chi_section_forms`` still
    gives Euler characteristics on any ambient).
    """
    if spec.branch_degree is None:
        raise ValueError("double_cover_hodge needs a branch degree")
    _check_ambient(spec)
    n_y = spec.dim
    half, base, divisor = _cover_split(spec)
    base_table = hodge_table(base)
    table = []
    for p in range(n_y + 1):
        res = section_forms(base, p, half)
        if p > 0:
            div = section_forms(divisor, p - 1, half)
            res = ses_middle(res, div + (exact(0),), n_y)
        table.append([b + r for b, r in zip(base_table[p], res)])
    _symmetrize(table, n_y)
    return HodgeRow(spec, tuple(tuple(row) for row in table))


def chi_section_forms(spec: SectionSpec, p: int, down=0) -> int:
    """Euler characteristic chi(X, Omega^p_X(-down)) by alternating sums of
    ambient characteristics over both complexes.  Works on any marked
    ambient, cominuscule or not; used as an independent oracle."""
    space = spec.ambient
    p = _integer(p, "form degree")
    down = space.degree_vector(down)
    if p < 0 or p > spec.dim:
        return 0
    return sum(m * euler_char(space, a, v) for m, a, v in _ambient_terms(spec, p, down))


# ---------------------------------------------------------------------------
# Deformation counts


AUT_INJECTIVITY_NOTE = (
    "assumes the ambient automorphisms inject into the section count "
    "(finite generic stabilizer)"
)


class ModuliReport(namedtuple("ModuliReport", "value route inputs")):
    """One deformation count with its route and consumed dimensions, as
    ``(name, dim)`` pairs."""

    __slots__ = ()

    def as_json(self) -> dict:
        return {
            "value": self.value,
            "route": self.route,
            "inputs": {k: v for k, v in self.inputs},
            "assumptions": [AUT_INJECTIVITY_NOTE],
        }


def section_line_h0(spec: SectionSpec, vec) -> int:
    """h^0(X, O(vec)) through the Koszul restriction (exact by chase)."""
    vec = spec.ambient.degree_vector(vec)
    iv = restricted_forms(spec.ambient, spec.cut_degrees, 0, _vneg(vec))[0]
    if not iv.exact:
        raise ValueError(f"h^0({spec.describe()}, O({vec})) did not resolve")
    return iv.lo


def _section_aut_dim(spec: SectionSpec) -> int | None:
    """Automorphism-group dimension of the double-cover base, when known."""
    if not spec.cut_degrees:
        return spec.ambient.delta
    if (spec.ambient.name == "LG(3,6)"
            and spec.cut_degrees == (spec.ambient.ample,)):
        return THETA_AUT_DIM
    return None


def _counted(what: str, rep: ModuliReport) -> ModuliReport:
    """``rep``, refused when it counts below 0 moduli of ``what``."""
    if rep.value < 0:
        raise ValueError(f"{what}: the {rep.route} route counts "
                         f"{rep.value} moduli; a count below 0 is refused")
    return rep


def deformation_moduli(spec: SectionSpec, route: str | None = None) -> ModuliReport:
    """Number of moduli of X (or of the double cover), via the requested
    route; defaults to the Grassmannian quotient for linear sections and to
    section counting otherwise.  A double cover has one route,
    ``double-cover-count``, and refuses any other.  A count below 0, where
    the route's assumptions fail, is refused."""
    return _counted(spec.describe(), _route_count(spec, route))


def _route_count(spec: SectionSpec, route: str | None) -> ModuliReport:
    space = spec.ambient
    delta = space.delta

    if spec.branch_degree is not None:
        if route in ("grassmannian", "cohomological"):
            raise ValueError(f"{route} route needs an unbranched section")
        if route not in (None, "double-cover-count"):
            raise ValueError(f"unknown route {route!r}")
        _, base, _ = _cover_split(spec)
        aut = _section_aut_dim(base)
        if aut is None:
            raise ValueError(
                f"automorphism dimension of {base.describe()} is not stored")
        h0 = section_line_h0(base, spec.branch_degree)
        return ModuliReport(
            value=h0 - 1 - aut,
            route="double-cover-count",
            inputs=(("h0(branch)", h0), ("aut", aut)),
        )

    cuts = spec.cut_degrees
    if not cuts:
        raise ValueError("the ambient space itself has no moduli to count")
    s = len(cuts)
    linear = all(c == space.ample for c in cuts)
    if route is None:
        route = "grassmannian" if linear else "cohomological"

    if route == "grassmannian":
        if not linear:
            raise ValueError("grassmannian route needs linear cuts")
        n1 = space.n_plus_one
        return ModuliReport(
            value=s * (n1 - s) - delta,
            route="grassmannian",
            inputs=(("s", s), ("N+1", n1), ("delta", delta)),
        )
    if route == "cohomological":
        if len({c for c in cuts}) != 1:
            raise ValueError("cohomological route needs cuts of equal degree")
        h0 = section_line_h0(SectionSpec(space, ()), cuts[0])
        return ModuliReport(
            value=s * h0 - s * s - delta,
            route="cohomological",
            inputs=(("s", s), ("h0(cut)", h0), ("delta", delta)),
        )
    raise ValueError(f"unknown route {route!r}")


def moduli_routes(spec: SectionSpec) -> tuple[ModuliReport, ...]:
    """Every moduli count of the spec, in the order ``--all-routes`` prints
    them: grassmannian, cohomological, closed-form where closed_form_hcc1
    answers, and hodge-middle, an exact h^{m+1,m} on an X of odd dimension
    2m + 1 whose extreme-piece clause passes; refused as deformation_moduli."""
    cuts, space = spec.cut_degrees, spec.ambient
    if spec.branch_degree is not None or not cuts:
        return (deformation_moduli(spec),)  # one count, or the no-cuts refusal
    linear = all(c == space.ample for c in cuts)
    out = [deformation_moduli(spec, "grassmannian")] if linear else []
    if len(set(cuts)) == 1:
        out.append(deformation_moduli(spec, "cohomological"))
    with suppress(ValueError):  # the closed form answers at s = r - c + 1 only
        if linear:
            out.append(ModuliReport(closed_form_hcc1(space, len(cuts)), "closed-form", ()))
    if spec.dim % 2:  # h^{m+1,m} is a middle cell only when dim X = 2m + 1
        with suppress(ValueError):  # section_hodge refuses the spec
            row, m = section_hodge(spec), spec.dim // 2
            iv, verdict = row.entry(m + 1, m), cy_type_verdict(row)
            if iv.exact and ("extreme-piece", "pass") in (c[:2] for c in verdict.clauses):
                out.append(ModuliReport(iv.lo, "hodge-middle", ()))
    return tuple(out)


def _comb0(n: int, k: int) -> int:
    return comb(n, k) if n >= 0 and k >= 0 else 0


def ci_moduli(ambient_proj_dim: int, degrees) -> ModuliReport:
    """Moduli of a complete intersection of the given degrees in P^N:
    section counts minus the endomorphisms of the defining bundle minus the
    projectivities.  A count below 0 is refused, as in deformation_moduli."""
    N = _integer(ambient_proj_dim, "ambient dimension")
    degrees = tuple([_integer(d, "degree") for d in degrees])
    if N < 1 or not degrees:
        raise ValueError(f"P{N} with degrees {degrees}: need N >= 1 and a degree")
    if any(d < 2 for d in degrees):
        raise ValueError("complete-intersection degrees must be >= 2")
    if sum(degrees) > N + 1:
        raise ValueError("not Fano or Calabi-Yau")
    sections = sum(comb(N + d, d) for d in degrees)
    endos = sum(_comb0(N + di - dj, N) for di in degrees for dj in degrees)
    pgl = (N + 1) ** 2 - 1
    return _counted(f"degrees {degrees} in P{N}", ModuliReport(
        value=sections - endos - pgl,
        route="hypersurface-count" if len(degrees) == 1 else "cayley-ci",
        inputs=(("sections", sections), ("endos", endos), ("pgl", pgl)),
    ))


# ---------------------------------------------------------------------------
# The special series: twisted-form lemmas and projective duality


def _series_facts(space: HomogSpace) -> tuple[int, int]:
    r, c = space.picard_index, space.coindex
    if space.name not in SPECIAL_SERIES:
        raise ValueError(f"{space.name} is outside the special series")
    return r, c


def closed_form_hcc1(space, s: int) -> int:
    """dim Sym^{c-1}(C^s) - s^2 = C(s+c-2, c-1) - s^2, the moduli count of
    the dual hypersurface of :func:`dual_correspondence`, hence of the
    codimension-s linear section of a special-series space, at s = r-c+1
    only: an oracle independent of the Hodge route, refused elsewhere."""
    r, c = _series_facts(space)
    s = _integer(s, "hyperplane count")
    if s != r - c + 1:
        raise ValueError(f"{space.name}, s = {s}: the closed form holds "
                         f"at s = {r - c + 1} only")
    return comb(s + c - 2, c - 1) - s * s


def lemma_van_scan(space: HomogSpace) -> list[tuple[int, int, int, int]]:
    """Exhaustive scan of H^q(Omega^p(-k)) for p <= c-1, 1 <= k <= r-p,
    returning every nonzero (p, k, q, dim).  The lemmas expect one hit,
    (c-2, r-c+1, r+2, 1): the nonvanishing group and nothing else.

    The p = 0 column stops at k = r-1: O(-r) is the canonical bundle, whose
    top cohomology is one-dimensional for every Fano space, so it cannot be
    part of any vanishing range.
    """
    r, c = _series_facts(space)
    out = []
    for p in range(c):
        kmax = r - p if p >= 1 else r - 1
        for k in range(1, kmax + 1):
            for q, d in sorted(forms_cohomology(space, p, k).items()):
                out.append((p, k, q, d))
    return out


_DEGREE_WORDS = {2: "quadric", 3: "cubic", 4: "quartic", 5: "quintic",
                 6: "sextic", 7: "septic", 8: "octic"}
_DIM_WORDS = {2: "surface", 3: "threefold", 4: "fourfold", 5: "fivefold",
              6: "sixfold", 7: "sevenfold", 8: "eightfold", 9: "ninefold"}


def _variety_name(degree: int, dim: int, double: bool) -> str:
    deg = _DEGREE_WORDS.get(degree, f"degree-{degree}")
    dimw = _DIM_WORDS.get(dim, f"{dim}-fold")
    return f"double {deg} {dimw}" if double else f"{deg} {dimw}"


class DualReport(namedtuple("DualReport", "space description dual_dim x_moduli "
                            "dual_moduli agree j_dim")):
    """X vs the variety attached to its projective-dual hypersurface."""

    __slots__ = ()


def dual_correspondence(space: HomogSpace) -> DualReport:
    """Attach to the maximal CY-type linear section X of a series space the
    variety cut out by its dual hypersurface: a degree-(c-1) hypersurface in
    P^{r-c} when c-1 is odd, the double cover of P^{r-c} branched in degree
    c-1 when it is even.  Emits both deformation counts and the dimension of
    the intermediate Jacobian (one more than the count when they agree)."""
    r, c = _series_facts(space)
    s = r - c + 1
    x_moduli = deformation_moduli(linear_section(space, s))
    degree = c - 1
    pdim = r - c
    if degree % 2:
        dual_moduli = ci_moduli(pdim, (degree,))
        dual_dim = pdim - 1
    else:
        dual_moduli = deformation_moduli(
            section_spec(projective_space(pdim), branch=degree))
        dual_dim = pdim
    return DualReport(
        space=space.name,
        description=_variety_name(degree, dual_dim, double=degree % 2 == 0),
        dual_dim=dual_dim,
        x_moduli=x_moduli,
        dual_moduli=dual_moduli,
        agree=x_moduli.value == dual_moduli.value,
        j_dim=x_moduli.value + 1,
    )


# ---------------------------------------------------------------------------
# Calabi-Yau-type verdicts


class CYTypeReport(namedtuple("CYTypeReport", "clauses verdict")):
    """``clauses``: (name, status, detail) triples; ``verdict``: cy-type,
    not-cy-type or inconclusive."""

    __slots__ = ()


def _clause(name: str, row: HodgeRow, cells, ok: str) -> tuple[str, str, str]:
    """One clause over its (p, q, wanted) cells, with the mismatch rule of
    ``report._cell``: fail at the first cell whose interval excludes its
    wanted value, inconclusive when none does but some cell is still an
    interval, and pass, with detail ``ok``, otherwise."""
    open_detail = None
    for p, q, want in cells:
        v = row.entry(p, q)
        if want not in v:
            return name, "fail", f"h^{{{p},{q}}}: got {v}"
        if not v.exact and open_detail is None:
            open_detail = f"h^{{{p},{q}}}: got {v}"
    return (name, "inconclusive", open_detail) if open_detail else (name, "pass", ok)


def cy_type_verdict(row: HodgeRow, h1tx: ModuliReport | None = None) -> CYTypeReport:
    """Check the Hodge-theoretic shape of a Calabi-Yau-type manifold of odd
    dimension 2m+1: a one-dimensional h^{m+2,m-1} with nothing above it, no
    holomorphic k-forms for 0 < k < dim, and (as a dimension-level proxy for
    the contraction condition) h^{m+1,m} equal to the deformation count.
    A failed clause beats an inconclusive one, which beats cy-type."""
    if row.n % 2 == 0:
        raise ValueError("Calabi-Yau type needs odd dimension")
    m = (row.n - 1) // 2
    clauses = [_clause("extreme-piece", row,
                       [(m + 2, m - 1, 1)] + [(m + p + 1, m - p, 0) for p in range(2, m + 1)],
                       f"h^{{{m+2},{m-1}}} = 1 and zero above")]
    if h1tx is None:
        clauses.append(("contraction-dimension", "inconclusive",
                        "no deformation count supplied"))
    else:
        clauses.append(_clause("contraction-dimension", row, [(m + 1, m, h1tx.value)],
                               f"h^{{{m+1},{m}}} = {h1tx.value} = moduli"))
    clauses.append(("contraction-map", "not checked (out of scope)",
                    "only the dimension consequence is tested"))
    clauses.append(_clause("no-holomorphic-forms", row,
                           [(k, 0, 0) for k in range(1, row.n)],
                           "h^{k,0} = 0 for 0 < k < dim"))
    tested = {s for name, s, _ in clauses if name != "contraction-map"}
    verdict = ("not-cy-type" if "fail" in tested
               else "inconclusive" if "inconclusive" in tested else "cy-type")
    return CYTypeReport(clauses=tuple(clauses), verdict=verdict)


__all__ = [
    "SPECIAL_SERIES",
    "THETA_AUT_DIM",
    "SectionSpec",
    "HodgeRow",
    "ModuliReport",
    "DualReport",
    "CYTypeReport",
    "section_spec",
    "linear_section",
    "restricted_forms",
    "chase_section_forms",
    "section_forms",
    "hodge_table",
    "section_hodge",
    "double_cover_hodge",
    "chi_section_forms",
    "section_line_h0",
    "deformation_moduli",
    "moduli_routes",
    "ci_moduli",
    "closed_form_hcc1",
    "lemma_van_scan",
    "dual_correspondence",
    "cy_type_verdict",
]
