"""Interval chase: soundness on random exact complexes built from the model
itself, agreement with a plain round-robin reference solver, fixed cases for
ses_middle and for an inconsistent seed, the solver's work on fixed tables,
and the arithmetic of the interval type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwb import chase, hodge, report
from bwb.catalog import default_catalog, projective_space
from bwb.chase import ChaseError, Iv, exact, ses_middle, solve_exact_complex


@st.composite
def exact_complexes(draw, max_top=4, max_m=3, nonzero=None, paired=False,
                    max_dim=5):
    """Image dimensions h^q(B_i) and connecting ranks r_i[q] <=
    min(h^q(B_i), h^{q+1}(B_{i-1})), and the terms they force:
    T_0 = B_0 and h^q(T_i) = B_{i-1}[q] - r_i[q-1] + B_i[q] - r_i[q].
    With ``nonzero`` = k the images are zero but in at most k cells, the
    shape of the Koszul chases; ``paired`` gives each cell B_i[q] a nonzero
    partner B_{i-1}[q+1], so that the rank r_i[q] between them may be
    nonzero.  Image dimensions are at most ``max_dim``."""
    low = 1 if paired else 0  # a pair needs two blocks and two degrees
    top = draw(st.integers(low, max_top))
    m = draw(st.integers(low, max_m))
    if nonzero is None:
        dims = st.lists(st.integers(0, max_dim), min_size=top + 1,
                        max_size=top + 1)
        images = [draw(dims) + [0] for _ in range(m + 1)]  # degree top + 1 is 0
    else:
        images = [[0] * (top + 2) for _ in range(m + 1)]
        cells = st.tuples(st.integers(low, m), st.integers(0, top - low))
        for (i, q), v in draw(st.dictionaries(cells, st.integers(1, max_dim),
                                              max_size=nonzero)).items():
            images[i][q] = v
            if paired:
                images[i - 1][q + 1] = draw(st.integers(1, max_dim))
    terms = [images[0][: top + 1]]
    for i in range(1, m + 1):
        a, c = images[i - 1], images[i]
        r = [draw(st.integers(0, min(c[q], a[q + 1]))) for q in range(top + 1)]
        terms.append([a[q] - (r[q - 1] if q else 0) + c[q] - r[q]
                      for q in range(top + 1)])
    return top, [row[: top + 1] for row in images], terms


def _hide(draw, truth: int):
    """The truth exactly, as a wide interval, or as a narrow one."""
    kind = draw(st.sampled_from(("exact", "int", "wide", "narrow")))
    if kind == "exact":
        return exact(truth)
    if kind == "int":
        return truth
    lo = draw(st.integers(0, truth))
    if kind == "wide":
        return Iv(lo, truth + draw(st.integers(4, 10**6)))
    return Iv(lo, truth + draw(st.integers(0, 3)))


def _scaled(c: int, v):
    """``c`` copies of the entry ``v`` summed, an Iv built from its ends."""
    return Iv(c * v.lo, c * v.hi) if isinstance(v, Iv) else c * v


def _inside(truth: int, iv: Iv) -> bool:
    return iv.lo <= truth <= iv.hi


@settings(deadline=None)
@given(exact_complexes(), st.data())
def test_truth_lies_inside_every_returned_interval(model, data):
    top, images, terms = model
    hidden = [[_hide(data.draw, v) for v in t] for t in terms]
    target = images[-1]
    seed = {q: _hide(data.draw, target[q])
            for q in data.draw(st.sets(st.integers(0, top)))}
    out = solve_exact_complex(hidden, seed, top)  # consistent: must not raise
    assert len(out) == top + 1
    assert all(_inside(t, iv) for t, iv in zip(target, out))
    for i in range(1, len(terms)):
        mid = ses_middle(images[i - 1], images[i], top)
        assert all(_inside(t, iv) for t, iv in zip(terms[i], mid))


@settings(deadline=None)
@given(exact_complexes(), st.data())
def test_a_chase_seeded_with_its_own_result_returns_it(model, data):
    """What lets hodge_table skip a row that has not changed since its last
    chase: the result is the greatest fixpoint below the inputs, so seeding
    the target with it gives it back."""
    top, images, terms = model
    hidden = [[_hide(data.draw, v) for v in t] for t in terms]
    seed = {q: _hide(data.draw, images[-1][q])
            for q in data.draw(st.sets(st.integers(0, top)))}
    out = solve_exact_complex(hidden, seed, top)
    assert solve_exact_complex(hidden, dict(enumerate(out)), top) == out


def _projection(terms, top):
    """[min, max] of each target cell over every integer point of the
    chase's system on exact terms, enumerated block by block from B_0 = T_0:
    ranks r_i[q] <= B_{i-1}[q+1], and each B_i[q] = T_i[q] - B_{i-1}[q]
    + r_i[q-1] + r_i[q] at least r_i[q]."""
    blocks = {tuple(terms[0])}
    for t in terms[1:]:
        nxt = set()

        def extend(a, q, prev, row):
            if q > top:
                nxt.add(tuple(row))
                return
            for r in range(a[q + 1] + 1):
                b = t[q] - a[q] + prev + r
                if b >= r:
                    extend(a, q + 1, r, row + [b])

        for a in blocks:
            extend(a + (0,), 0, 0, [])
        blocks = nxt
    return [(min(b[q] for b in blocks), max(b[q] for b in blocks))
            for q in range(top + 1)]


@settings(deadline=None)
@given(exact_complexes(max_top=3, max_m=3, max_dim=3))
def test_solver_interval_holds_the_exact_projection(model):
    """Soundness without the scheduler: every value the system allows for a
    target cell lies inside the solver's interval (which may be wider)."""
    top, images, terms = model
    out = solve_exact_complex(terms, {}, top)
    for truth, (lo, hi), iv in zip(images[-1], _projection(terms, top), out):
        assert lo <= truth <= hi
        assert iv.lo <= lo and hi <= iv.hi, (lo, hi, iv)


@settings(deadline=None)
@given(st.one_of(exact_complexes(max_top=8, max_m=6),
                 exact_complexes(max_top=22, max_m=6, nonzero=3)))
def test_e1_sums_equal_the_truth_and_lie_inside_the_solver(model):
    """Where the degrees force E1 degeneration, the entry sums of each total
    degree are the target's cohomology, and the solver's intervals, which
    read only the same terms, hold them."""
    top, images, terms = model
    closed = hodge._e1_sums(terms, top)
    if closed is None:
        return
    assert closed == tuple(map(exact, images[-1]))
    out = solve_exact_complex(terms, {}, top)
    assert all(v.lo in iv for v, iv in zip(closed, out))


def test_e1_closes_the_minimal_case_the_solver_leaves_open():
    """[T0, 0, T2, 0] with top 6, h^5(T_0) = 7 and h^2(T_2) = 2: the last
    sequence 0 -> B_2 -> 0 -> F -> 0 forces h^q(F) = h^{q+1}(B_2), so F is
    2 in degree 1 and 7 in degree 2, as E1 gives; the solver's equations
    alone leave [0,2] and [5,7]."""
    zero = [0] * 7
    terms = [[0, 0, 0, 0, 0, 7, 0], zero, [0, 0, 2, 0, 0, 0, 0], zero]
    assert hodge._e1_sums(terms, 6) == tuple(map(exact, [0, 2, 7, 0, 0, 0, 0]))
    assert solve_exact_complex(terms, {}, 6) == [
        exact(0), Iv(0, 2), Iv(5, 7), *[exact(0)] * 4]


@pytest.mark.parametrize("terms, top", [
    ([[0, 1], [0, 1]], 1),  # T_0 in total degree 0, T_1 in 1: d_1 may be onto
    ([[0, 0], [0, 3]], 0),  # the only entry lands in total degree 1 > top
    ([[2, 0], [0, 0]], 1),  # and here in total degree -1
])
def test_e1_leaves_complexes_it_cannot_close_to_the_solver(terms, top):
    assert hodge._e1_sums(terms, top) is None


def _reference_solve(terms, seed, top):
    """The solver's equations swept round-robin, every equation of every
    block, until nothing narrows; intervals are Iv.  Unknowns start at
    [0, F] for an F far above the solver's start bound, so an equal result
    shows that bound never binds.  Like the solver when its visits run out,
    the sweep raises ChaseError when its rounds do."""
    zero = exact(0)

    def vec(t):  # degrees -1 .. top + 1, zero at both ends
        if isinstance(t, dict):
            t = [t.get(q, free) for q in range(top + 1)]
        return [zero] + [v if isinstance(v, Iv) else exact(v) for v in t] + [zero]

    def span(plus, minus):
        """sum(plus) - sum(minus)."""
        return (sum(v.lo for v in plus) - sum(v.hi for v in minus),
                sum(v.hi for v in plus) - sum(v.lo for v in minus))

    changed = False

    def narrow(vec, s, lo, hi):
        nonlocal changed
        new = vec[s].meet(Iv(max(lo, 0), hi))  # raises ChaseError if empty
        changed |= new != vec[s]
        vec[s] = new

    T = [vec(t) for t in terms]
    free = Iv(0, 2**32 * (1 + sum(v.hi for t in T for v in t)))
    m = len(T) - 1
    B = [vec([free] * (top + 1)) for _ in range(m)]
    B.append(vec(seed))
    R = [None] + [vec([free] * (top + 1)) for _ in range(m)]
    degrees = range(1, top + 2)
    if m < 0:
        return [Iv(0, 0).meet(v) for v in B[0][1:-1]]
    for i in range(m + 1):  # the telescoped initial upper bounds
        for s in degrees:
            left = [B[i - 1][s + 1]] if i else []
            narrow(B[i], s, 0, span(left + [T[i][s]], [])[1])
    for rounds in range(10_000):
        changed = False
        for s in degrees:
            narrow(B[0], s, *span([T[0][s]], []))
            narrow(T[0], s, *span([B[0][s]], []))
        for i in range(1, m + 1):
            A, C, Ti, r = B[i - 1], B[i], T[i], R[i]
            for s in degrees:
                narrow(Ti, s, *span([A[s], C[s]], [r[s - 1], r[s]]))
                narrow(C, s, *span([Ti[s], r[s - 1], r[s]], [A[s]]))
                narrow(A, s, *span([Ti[s], r[s - 1], r[s]], [C[s]]))
                narrow(r, s, *span([A[s], C[s]], [Ti[s], r[s - 1]]))
                if s > 1:
                    narrow(r, s - 1, *span([A[s], C[s]], [Ti[s], r[s]]))
                narrow(r, s, 0, min(C[s].hi, A[s + 1].hi))
        if not changed:
            return B[m][1:-1]
    raise ChaseError("the reference sweep found no fixpoint")


def _same_as_reference(terms, seed, top):
    try:
        want = _reference_solve(terms, seed, top)
    except ChaseError:
        with pytest.raises(ChaseError):
            solve_exact_complex(terms, seed, top)
        return None
    got = solve_exact_complex(terms, seed, top)
    assert got == want
    return got


@settings(deadline=None)
@given(exact_complexes(max_top=8, max_m=6), st.data())
def test_solver_equals_round_robin_reference(model, data):
    """Same intervals as the plain sweep, or ChaseError from both: the
    order the slots run in cannot change a fixpoint of monotone narrowings."""
    top, images, terms = model
    hidden = [[_hide(data.draw, v) for v in t] for t in terms]
    if data.draw(st.booleans()):  # knock one term off the model
        t = data.draw(st.sampled_from(hidden))
        t[data.draw(st.integers(0, top))] = data.draw(st.integers(0, 6))
    target = images[-1]
    seed = {q: _hide(data.draw, target[q]) if data.draw(st.booleans())
            else data.draw(intervals())[0]
            for q in data.draw(st.sets(st.integers(0, top)))}
    _same_as_reference(hidden, seed, top)


def test_a_wide_inconsistent_draw_raises_in_the_solver_and_the_reference():
    """A draw of the test above: the solver empties [1,0] in degree 0, while
    the sweep closes in on the contradiction one unit per round and runs out
    of its 10,000 rounds first.  Both raise ChaseError."""
    assert _same_as_reference([[1, Iv(0, 10090), 0, 0], [0, 0, 0, 0]], {}, 3) is None


def _check_sparse(model, data):
    top, images, terms = model
    hidden = [list(t) for t in terms]
    cells = st.tuples(st.integers(0, len(terms) - 1), st.integers(0, top))
    for i, q in data.draw(st.lists(cells, max_size=2)):
        hidden[i][q] = _hide(data.draw, terms[i][q])
    target = images[-1]
    seed = {q: target[q] for q in data.draw(st.sets(st.integers(0, top)))}
    out = solve_exact_complex(hidden, seed, top)  # consistent: must not raise
    assert all(_inside(t, iv) for t, iv in zip(target, out))
    assert _same_as_reference(hidden, seed, top) == out
    i, q = data.draw(cells)  # knock one cell off the model
    hidden[i][q] = data.draw(st.integers(0, 6))
    _same_as_reference(hidden, seed, top)


@settings(deadline=None)
@given(exact_complexes(max_top=22, max_m=6, nonzero=3), st.data())
def test_sparse_complexes_hold_the_truth_and_equal_the_reference(model, data):
    """Koszul-shaped complexes: exact terms but for at most two hidden
    cells, so most slots are first pushed with all their variables exact."""
    _check_sparse(model, data)


@settings(deadline=None)
@given(exact_complexes(max_top=22, max_m=6, nonzero=3, paired=True), st.data())
def test_paired_sparse_complexes_hold_the_truth_and_equal_the_reference(model, data):
    """The same with nonzero cells in pairs (B_i[q], B_{i-1}[q+1]): a slot
    whose three dimensions are exact but whose own rank cap is nonzero must
    still run, and hypothesis seldom draws one without the pairs."""
    _check_sparse(model, data)


@settings(deadline=None)
@given(exact_complexes(max_top=6, max_m=5), st.data())
def test_scaling_every_entry_scales_the_result(model, data):
    """The equations are homogeneous, and each chase takes its start bound
    from its own inputs, so entries of any size give the same result
    scaled."""
    top, images, terms = model
    hidden = [[_hide(data.draw, v) for v in t] for t in terms]
    seed = {q: _hide(data.draw, images[-1][q])
            for q in data.draw(st.sets(st.integers(0, top)))}
    base = solve_exact_complex(hidden, seed, top)
    middle = ses_middle(hidden[0], images[0], top)
    for c in (2**64, 2**200):
        got = solve_exact_complex([[_scaled(c, v) for v in t] for t in hidden],
                                  {q: _scaled(c, v) for q, v in seed.items()}, top)
        assert got == [_scaled(c, v) for v in base]
        got = ses_middle([_scaled(c, v) for v in hidden[0]],
                         [c * v for v in images[0]], top)
        assert got == [_scaled(c, v) for v in middle]


def test_entries_above_two_to_the_62_are_finite():
    # a fixed marker 2^62 read the lower bound 2^64 as above "no bound"
    terms = [[2**64, 2**65, 0], [3 * 2**64, 2**66, 2**64]]
    assert solve_exact_complex(terms, {}, 2) == [
        _scaled(2**64, v) for v in solve_exact_complex([[1, 2, 0], [3, 4, 1]], {}, 2)]


def test_non_integer_entries_are_refused():
    for call in (lambda: solve_exact_complex([[1.5]], {}, 0),
                 lambda: solve_exact_complex([[Iv(0, 2.5)]], {}, 0),
                 lambda: solve_exact_complex([[1]], {0: 1.0}, 0),
                 lambda: ses_middle([2.5], [1], 0)):
        with pytest.raises(ValueError, match="must be an integer"):
            call()
    # a seed value outside the degree window takes the same gate, before the
    # window refuses a lower end above 0
    for seed, got in (({3: 0.0}, "0.0"), ({3: Iv(0, 2.5)}, "2.5"),
                      ({-1: "x"}, "'x'"), ({3: 1.5}, "1.5"), ({0: 0.0}, "0.0")):
        with pytest.raises(ValueError,
                           match=rf"^chase entry must be an integer, got {got}$"):
            solve_exact_complex([[1]], seed, 0)
    for seed in ({3: 1}, {3: True}, {-1: Iv(1, 2)}):
        with pytest.raises(ChaseError, match="^seed outside degree window$"):
            solve_exact_complex([[1]], seed, 0)
    assert solve_exact_complex([[1]], {3: 0, -1: Iv(0, 4), 4: False}, 0) == [exact(1)]


def test_an_unbounded_end_is_refused():
    """Every interval is finite: a None end takes the integer gate, in a
    term, in a seed and in either term of ses_middle."""
    for call in (lambda: solve_exact_complex([[1, Iv(0, None)], [2, 3]], {}, 1),
                 lambda: solve_exact_complex([[1, 0], [2, 3]], {1: Iv(0, None)}, 1),
                 lambda: solve_exact_complex([[1]], {2: Iv(0, None)}, 0),
                 lambda: ses_middle([1, Iv(0, None)], [0, 2], 1),
                 lambda: ses_middle([1, 0], [Iv(2, None), 2], 1)):
        with pytest.raises(ValueError,
                           match="^chase entry must be an integer, got None$"):
            call()


class _Int(int):
    pass


# One place per way an entry reaches the solver; each takes the entry v.
ENTRY_PLACES = {
    "int term": lambda v: solve_exact_complex([[1, v], [2, 3]], {}, 1),
    "Iv lower end": lambda v: solve_exact_complex([[1, Iv(v, 4)], [2, 3]], {}, 1),
    "Iv upper end": lambda v: solve_exact_complex([[1, Iv(0, v)], [2, 3]], {}, 1),
    # a term made only of Ivs
    "Iv term lower end": lambda v: solve_exact_complex(
        [[exact(1), Iv(v, 4)], [exact(2), exact(3)]], {}, 1),
    "Iv term upper end": lambda v: solve_exact_complex(
        [[exact(1), Iv(0, v)], [exact(2), exact(3)]], {}, 1),
    "seed": lambda v: solve_exact_complex([[1, Iv(0, 9)], [2, 3]], {1: v}, 1),
    "seed in every degree": lambda v: solve_exact_complex([[1, v]], {0: 1, 1: v}, 1),
    "ses_middle": lambda v: ses_middle([1, v], [Iv(0, 9), 2], 1),
}


def _outcome(call, v):
    """The ends of the result with their types (a bool end would print as
    True), or the exception's type and text."""
    try:
        return [(type(end), end) for iv in call(v) for end in iv]
    except (ChaseError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("place", ENTRY_PLACES)
def test_entries_off_the_typed_gate_take_the_integer_check(place):
    """An entry that is not a plain int, or a plain int below 0, misses the
    one typed gate per term; an end that is not a plain int then goes
    through the integer check, so a term of Ivs gives what a term mixing
    ints and Ivs gives."""
    call = ENTRY_PLACES[place]
    # an int-valued bool or int subclass reads as its int
    for v in (True, False, _Int(2)):
        assert _outcome(call, v) == _outcome(call, int(v))
    # a lower end below 0 is clamped to 0; any other end below 0 empties
    if place in ("Iv lower end", "Iv term lower end"):
        assert _outcome(call, -1) == _outcome(call, 0)
    else:
        assert _outcome(call, -1) == (ChaseError, "empty interval [0,-1] in degree 1")
    for v in (1.5, 2.0, 2.5):
        assert _outcome(call, v) == (ValueError,
                                     f"chase entry must be an integer, got {v}")


def test_seed_degrees_take_the_integer_check():
    """A seed key is a degree: what operator.index reads is that degree, and
    anything else is refused with the key named, never read as an int."""
    want = solve_exact_complex([[0, 5]], {1: 5}, 1)
    for key in (True, _Int(1)):
        assert solve_exact_complex([[0, 5]], {key: 5}, 1) == want
    for key in (1.0, "1", None):
        with pytest.raises(ValueError,
                           match=f"^seed degree must be an integer, got {key!r}$"):
            solve_exact_complex([[0, 5]], {key: 5}, 1)


def test_inconsistent_exact_complexes_raise():
    with pytest.raises(ChaseError):
        solve_exact_complex([[0, 0], [1, 0], [0, 0]], {}, 1)
    # every variable of the one slot is exact from the start
    with pytest.raises(ChaseError, match="inexact sequence 1 in degree 0"):
        solve_exact_complex([[0], [1]], {0: 0}, 0)


def test_a_wide_inconsistent_complex_ends_whichever_way_it_fails():
    """No exact complex fits h^0(T_0) = 1 against a zero T_1, and the entry
    [0, w] beside it lets the chase close in on that one unit at a time: at
    width 10,090 an interval comes out empty first, at 10**5 the visit limit
    ends the chase (in about 0.1 s)."""
    with pytest.raises(ChaseError, match=r"^empty interval \[1,0\] in degree 0$"):
        solve_exact_complex([[1, Iv(0, 10090), 0, 0], [0, 0, 0, 0]], {}, 3)
    with pytest.raises(ChaseError, match="^chase failed to reach a fixpoint$"):
        solve_exact_complex([[1, Iv(0, 10**5), 0, 0], [0, 0, 0, 0]], {}, 3)


def test_a_chase_error_names_the_interval_the_visit_order_empties_first():
    """The message names the first interval to come out empty, which depends
    on the order the variables narrow in: the forward pass of the start, its
    backward pass, then the FIFO; this is the one place that shows it.  Here
    the backward pass lowers h^0(B_1) from 6 to 3 and appends the four slots
    as it reaches them, block 2 before block 1.  Block 2's slots narrow
    nothing yet; block 1's close h^0(B_1) to 3 and push block 2's again;
    slot (2, 1) caps r_2[0] at 1, so slot (2, 0) lifts h^0(T_2) to at least
    3 - 1 and empties [2,0] in degree 0.  A FIFO started in (i, q) order,
    block 1 first, empties [1,0] in degree 0 first."""
    with pytest.raises(ChaseError, match=r"^empty interval \[2,0\] in degree 0$"):
        solve_exact_complex([[0, 5], [1, 3], [0, 3]], {}, 1)


def test_entries_meet_zero_to_infinity():
    # a negative lower end is clamped to 0, an empty entry raises, in a term
    # mixing ints and Ivs and in one made only of Ivs
    for zero, one, five in ((0, 1, 5), (exact(0), exact(1), exact(5))):
        assert solve_exact_complex([[Iv(-2, 3), zero], [one, zero]], {}, 1) == [
            Iv(0, 1), exact(0)]
        with pytest.raises(ChaseError, match=r"^empty interval \[3,1\] in degree 0$"):
            solve_exact_complex([[Iv(3, 1), zero]], {}, 1)
        # wide ends: h^0 of the target is 5 - h^0(T_0), so it is at most 4,
        # and h^1 is h^1(T_1), which only its own ends bound
        assert solve_exact_complex([[Iv(1, 9), zero], [five, Iv(0, 7)]],
                                   {}, 1) == [Iv(0, 4), Iv(0, 7)]
        assert solve_exact_complex([[Iv(1, 9), zero]], {}, 1) == [
            Iv(1, 9), exact(0)]
    assert ses_middle([Iv(-2, 3)], [5], 0) == [Iv(5, 8)]  # not [3,8]
    with pytest.raises(ChaseError, match=r"empty interval \[3,1\] in degree 0"):
        solve_exact_complex([[3]], {0: Iv(3, 1)}, 0)
    # a seed above its telescoped upper bound h^1 <= h^2(T_0) + h^1(T_1) = 1
    with pytest.raises(ChaseError, match=r"empty interval \[2,1\] in degree 1"):
        solve_exact_complex([[0, Iv(0, 9)], [0, 1]], {1: 2}, 1)


def test_which_slots_start_dirty():
    """Which slots the sparse start pushes onto the queue."""
    assert solve_exact_complex([[0] * 22] * 5, {}, 21) == [exact(0)] * 22
    # slot 0 has one interval, its own rank r[0] in [0,1], and must run to
    # close it to 1: slot 1 alone leaves h^1 in [1,2]
    assert solve_exact_complex([[0, 1], [0, 2]], {0: 1}, 1) == [exact(1), exact(2)]


# One complex per push rule of the slot queue, each of which the solver gets
# wrong when that one push is left out (None: the system is infeasible).
DEPENDENCY_CASES = [
    # a narrowed B_i[s] re-runs slot s - 1 of block i + 1, through the rank cap
    ([[Iv(2, 8), 4, 0, 0], [2, 3, 2, 1], [0, Iv(3, 5), Iv(4, 9), Iv(4, 9)]],
     {3: 4}, 3, None),
    # ... and slot s of block i + 1
    ([[0, 2, 4, 3], [1, 0, Iv(4, 12), 0], [6, 3, 4, 0]], {}, 3,
     [Iv(3, 9), Iv(0, 18), Iv(0, 4), exact(0)]),
    # a narrowed B_{i-1}[s] re-runs slot s of block i - 1
    ([[0, 4, 6], [0, 5, 0], [0, Iv(1, 8), 0], [2, 4, 0]], {0: 4}, 2, None),
    # a narrowed R_i[s] re-runs slot s + 1 of block i
    ([[0, Iv(0, 5)], [0, Iv(3, 10)]], {0: 5}, 1, [exact(5), Iv(3, 10)]),
    # a narrowed R_i[s - 1] re-runs slot s - 1 of block i
    ([[0, 1], [2, 6], [6, 4], [4, 0]], {}, 1, [Iv(0, 4), exact(0)]),
    # a slot's own sum equation is closed by one visit, with no push of itself
    ([[1], [3]], {}, 0, [exact(2)]),
    # a narrowed B_{i-1}[s] re-runs slot s - 1 of block i; without that push
    # the solver returns [[0,8],[0,9],0,0]
    ([[0, Iv(4, 12), Iv(1, 6), Iv(2, 3)], [1, 0, Iv(2, 3), 2], [3, 3, 6, 0]],
     {2: 0}, 3, None),
]


@pytest.mark.parametrize("terms, seed, top, want", DEPENDENCY_CASES)
def test_every_dirty_mask_dependency(terms, seed, top, want):
    assert _same_as_reference(terms, seed, top) == want


def _double_cover(ambient, cuts, branch):
    def run():
        space = (projective_space(5) if ambient is None
                 else default_catalog().space(ambient))
        hodge.double_cover_hodge(hodge.section_spec(space, cuts, branch=branch))
    return run


# (label, run, solves, slot visits, _narrow calls) of each double-cover table
# and of ``bwb verify``, from cold hodge caches.  The results do not depend on
# the order the slots run in, so a push that runs a slot for nothing, a
# missing reader push, or a narrowing the start no longer makes, shows only
# in these counts.
CHASE_WORK = [
    ("P5 double cover, branch 4", _double_cover(None, (), 4), 44, 137, 78),
    ("P5 double cover, branch 8", _double_cover(None, (), 8), 46, 147, 88),
    ("LG(3,6) hyperplane double cover, branch 2",
     _double_cover("LG(3,6)", (1,), 2), 67, 457, 224),
    ("bwb verify", report.run_verify, 302, 9739, 5615),
]


@pytest.mark.parametrize("label, run, solves, visits, narrows",
                         CHASE_WORK, ids=[w[0] for w in CHASE_WORK])
def test_slot_visits_and_narrowings_on_the_double_cover_tables(
        monkeypatch, label, run, solves, visits, narrows):
    for cached in (hodge.restricted_forms, hodge._cotangent_terms, hodge.hodge_table):
        cached.cache_clear()
    work = {"solves": 0, "visits": 0, "narrows": 0}
    run_chase, narrow = chase._chase, chase._narrow

    def counted_chase(*args):
        work["solves"] += 1
        work["visits"] += run_chase(*args)

    def counted_narrow(*args):
        work["narrows"] += 1
        return narrow(*args)

    monkeypatch.setattr(chase, "_chase", counted_chase)
    monkeypatch.setattr(chase, "_narrow", counted_narrow)
    run()
    assert work == {"solves": solves, "visits": visits, "narrows": narrows}


def test_term_of_the_wrong_length_raises():
    with pytest.raises(ChaseError, match="term has 1 degrees, expected 3"):
        solve_exact_complex([[1]], {}, 2)
    with pytest.raises(ChaseError):
        ses_middle([1, 0, 0, 0], [1, 0, 0], 2)


def test_ses_middle_bounds():
    # A = (1, 2), C = (3, 0): r[0] <= min(C[0], A[1]) = 2, r[1] <= 0
    assert ses_middle([1, 2], [3, 0], 1) == [Iv(2, 4), Iv(0, 2)]
    # A = ([1, 9], 2), C = (2, 1): r[0] <= 2 and r[1] <= A[2] = 0
    out = ses_middle([Iv(1, 9), 2], [exact(2), 1], 1)
    assert out == [Iv(1, 11), Iv(1, 3)]


def _ses_reference(left, right, top):
    """h^q(B) in 0 -> A -> B -> C -> 0 in closed form, as an oracle for the
    chase: A[q] - r[q-1] + C[q] - r[q] with 0 <= r[q] <= min(C[q], A[q+1])
    and r[-1] = 0; intervals are Iv."""
    A, C = ([v if isinstance(v, Iv) else exact(v) for v in t] + [exact(0)]
            for t in (left, right))

    def cap(q):  # the upper bound of r[q]
        return 0 if q < 0 else min(C[q].hi, A[q + 1].hi)

    return [Iv(max(A[q].lo + C[q].lo - cap(q - 1) - cap(q), 0), A[q].hi + C[q].hi)
            for q in range(top + 1)]


@settings(deadline=None)
@given(st.integers(0, 6), st.data())
def test_ses_middle_equals_the_closed_form(top, data):
    """The chase read back at B gives the closed form on every mix of
    exact, int, wide and narrow entries."""
    dims = st.lists(st.integers(0, 5), min_size=top + 1, max_size=top + 1)
    left, right = ([_hide(data.draw, v) for v in data.draw(dims)] for _ in "AC")
    assert ses_middle(left, right, top) == _ses_reference(left, right, top)


def test_inconsistent_seed_raises():
    terms = [[1, 0]]  # the target is T_0 itself, with h^0 = 1
    assert solve_exact_complex(terms, {}, 1) == [Iv(1, 1), Iv(0, 0)]
    assert solve_exact_complex([], {0: Iv(0, 3)}, 1) == [Iv(0, 0), Iv(0, 0)]
    with pytest.raises(ChaseError):
        solve_exact_complex(terms, {0: 2}, 1)
    with pytest.raises(ChaseError):
        solve_exact_complex(terms, {3: 1}, 1)  # outside the degree window
    with pytest.raises(ChaseError):  # the target is T_0 = 3, not in [0, 1]
        solve_exact_complex([[3]], {0: Iv(0, 1)}, 0)
    with pytest.raises(ChaseError):  # with no term the target is 0
        solve_exact_complex([], {0: 1}, 0)


@st.composite
def intervals(draw):
    """A small interval, narrow or wide, and one of its members."""
    lo = draw(st.integers(0, 6))
    hi = draw(st.one_of(st.integers(lo, lo + 6), st.integers(lo + 7, 10**6)))
    x = draw(st.integers(lo, min(hi, lo + 6)))
    return Iv(lo, hi), x


@given(intervals(), intervals(), st.integers(0, 4), st.integers(0, 20))
def test_interval_sum_multiple_meet_and_membership(ax, by, k, z):
    (a, x), (b, y) = ax, by
    assert (z in a) == (a.lo <= z <= a.hi)
    assert x in a and y in b
    assert x + y in a + b
    for product in (lambda: k * a, lambda: a * k):  # no interval product
        with pytest.raises(TypeError, match="^intervals have no product"):
            product()
    probes = [*range(20), 100]
    common = [v for v in probes if v in a and v in b]
    if not common:
        with pytest.raises(ChaseError):
            a.meet(b)
    else:
        assert [v for v in probes if v in a.meet(b)] == common


@given(st.integers(0, 50), st.integers(0, 50))
def test_interval_prints_like_the_old_formatters(lo, width):
    hi = lo + width
    old = str(lo) if width == 0 else f"[{lo},{hi}]"
    assert str(Iv(lo, hi)) == repr(Iv(lo, hi)) == old
    assert str(Iv(lo, lo + 2**70)) == f"[{lo},{lo + 2**70}]"
