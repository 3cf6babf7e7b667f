"""Interval chase: soundness on random exact complexes built from the model
itself, fixed cases for ses_middle and for an inconsistent seed, and the
arithmetic of the interval type."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwb.chase import ChaseError, Iv, exact, ses_middle, solve_exact_complex, unknown


@st.composite
def exact_complexes(draw):
    """Image dimensions h^q(B_i) and connecting ranks r_i[q] <=
    min(h^q(B_i), h^{q+1}(B_{i-1})), and the terms they force:
    T_0 = B_0 and h^q(T_i) = B_{i-1}[q] - r_i[q-1] + B_i[q] - r_i[q]."""
    top = draw(st.integers(0, 4))
    m = draw(st.integers(0, 3))
    dims = st.lists(st.integers(0, 5), min_size=top + 1, max_size=top + 1)
    images = [draw(dims) + [0] for _ in range(m + 1)]  # degree top + 1 is 0
    terms = [images[0][: top + 1]]
    for i in range(1, m + 1):
        a, c = images[i - 1], images[i]
        r = [draw(st.integers(0, min(c[q], a[q + 1]))) for q in range(top + 1)]
        terms.append([a[q] - (r[q - 1] if q else 0) + c[q] - r[q]
                      for q in range(top + 1)])
    return top, [row[: top + 1] for row in images], terms


def _hide(draw, truth: int):
    """The truth exactly, as an unbounded interval, or as a bounded one."""
    kind = draw(st.sampled_from(("exact", "int", "unbounded", "bounded")))
    if kind == "exact":
        return exact(truth)
    if kind == "int":
        return truth
    lo = draw(st.integers(0, truth))
    if kind == "unbounded":
        return Iv(lo, None)
    return Iv(lo, truth + draw(st.integers(0, 3)))


def _inside(truth: int, iv: Iv) -> bool:
    return iv.lo <= truth and (iv.hi is None or truth <= iv.hi)


@settings(deadline=None)
@given(exact_complexes(), st.data())
def test_truth_lies_inside_every_returned_interval(model, data):
    top, images, terms = model
    hidden = [[_hide(data.draw, v) for v in t] for t in terms]
    if data.draw(st.booleans()):  # the dict form drops exact zeros
        hidden = [{q: v for q, v in enumerate(t) if v not in (0, exact(0))}
                  for t in hidden]
    target = images[-1]
    seed = {q: _hide(data.draw, target[q])
            for q in data.draw(st.sets(st.integers(0, top)))}
    out = solve_exact_complex(hidden, seed, top)  # consistent: must not raise
    assert len(out) == top + 1
    assert all(_inside(t, iv) for t, iv in zip(target, out))
    for i in range(1, len(terms)):
        mid = ses_middle(images[i - 1], images[i], top)
        assert all(_inside(t, iv) for t, iv in zip(terms[i], mid))


def test_ses_middle_bounds():
    # A = (1, 2), C = (3, 0): r[0] <= min(C[0], A[1]) = 2, r[1] <= 0
    assert ses_middle({0: 1, 1: 2}, {0: 3}, 1) == [Iv(2, 4), Iv(0, 2)]
    # A = ([1, inf], 2), C = (2, 1): r[0] <= 2 and r[1] <= A[2] = 0
    out = ses_middle([Iv(1, None), 2], [exact(2), 1], 1)
    assert out == [Iv(1, None), Iv(1, 3)]


def test_inconsistent_seed_raises():
    terms = [{0: 1}]  # the target is T_0 itself, with h^0 = 1
    assert solve_exact_complex(terms, {}, 1) == [Iv(1, 1), Iv(0, 0)]
    assert solve_exact_complex([], {0: unknown()}, 1) == [Iv(0, 0), Iv(0, 0)]
    with pytest.raises(ChaseError):
        solve_exact_complex(terms, {0: 2}, 1)
    with pytest.raises(ChaseError):
        solve_exact_complex(terms, {3: 1}, 1)  # outside the degree window


@st.composite
def intervals(draw):
    """A small interval, bounded or unbounded, and one of its members."""
    lo = draw(st.integers(0, 6))
    hi = draw(st.one_of(st.none(), st.integers(lo, lo + 6)))
    x = draw(st.integers(lo, lo + 6 if hi is None else hi))
    return Iv(lo, hi), x


@given(intervals(), intervals(), st.integers(0, 4), st.integers(0, 20))
def test_interval_sum_multiple_meet_and_membership(ax, by, k, z):
    (a, x), (b, y) = ax, by
    assert (z in a) == (a.lo <= z and (a.hi is None or z <= a.hi))
    assert x in a and y in b
    assert x + y in a + b
    assert k * x in k * a and 0 * a == exact(0)
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
    assert str(Iv(lo, None)) == f"[{lo},inf]"
