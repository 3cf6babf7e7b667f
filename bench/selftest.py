"""Self-tests of the benchmark harness (not part of the tier-1 suite):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from layers import layer_metrics, make_tracer, percentile, tail  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Modules, load_golden  # noqa: E402

MODS = Modules()
CAT = MODS.catalog.load_catalog()


class FakeClock:
    """Advances only when told to, so span times are exact."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_nested_spans_give_self_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 3

    def middle():
        clock.now += 5
        leaf_w()
        leaf_w()
        clock.now += 1

    def top():
        clock.now += 10
        middle_w()
        clock.now += 2

    leaf_w = tr.wrap("leaf", leaf)
    middle_w = tr.wrap("middle", middle)
    tr.wrap("top", top)()
    st = tr.summary()
    assert st["leaf"]["calls"] == 2 and st["leaf"]["self_ns"] == 6
    assert st["middle"]["total_ns"] == 12 and st["middle"]["self_ns"] == 6
    assert st["top"]["total_ns"] == 24 and st["top"]["self_ns"] == 12
    parents = [(name, parent) for name, _s, _e, parent, _t in tr.records()]
    assert parents == [("top", -1), ("middle", 0), ("leaf", 1), ("leaf", 1)]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = Tracer(clock=clock, probes={"boom": lambda a, k, r, e: int(e is not None)})

    def boom():
        clock.now += 4
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    ((name, start, end, parent, tag),) = tr.records()
    assert (end - start, parent, tag) == (4, -1, 1)


def _bwb_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "bwb" or name.startswith("bwb."))}


def test_install_wraps_caller_bindings_and_restore_undoes_it():
    before = _bwb_namespaces()
    original = MODS.chase.solve_exact_complex
    tr = make_tracer(clock=FakeClock())
    tr.install()
    try:
        # hodge imported the name, so its binding is the one that matters
        assert MODS.hodge.solve_exact_complex is not original
        assert MODS.hodge.solve_exact_complex.__wrapped__ is original
        assert MODS.chase.solve_exact_complex is not original
        # the package re-exports the function under the submodule's name
        assert sys.modules["bwb"].bott.__wrapped__ is MODS.bott.bott.__wrapped__
        MODS.hodge.restricted_forms(CAT.space("P3xP3"), ((1, 1),), 1, (0, 0))
    finally:
        tr.restore()
    assert _bwb_namespaces() == before
    assert not tr.installed
    names = {name for name, *_ in tr.records()}
    assert {"hodge.restricted_forms", "chase.solve_exact_complex",
            "bott.forms_cohomology"} <= names


def test_traced_section_counts_and_ratios():
    spec = MODS.hodge.linear_section(CAT.space("LG(3,6)"), 1)
    MODS.hodge.hodge_table.cache_clear()
    tr = make_tracer(clock=FakeClock())
    tr.install()
    try:
        MODS.hodge.section_hodge(spec)
    finally:
        tr.restore()
    m = layer_metrics(tr, MODS)
    assert m["hodge.hodge_table.calls"] == 1
    assert m["hodge.chase_section_forms.calls"] == m["hodge.hodge_table.rounds"] * 6
    assert m["hodge.chase_section_forms.series_calls"] == 0
    assert 0 <= m["chase.solve_exact_complex.narrowed_ratio"] <= 1


def test_percentiles():
    assert percentile([], 50) == 0
    assert percentile([5, 1, 3], 50) == 3
    assert percentile(range(1, 101), 99) == 99
    assert tail(range(613)) == (95.0, 582)   # p99 would leave only 6 beyond
    assert tail(range(1213))[0] == 99.0


def test_probe_time_is_left_out_of_the_clock():
    probe = SpeedProbe()
    t0 = probe.clock()
    probe.sample()
    probe.sample()
    spent = probe.clock() - t0
    assert len(probe.samples) == 2
    assert 0 <= spent < sum(probe.samples)
    assert probe.slowdown() > 0


# ------------------------------------------------------- golden sabotage

def _sabotage_line(text: str) -> str:
    lines = text.splitlines(keepends=True)
    lines[-1] = lines[-1].replace("0 undocumented", "1 undocumented")
    return "".join(lines)


def test_verify_check_counts_a_sabotaged_golden():
    golden = load_golden("verify.txt")
    w = WORKLOADS["verify"]
    out = {"code": 0, "stdout": golden}
    attempted, failures = w.check(MODS, CAT, out)
    assert attempted > 100 and failures == []
    attempted, failures = w.check(MODS, CAT, out, golden=_sabotage_line(golden))
    assert len(failures) == 1
    _, failures = w.check(MODS, CAT, {"code": 1, "stdout": golden})
    assert failures == ["exit code 1"]


def test_sections_check_counts_a_sabotaged_golden():
    golden = load_golden("sections.json")
    w = WORKLOADS["sections"]
    out = {"items": w.inputs(7, CAT), "tables": golden}
    attempted, failures = w.check(MODS, CAT, out, oracles=False)
    assert attempted == 27 and failures == []
    bad = json.loads(json.dumps(golden))
    bad["S10 quadric"][5][4] = [80, 80]
    _, failures = w.check(MODS, CAT, out, oracles=False, golden=bad)
    assert len(failures) == 1
    drifted = {"items": out["items"], "tables": bad}
    _, failures = w.check(MODS, CAT, drifted, oracles=False)
    assert len(failures) == 2  # differs from the golden, and h54 not pinned


def test_sections_oracles_hold_on_small_specs():
    w = WORKLOADS["sections"]
    items = [it for it in w.inputs(0, CAT) if it[1] in
             ("S10 quadric", "P5 double cover, branch 4")]
    out, item_ns = w.run(MODS, CAT, items)
    attempted, failures = w.check(MODS, CAT, out)
    assert item_ns == [] and failures == []
    # two tables, chi of every exact row (rows 2 and 3 of the cover stay
    # intervals), the h54 pin
    assert attempted == 2 + 10 + 4 + 1


def test_bundles_check_counts_a_wrong_fast_path():
    w = WORKLOADS["bundles"]
    inputs = w.inputs(3, CAT)
    inputs = {"schur": inputs["schur"][:200], "serre": inputs["serre"][:50]}
    out, item_ns = w.run(MODS, CAT, inputs)
    assert len(item_ns) == 200
    out["grid"] = [g for g in out["grid"] if g[0] == "(P1)^4"]
    attempted, failures = w.check(MODS, CAT, out)
    assert failures == [] and attempted == 250 + len(out["grid"])
    fast, single, acyclic = out["fast_vs_walk"][0]
    out["fast_vs_walk"][0] = ((99, 1), single, acyclic)
    _, failures = w.check(MODS, CAT, out, oracles=False)
    assert len(failures) == 1


def test_jacring_check_counts_a_sabotaged_digest():
    w = WORKLOADS["jacring-scan"]
    rows = [types.SimpleNamespace(weights=(1,), degree=2, entries=(0, 1, 5, 1, 0),
                                  as_json=lambda: {})]
    _, failures = w.check(MODS, CAT, rows, golden={"digest": "0" * 64})
    assert any("rows, expected" in f for f in failures)
    assert any("digest" in f for f in failures)
    assert not any("degree 2" in f for f in failures)  # palindromic, extreme 1
