"""Per-layer metrics of a traced run, from the spans of :mod:`tracer`.

A metric is named ``<module>.<function>.<stat>`` after the function's home
module.  ``self_s`` is span time minus child-span time; ratios carry their
base in the counts next to them (``calls``), and a ratio over an empty base
reads 0.
"""

from __future__ import annotations

import math

from tracer import Tracer

# name -> unit, in report order.  Every traced run reports all of them.
# ``bott.bott.p50_us``/``p99_us`` come from the untraced run's timed Schur
# bundles (``bundles`` only; see run.py), not from spans.
PER_LAYER = {
    "rootsys.to_dominant.calls": "count",
    "rootsys.to_dominant.self_s": "s",
    "rootsys.weyl_dim.calls": "count",
    "rootsys.weyl_dim.self_s": "s",
    "bott.bott.calls": "count",
    "bott.bott.self_s": "s",
    "bott.bott.p50_us": "us",
    "bott.bott.p99_us": "us",
    "bott.forms_cohomology.calls": "count",
    "bott.forms_cohomology.self_s": "s",
    "bott.forms_cohomology.hit_ratio": "ratio",
    "bott.kostant_forms.hit_ratio": "ratio",
    "bott.sequence_cohomology.self_s": "s",
    "bott.spinor_sequence_cohomology.self_s": "s",
    "chase.solve_exact_complex.calls": "count",
    "chase.solve_exact_complex.self_s": "s",
    "chase.solve_exact_complex.p50_ms": "ms",
    "chase.solve_exact_complex.tail_ms": "ms",
    "chase.solve_exact_complex.tail_pct": "%",
    "chase.solve_exact_complex.narrowed_ratio": "ratio",
    "chase.ses_middle.calls": "count",
    "chase.ses_middle.self_s": "s",
    "hodge.restricted_forms.calls": "count",
    "hodge.restricted_forms.self_s": "s",
    "hodge.restricted_forms.hit_ratio": "ratio",
    "hodge.chase_section_forms.calls": "count",
    "hodge.chase_section_forms.self_s": "s",
    "hodge.chase_section_forms.repeat_ratio": "ratio",
    "hodge.chase_section_forms.series_calls": "count",
    "hodge.chase_section_forms.series_repeats": "count",
    "hodge.hodge_table.calls": "count",
    "hodge.hodge_table.self_s": "s",
    "hodge.hodge_table.rounds": "count",
    "hodge.section_hodge.self_s": "s",
    "hodge.double_cover_hodge.self_s": "s",
    "jacring.steenbrink_hodge.calls": "count",
    "jacring.steenbrink_hodge.self_s": "s",
    "jacring.steenbrink_hodge.reject_ratio": "ratio",
    "jacring.weighted_cy_scan.self_s": "s",
    "report.run_verify.self_s": "s",
    "report.render_cells.self_s": "s",
    "catalog.load_catalog.self_s": "s",
}

# lru caches whose hit ratio is reported: metric prefix -> (module, attribute)
CACHES = {
    "bott.forms_cohomology": ("bott", "_forms_cohomology"),
    "bott.kostant_forms": ("bott", "kostant_forms"),
    "hodge.restricted_forms": ("hodge", "restricted_forms"),
}


def tail(values, min_beyond: int = 10):
    """(percentile, value): the highest of the usual percentiles with at
    least ``min_beyond`` samples above it (nearest rank), else the median."""
    vals = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(vals) - nearest_rank(pct, len(vals)) >= min_beyond:
            return pct, percentile(vals, pct)
    return 50.0, percentile(vals, 50)


def nearest_rank(pct: float, n: int) -> int:
    """1-based rank of the pct-th percentile among n samples."""
    return min(n, max(1, math.ceil(round(pct * n / 100, 9))))


def percentile(values, pct: float):
    """Nearest-rank percentile; 0 for no samples."""
    vals = sorted(values)
    return vals[nearest_rank(pct, len(vals)) - 1] if vals else 0


def _iv(v):
    """Seed entries may be ints or intervals."""
    return (v, v) if isinstance(v, int) else (v.lo, v.hi)


def make_tracer(clock) -> Tracer:
    """A tracer on ``clock`` whose probes tag the spans the ratios need."""
    from bwb.hodge import SPECIAL_SERIES

    seen_chases: set = set()

    def narrowed(args, kwargs, result, error):
        if error is not None:
            return None
        seed = args[1] if len(args) > 1 else kwargs["target_seed"]
        return int(any(_iv(iv) != (_iv(seed[q]) if q in seed else (0, None))
                       for q, iv in enumerate(result)))

    def repeat(args, kwargs, result, error):
        space, cuts, p, down = args[:4]
        seed = args[4] if len(args) > 4 else kwargs.get("seed")
        key = (space.name, cuts, p, down,
               tuple(sorted((q, _iv(v)) for q, v in (seed or {}).items())))
        hit = key in seen_chases
        seen_chases.add(key)
        return int(hit)

    def table_shape(args, kwargs, result, error):
        spec = args[0]
        series = (spec.ambient.name in SPECIAL_SERIES
                  and spec.branch_degree is None
                  and all(c == spec.ambient.ample for c in spec.cut_degrees))
        return (spec.dim + 1, series)

    def rejected(args, kwargs, result, error):
        return int(isinstance(error, ValueError))

    return Tracer(clock=clock, probes={
        "chase.solve_exact_complex": narrowed,
        "hodge.chase_section_forms": repeat,
        "hodge.hodge_table": table_shape,
        "jacring.steenbrink_hodge": rejected,
    })


def layer_metrics(tracer: Tracer, mods, slowdown: float = 1.0) -> dict[str, float]:
    """Every PER_LAYER metric from a finished traced run; times are divided
    by the run's ``slowdown`` (see ``speed.py``)."""
    summary = tracer.summary()
    out = {name: 0 for name in PER_LAYER}
    ns_to_s = 1e-9 / slowdown

    for span, st in summary.items():
        for stat, value in (("calls", st["calls"]), ("self_s", st["self_ns"] * ns_to_s)):
            if f"{span}.{stat}" in out:
                out[f"{span}.{stat}"] = value

    for prefix, (module, attr) in CACHES.items():
        info = getattr(getattr(mods, module), attr).cache_info()
        total = info.hits + info.misses
        out[f"{prefix}.hit_ratio"] = info.hits / total if total else 0.0

    durations = summary.get("chase.solve_exact_complex", {}).get("durations_ns", [])
    out["chase.solve_exact_complex.p50_ms"] = percentile(durations, 50) * ns_to_s * 1e3
    pct, value = tail(durations)
    out["chase.solve_exact_complex.tail_pct"] = pct
    out["chase.solve_exact_complex.tail_ms"] = value * ns_to_s * 1e3

    # ratio metric -> the span whose 0/1 tags it averages
    flags = {"chase.solve_exact_complex.narrowed_ratio": "chase.solve_exact_complex",
             "hodge.chase_section_forms.repeat_ratio": "hodge.chase_section_forms",
             "jacring.steenbrink_hodge.reject_ratio": "jacring.steenbrink_hodge"}
    tags: dict[str, list] = {span: [] for span in flags.values()}
    per_table_chases: dict[int, int] = {}
    records = list(tracer.records())
    for name, _s, _e, parent, tag in records:
        if name in tags and tag is not None:
            tags[name].append(tag)
        if name == "hodge.chase_section_forms" and parent >= 0 \
                and records[parent][0] == "hodge.hodge_table":
            per_table_chases[parent] = per_table_chases.get(parent, 0) + 1
            if records[parent][4][1]:  # a series section
                out["hodge.chase_section_forms.series_calls"] += 1
                out["hodge.chase_section_forms.series_repeats"] += tag
    out["hodge.hodge_table.rounds"] = sum(
        calls / records[idx][4][0] for idx, calls in per_table_chases.items())
    for metric, span in flags.items():
        out[metric] = sum(tags[span]) / len(tags[span]) if tags[span] else 0.0
    return out
