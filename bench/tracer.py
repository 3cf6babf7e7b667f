"""Outside-in span tracer for the ``bwb`` layers.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` replaces a
public function by a timing wrapper in every namespace that *calls* it: each
``bwb`` module (and the ``bwb`` package itself) whose attribute is the same
object as the function.  That is the name a caller looks up at call time, so
``hodge``'s own binding of ``solve_exact_complex`` gets wrapped, not just
``chase``'s.  :meth:`Tracer.restore` puts every original back, so the timed
(untraced) runs never go through a wrapper.

Spans are kept in memory as flat integer records (name, start, end, parent)
and written out once, when the run ends.  ``self`` time is a span's duration
minus the time its direct child spans cover; with one thread, children nest
inside their parent, so that is a plain subtraction.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (module, function) pairs whose calls become spans.  The module is where
# the function is defined; callers are found by identity.
TARGETS = (
    ("bwb.rootsys", "to_dominant"),
    ("bwb.rootsys", "weyl_dim"),
    ("bwb.bott", "bott"),
    ("bwb.bott", "forms_cohomology"),
    ("bwb.bott", "kostant_forms"),
    ("bwb.bott", "sequence_cohomology"),
    ("bwb.bott", "spinor_sequence_cohomology"),
    ("bwb.chase", "solve_exact_complex"),
    ("bwb.chase", "ses_middle"),
    ("bwb.hodge", "restricted_forms"),
    ("bwb.hodge", "chase_section_forms"),
    ("bwb.hodge", "hodge_table"),
    ("bwb.hodge", "section_hodge"),
    ("bwb.hodge", "double_cover_hodge"),
    ("bwb.hodge", "lemma_van_scan"),
    ("bwb.jacring", "steenbrink_hodge"),
    ("bwb.jacring", "weighted_cy_scan"),
    ("bwb.report", "run_verify"),
    ("bwb.report", "render_cells"),
    ("bwb.catalog", "load_catalog"),
)

_FIELDS = 4  # name id, start ns, end ns, parent span index (-1 at the root)


def span_name(module: str, func: str) -> str:
    return f"{module.removeprefix('bwb.')}.{func}"


class Tracer:
    """Records one span per call of every wrapped function.

    ``probes`` maps a span name to ``probe(args, kwargs, result, error)``,
    called after the wrapped function returns or raises; whatever it returns
    (other than None) is stored as the span's tag.  Probes run outside the span's
    interval, so their cost is not charged to any layer.
    """

    def __init__(self, probes=None, clock=time.perf_counter_ns):
        self.names: list[str] = []
        self.spans = array("q")
        self.tags: dict[int, object] = {}
        self.probes = dict(probes or {})
        self.clock = clock
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, self.clock
        probe = self.probes.get(name)

        def traced(*args, **kwargs):
            idx = len(spans) // _FIELDS
            spans.extend((name_id, 0, 0, stack[-1] if stack else -1))
            stack.append(idx)
            error = None
            result = None
            spans[idx * _FIELDS + 1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                spans[idx * _FIELDS + 2] = clock()
                stack.pop()
                if probe is not None:
                    tag = probe(args, kwargs, result, error)
                    if tag is not None:
                        self.tags[idx] = tag

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------- patching

    def install(self, targets=TARGETS) -> None:
        """Wrap every target in every ``bwb`` namespace that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "bwb" or n.startswith("bwb."))]
        for module_name, func in targets:
            original = getattr(importlib.import_module(module_name), func)
            wrapper = self.wrap(span_name(module_name, func), original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, attr, original))
                        setattr(ns, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patched)

    # ------------------------------------------------------------- analysis

    def records(self):
        """(name, start_ns, end_ns, parent, tag) per span, in call order."""
        s, names = self.spans, self.names
        for i in range(len(s) // _FIELDS):
            b = i * _FIELDS
            yield names[s[b]], s[b + 1], s[b + 2], s[b + 3], self.tags.get(i)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, durations."""
        s = self.spans
        n = len(s) // _FIELDS
        child_ns = [0] * n
        for i in range(n):
            parent = s[i * _FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += s[i * _FIELDS + 2] - s[i * _FIELDS + 1]
        out: dict[str, dict] = {}
        for i in range(n):
            b = i * _FIELDS
            dur = s[b + 2] - s[b + 1]
            st = out.setdefault(self.names[s[b]],
                                {"calls": 0, "total_ns": 0, "self_ns": 0,
                                 "durations_ns": []})
            st["calls"] += 1
            st["total_ns"] += dur
            st["self_ns"] += dur - child_ns[i]
            st["durations_ns"].append(dur)
        return out

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\ttag\n")
            for i, (name, start, end, parent, tag) in enumerate(self.records()):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t"
                         f"{'' if tag is None else tag}\n")
