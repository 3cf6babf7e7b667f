"""One fresh interpreter: import ``bwb``, load the catalog, run one workload
(or stop after set-up), check the outputs, print one JSON line.

Usage (``run.py`` starts it; ``--spawn-ns`` is the parent's monotonic clock
just before the start, so set-up time includes interpreter start-up):

    python3 -I bench/child.py --workload W --seed N --spawn-ns T
                              [--setup-only] [--no-oracles]
                              [--trace SPANS.tsv.gz]

The clock stops when the workload's last call returns; the correctness
checks that follow are not timed.  ``time.monotonic_ns`` is one clock for
every process of the machine, so the child can stamp times against the
parent's start mark.  Times are reported raw (``*_raw_s``) and at nominal
machine speed (see ``speed.py``), with the probe's own time left out.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

SETUP_SAMPLES = 10  # probe samples before and after set-up, to rate its speed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--no-oracles", action="store_true")
    ap.add_argument("--trace", metavar="PATH")
    args = ap.parse_args()

    from speed import SpeedProbe
    probe = SpeedProbe()
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    probe.start()

    from workloads import WORKLOADS, Modules

    mods = Modules()  # imports bwb: part of set-up
    tracer = None
    if args.trace:
        from layers import make_tracer
        tracer = make_tracer(clock=probe.clock)
        tracer.install()
    cat = mods.catalog.load_catalog()
    ready_ns = time.monotonic_ns()
    setup_busy_ns = probe.busy_ns  # probe time inside set-up, left out
    for _ in range(SETUP_SAMPLES):
        probe.sample()
    setup_slowdown = probe.slowdown()
    first_run_sample = len(probe.samples)
    setup_raw_s = (ready_ns - args.spawn_ns) / 1e9
    result = {"setup_raw_s": setup_raw_s, "setup_slowdown": setup_slowdown,
              "setup_s": (setup_raw_s - setup_busy_ns / 1e9) / setup_slowdown}
    if args.setup_only:
        probe.stop()
        if tracer is not None:
            tracer.restore()
        print(json.dumps(result))
        return 0

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, cat)
    try:
        outputs, item_ns = workload.run(mods, cat, inputs, clock=probe.clock)
        error = None
    except Exception as exc:  # the program raised: a failed output
        outputs, item_ns, error = None, [], exc
    done_ns = time.monotonic_ns()
    cpu_raw_s = time.process_time()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe.stop()
    slowdown = probe.slowdown(first=first_run_sample)
    probe_s = probe.busy_ns / 1e9
    wall_raw_s = (done_ns - args.spawn_ns) / 1e9

    if tracer is not None:
        tracer.restore()
        from layers import layer_metrics
        result["layers"] = layer_metrics(tracer, mods, slowdown)
        tracer.dump(args.trace)

    if error is not None:
        attempted, failures = 1, [f"workload raised {error!r}"]
    else:
        try:
            attempted, failures = workload.check(mods, cat, outputs,
                                                 oracles=not args.no_oracles)
        except Exception as exc:  # a crashing check is one failed output
            attempted, failures = 1, [f"check raised {exc!r}"]
    result.update({
        "wall_raw_s": wall_raw_s,
        "cpu_raw_s": cpu_raw_s,
        "slowdown": slowdown,
        "probe_samples": len(probe.samples),
        "wall_s": (wall_raw_s - probe_s) / slowdown,
        "cpu_s": (cpu_raw_s - probe_s) / slowdown,
        "peak_rss_mb": peak_kb / 1024,
        "item_ns": [ns / slowdown for ns in item_ns],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
