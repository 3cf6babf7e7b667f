"""Benchmark of the bwb engine: four workloads, end-to-end and per layer.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (``workloads.py``): ``verify`` (the user-facing command),
``sections`` (22 small and medium Hodge tables plus four lemma scans),
``bundles`` (root systems and Bott only, no chase) and ``jacring-scan``.

Every measurement is a fresh single-threaded interpreter (``child.py``) with
cold caches, because every ``bwb`` invocation pays that cost.  Load is a
closed loop of one process: the next interpreter starts when the previous
one has exited.

``--trace 0`` measures for ``--seconds`` (and at least ``MIN_RUNS`` whole
runs): first a few set-up-only interpreters, then whole workload runs until
the time is up.  It reports, as the median over runs (quartiles and run
counts on the lines before), with times at nominal machine speed (see
``speed.py``; the raw medians are printed too):

* ``wall_s``: interpreter start to the return of the workload's last call;
* ``setup_s``: interpreter start + ``import bwb`` + ``load_catalog()``;
* ``cpu_s``: user + system CPU of the interpreter up to the same point;
* ``peak_rss_mb``: its maximum resident set size up to the same point.

``error_rate`` (failed / attempted checked outputs) is printed, and the
last line carries its parts as ``failed`` and ``attempted``.

``--trace 1`` runs the workload once untraced and once under the
outside-in tracer (``tracer.py``), and reports the per-layer metrics of
``layers.py``, ``trace.overhead_s`` (the traced minus the untraced
``wall_s``), and on ``bundles`` the latency of the untraced run's
``bott.bott`` calls on the 14,862 Schur bundles.  Spans go to
``.bench_out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full record with quartiles and run metadata
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from layers import PER_LAYER, nearest_rank, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 2  # set-up-only interpreters before each workload run
MIN_RUNS = 4      # whole workload runs per --trace 0 run, even past --seconds
HARD_LIMIT_S = 170  # the whole command must end well within 180 s


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, deadline: float, *, setup_only=False,
              oracles=True, trace_path=None) -> dict:
    """Start one interpreter, wait for it, return its JSON result."""
    child = os.path.join(HERE, "child.py")
    spawn_ns = time.monotonic_ns()
    argv = [sys.executable, "-I", child, "--workload", workload,
            "--seed", str(seed), "--spawn-ns", str(spawn_ns)]
    if setup_only:
        argv.append("--setup-only")
    if not oracles:
        argv.append("--no-oracles")
    if trace_path:
        argv += ["--trace", trace_path]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} interpreter passed the time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} interpreter exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    """(q1, median, q3) by statistics.quantiles; a single value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metadata(args, **counts) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seed_used": WORKLOADS[args.workload].seed_used, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "commit": git_commit(), "source_sha256": source_digest(), **counts,
    }


def git_commit():
    """HEAD of the checkout's own .git, if it has one (no git process)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources: identifies the code measured even
    in a checkout without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "bwb")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith((".py", ".json", ".txt")):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def measure(args, deadline) -> tuple[dict, dict]:
    """--trace 0: set-up probes and whole runs, in turn, for --seconds."""
    run_child(args.workload, args.seed, deadline, setup_only=True)  # .pyc warm-up
    start = time.monotonic()
    setups, runs = [], []
    while len(runs) < MIN_RUNS or time.monotonic() - start < args.seconds:
        last = runs[-1]["wall_raw_s"] if runs else 0
        if runs and time.monotonic() + 1.5 * last > deadline:
            break
        setups += [run_child(args.workload, args.seed, deadline, setup_only=True)
                   for _ in range(SETUP_PROBES)]
        runs.append(run_child(args.workload, args.seed, deadline,
                              oracles=not runs))
    setups += runs
    series = {name: [r[name] for r in runs]
              for name in ("wall_s", "cpu_s", "peak_rss_mb", "wall_raw_s",
                           "cpu_raw_s", "slowdown")}
    series.update({name: [r[name] for r in setups]
                   for name in ("setup_s", "setup_raw_s", "setup_slowdown")})
    stats = {name: dict(zip(("q1", "median", "q3"), quartiles(v)), n=len(v))
             for name, v in series.items()}
    counts = {"setup_runs": len(setups), "workload_runs": len(runs)}
    return stats, {"runs": runs, "counts": counts}


def traced(args, deadline) -> tuple[dict, dict]:
    """--trace 1: one untraced and one traced run of the workload."""
    os.makedirs(OUT_DIR, exist_ok=True)
    run_child(args.workload, args.seed, deadline, setup_only=True)  # .pyc warm-up
    plain = run_child(args.workload, args.seed, deadline)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tr = run_child(args.workload, args.seed, deadline, oracles=False,
                   trace_path=spans)
    stats = {name: {"median": value} for name, value in tr["layers"].items()}
    stats["trace.overhead_s"] = {"median": tr["wall_s"] - plain["wall_s"]}
    items = sorted(plain["item_ns"])
    for pct in (50, 99):
        stats[f"bott.bott.p{pct}_us"] = {
            "median": percentile(items, pct) / 1e3, "n": len(items),
            "beyond": len(items) - nearest_rank(pct, len(items)) if items else 0}
    return stats, {"runs": [plain, tr], "spans": os.path.relpath(spans, ROOT),
                   "counts": {"workload_runs": 2, "timed_bott_calls": len(items)}}


def expected_counts(workload: str) -> dict:
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh).get("exact_counts", {}).get(workload, {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "bwb", "__init__.py")):
        print(f"no bwb sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        stats, detail = (traced if args.trace else measure)(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    runs = detail["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    units = ({**PER_LAYER, "trace.overhead_s": "s"} if args.trace else END_TO_END)
    meta = metadata(args, **detail["counts"])

    for name, unit in units.items():
        st = stats[name]
        extra = ""
        if "q1" in st:
            extra = f"  (q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})"
        elif "beyond" in st:
            extra = f"  (n={st['n']}, {st['beyond']} beyond)"
        print(f"{name}: {st['median']:.6g} {unit}{extra}")
    if not args.trace:
        print("raw (not speed-adjusted): " + ", ".join(
            f"{name} {stats[name]['median']:.6g}" for name in
            ("wall_raw_s", "cpu_raw_s", "setup_raw_s", "slowdown", "setup_slowdown")))
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} "
          f"checked outputs)")
    for r in runs:
        for msg in r.get("failures", []):
            print(f"  failed: {msg}")
    if args.trace:
        for name, want in expected_counts(args.workload).items():
            got = stats[name]["median"]
            print(f"count {name}: {got} (baseline {want}: "
                  f"{'same' if got == want else 'DIFFERENT'})")
    print("meta: " + json.dumps(meta, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    record = {"meta": meta, "stats": stats, "attempted": attempted,
              "failed": failed,
              "runs": [{k: v for k, v in r.items() if k != "item_ns"} for r in runs]}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stats[name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
