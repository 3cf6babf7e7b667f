"""Write the golden outputs the workload checks compare against.

    python3 bench/make_golden.py

Run it only at a commit whose outputs are known to be right; the goldens in
``golden/`` were written at the seed commit, where ``bwb verify`` reports
"149 cells: 145 match, 4 mismatch; 4 documented discrepancies,
0 undocumented".
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import GOLDEN_DIR, WORKLOADS, Modules, rows_digest  # noqa: E402


def main() -> int:
    mods = Modules()
    cat = mods.catalog.load_catalog()
    os.makedirs(GOLDEN_DIR, exist_ok=True)

    def produce(name):
        w = WORKLOADS[name]
        return w.run(mods, cat, w.inputs(0, cat))[0]

    out = produce("verify")
    if out["code"] != 0:
        raise SystemExit(f"bwb verify exited {out['code']}; not writing goldens")
    with open(os.path.join(GOLDEN_DIR, "verify.txt"), "w", encoding="utf-8") as fh:
        fh.write(out["stdout"])
    tables = produce("sections")["tables"]
    with open(os.path.join(GOLDEN_DIR, "sections.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(tables[k])}"
                                     for k in sorted(tables)) + "\n}\n")
    rows = produce("jacring-scan")
    with open(os.path.join(GOLDEN_DIR, "jacring.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": list(WORKLOADS["jacring-scan"].inputs(0, cat)),
                   "rows": len(rows), "digest": rows_digest(rows)}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
