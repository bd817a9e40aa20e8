"""Regenerate the stored reference outputs the benchmark checks against.

Usage, from the root of a checkout::

    python3 perfbench/make_refs.py full     # or: tiny

Runs every workload once at every seed in ``run.REF_SEEDS``, untraced, and
writes ``perfbench/refs/<size>.json``.  Regenerate only when a change is
meant to alter isodag's outputs, and say so where the change is described.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
from run import HERE, REF_SEEDS, invoke  # noqa: E402
from workloads import workloads  # noqa: E402


def main() -> int:
    size = sys.argv[1]
    refs = {}
    for name, workload in workloads(size).items():
        refs[name] = {}
        for seed in REF_SEEDS:
            with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
                work = Path(tmp)
                result = invoke(workload.argv(seed, work), False, False, 600.0)
                if result["rc"] != 0:
                    raise SystemExit(f"{name} seed {seed} failed: {result}")
                cells = workload.cells(result["stdout"], work)
            if not cells or not all(math.isfinite(v) for c in cells.values()
                                    for v in c.values()):
                raise SystemExit(f"{name} seed {seed}: empty or non-finite cells {cells}")
            refs[name][str(seed)] = cells
            print(f"{name} seed {seed}: {len(cells)} cells, {result['wall_s']:.2f} s",
                  flush=True)
    (HERE / "refs").mkdir(exist_ok=True)
    with open(HERE / "refs" / f"{size}.json", "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
