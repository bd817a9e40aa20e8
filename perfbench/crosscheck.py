"""Cross-check the tracer's solver time against cProfile.

Usage, from the root of a checkout::

    python3 perfbench/crosscheck.py --workload table1 --seed 0

Runs one workload command in this process with the span tracer installed
and ``cProfile`` enabled, then prints ``solvers.solve_s`` from the spans
beside the cumulative time ``pstats`` gives for ``isodag.solvers.lse_fit``.
Both clocks see the same profiled run, so the two should agree to within the
wrapper's own cost.  cProfile sees only the thread that starts it, so the
check needs a single-threaded workload with solver calls: ``table1``.
"""

import argparse
import contextlib
import cProfile
import io
import pstats
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import isodag.cli  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    workload = workloads()[args.workload]
    tracer = Tracer()
    tracer.install()
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = profile.runcall(isodag.cli.main, workload.argv(args.seed, Path(tmp)))
    tracer.uninstall()
    stats = pstats.Stats(profile).stats
    cumulative = sum(entry[3] for (path, _, name), entry in stats.items()
                     if name == "lse_fit" and path.endswith("solvers.py"))
    spans = tracer.metrics()["solvers.solve_s"][0]
    print(f"{args.workload} seed {args.seed}: exit {rc}, solvers.solve_s {spans:.4f} s, "
          f"cProfile cumulative lse_fit {cumulative:.4f} s, "
          f"ratio {spans / cumulative if cumulative else float('nan'):.4f}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
