"""isodag benchmark: run one workload through the real CLI and report metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each command runs in a fresh interpreter (``child.py``) that imports isodag
from the checkout's ``src``.  Commands repeat until ``--seconds`` is spent;
command ``i`` of a run uses reference seed ``order[i]`` of a permutation of
``REF_SEEDS`` drawn from ``--seed``, and its outputs are checked against the
stored references for that seed (``refs/<size>.json``).

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
commands); with ``--trace 1`` every command runs twice, untraced and then
traced, and the metrics are the per-layer medians plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
from workloads import check_cells, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REF_SEEDS = range(32)
DEADLINE_S = 170.0   # a run must end within 180 s

# End-to-end metrics measured per command; the run reports their medians.
COMMAND_METRICS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def invoke(argv: list[str], trace: bool, record: bool, timeout: float) -> dict:
    """Run one isodag command in a fresh interpreter; the child's JSON result,
    or ``{"rc": None, ...}`` when it crashed or timed out."""
    spec = {"src": str(ROOT / "src"), "argv": argv, "trace": trace, "record": record}
    spec["spawned"] = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"rc": None, "error": proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _outputs_digest(result: dict, work: Path) -> str:
    """Hash of the command's standard output and every file it wrote."""
    h = hashlib.sha256(result.get("stdout", "").encode())
    for path in sorted(work.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(seed: int) -> dict:
    rev = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_rev": rev, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "seed": seed, "machine_settings": "unchanged: the benchmark sets no kernel, "
            "cgroup, CPU frequency or affinity setting"}


class WorkloadRun:
    """The commands of one workload within one run, and their checks."""

    def __init__(self, name: str, size: str, seed: int, trace: bool, references: dict):
        self.workload = workloads(size)[name]
        self.references = references
        self.trace = trace
        self.seeds = random.Random(seed).sample(REF_SEEDS, len(REF_SEEDS))
        self.results: list[dict] = []      # untraced commands
        self.traced: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.environment = None

    def _check(self, result: dict, cli_seed: int, work: Path) -> str | None:
        reference = self.references[str(cli_seed)]
        cells = None
        if result["rc"] == 0:
            try:
                cells = self.workload.cells(result["stdout"], work)
            except (OSError, ValueError, KeyError) as exc:
                self.errors.append(f"seed {cli_seed}: unreadable output: {exc}")
        else:
            self.errors.append(f"seed {cli_seed}: exit {result['rc']}: "
                               f"{result.get('error', '')}")
        bad = check_cells(cells, reference)
        self.attempted += len(reference)
        self.failed += len(bad)
        if bad:
            self.errors.append(f"seed {cli_seed}: failed cells {bad}")
        return _outputs_digest(result, work) if cells is not None else None

    def one(self, i: int, work: Path, deadline: float):
        """Run command ``i``; with tracing, run it untraced and then traced in
        the same directory, so that their outputs can be compared byte for byte."""
        cli_seed = self.seeds[i % len(self.seeds)]
        argv = self.workload.argv(cli_seed, work)
        digests = []
        for traced in ((False, True) if self.trace else (False,)):
            work.mkdir()
            try:
                result = invoke(argv, traced, self.environment is None,
                                max(1.0, deadline - time.monotonic()))
                self.environment = self.environment or result.get("environment")
                digests.append(self._check(result, cli_seed, work))
            finally:
                shutil.rmtree(work)
            (self.traced if traced else self.results).append(result)
        if self.trace and digests[0] != digests[1]:
            self.failed += 1
            self.errors.append(f"seed {cli_seed}: outputs differ with tracing on")

    def metrics(self) -> dict[str, tuple[float, str]]:
        ok = [r for r in self.results if r["rc"] == 0]
        if not self.trace:
            m = {k: (statistics.median(r[k] for r in ok) if ok else float("nan"), unit)
                 for k, unit in COMMAND_METRICS.items()}
            m["cells_ok_frac"] = (1.0 - self.failed / self.attempted, "ratio")
            return m
        pairs = [(u, t) for u, t in zip(self.results, self.traced)
                 if u["rc"] == 0 and t["rc"] == 0]
        names = pairs[0][1]["layers"] if pairs else {}
        m = {k: (statistics.median(t["layers"][k][0] for _, t in pairs), unit)
             for k, (_, unit) in names.items()}
        if pairs:
            m["trace.wall_s"] = (statistics.median(t["wall_s"] for _, t in pairs), "s")
            m["trace.overhead_s"] = (statistics.median(t["wall_s"] - u["wall_s"]
                                                       for u, t in pairs), "s")
        return m


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool,
                 references: dict, deadline: float) -> WorkloadRun:
    run = WorkloadRun(name, size, seed, trace, references)
    start = time.monotonic()
    last = 0.0
    i = 0
    with tempfile.TemporaryDirectory(dir=HERE, prefix="_work-") as tmp:
        # Start another command only while it is expected to end within --seconds.
        while i == 0 or time.monotonic() + last <= start + seconds:
            t0 = time.monotonic()
            run.one(i, Path(tmp) / "out", deadline)
            last = time.monotonic() - t0
            i += 1
            if run.results[-1]["rc"] is None or time.monotonic() + last > deadline:
                break
    return run


def main(argv: list[str] | None = None) -> int:
    names = list(workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "isodag" / "cli.py").is_file():
        print(f"error: no isodag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    with open(HERE / "refs" / f"{size}.json") as fh:
        references = json.load(fh)
    selected = names if args.workload == "all" else [args.workload]
    record = run_record(args.seed)
    runs = {}
    for name in selected:
        runs[name] = run = run_workload(name, size, args.seed, args.seconds,
                                        bool(args.trace), references[name], deadline)
        record.setdefault("environment", run.environment)
        print(f"workload {name}: {len(run.results)} commands, reference seeds "
              f"{run.seeds[:len(run.results)]}, {run.failed} of {run.attempted} cells failed")
        for err in run.errors:
            print(f"  ! {err}")
        for key, (value, unit) in run.metrics().items():
            print(f"  {key:<28} {value:.6g} {unit}")
        print(f"  {'wall_s of each command':<28} "
              f"{[round(r['wall_s'], 3) for r in run.results if r['rc'] == 0]}")
        if not args.trace:
            print(f"  {'failed_frac':<28} {run.failed / run.attempted:.6g} ratio")
    print("record " + json.dumps(record, sort_keys=True))
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    metrics = {}
    for name, run in runs.items():
        prefix = "" if len(runs) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in run.metrics().items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
