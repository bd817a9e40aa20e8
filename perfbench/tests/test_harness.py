"""Smoke tests of the benchmark harness at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, _covered  # noqa: E402
from workloads import RTOL, check_cells  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _snapshot() -> dict:
    """Every file of the checkout outside the benchmark's paths, with its
    modification time and size."""
    skip = {ROOT / ".git", *(ROOT / p for p in SPEC["paths"])}
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if Path(dirpath, d) not in skip]
        for name in filenames:
            st = os.stat(Path(dirpath, name))
            files[str(Path(dirpath, name))] = (st.st_mtime_ns, st.st_size)
    return files


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    before = _snapshot()
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert _snapshot() == before, "the harness wrote outside its own paths"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert "failed_frac" in proc.stdout
        for name in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_check_catches_wrong_outputs():
    refs = json.loads((HERE / "refs" / "full.json").read_text())
    for name in WORKLOADS:
        ref0, ref1 = refs[name]["0"], refs[name]["1"]
        assert check_cells(ref0, ref0) == []
        assert check_cells(None, ref0) == list(ref0)
        # another seed's outputs, as a wrong seed-to-stream mapping gives them;
        # an antichain mean is coarse enough that one cell may coincide
        wrong = check_cells(ref1, ref0)
        assert wrong == list(ref0) or (name == "antichain-random" and wrong)
        nudged = {c: {k: v * (1 + RTOL / 10) for k, v in f.items()} for c, f in ref0.items()}
        assert check_cells(nudged, ref0) == []
        cell = sorted(ref0)[0]
        for bad in (float("nan"), ref0[cell][sorted(ref0[cell])[0]] * (1 + 10 * RTOL) + 1e-9):
            off = {c: dict(f) for c, f in ref0.items()}
            off[cell][sorted(ref0[cell])[0]] = bad
            assert check_cells(off, ref0) == [cell]


def test_spans_nest_per_thread_and_children_cover_their_union():
    tracer = Tracer()

    def leaf():
        time.sleep(0.1)

    traced_leaf = tracer._wrap(leaf, "solvers", ())

    def sweep():
        threads = [threading.Thread(target=traced_leaf) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()

    tracer.call(sweep, "experiments")
    root = next(s for s in tracer.spans if s.name == "sweep")
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 2 and len({s.thread for s in leaves}) == 2
    assert all(s.parent == root.sid for s in leaves)
    # the leaves overlap, so together they cover about one sleep, not two
    assert 0.09 <= _covered(root, leaves) < 0.19
