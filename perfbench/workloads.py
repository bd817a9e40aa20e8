"""The benchmark's workloads: the isodag command each runs, and the result
cells its outputs are checked by.

A cell is one unit of result that can fail on its own: a table1 row, a
sweep row, or an antichain output line.
Each cell is a dict of named numbers.  ``check_cells`` compares a run's
cells with the stored reference cells of the same command seed.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Relative tolerance of the reference check.  An exact projection differs
# from the stored Dykstra fits by at most 2.5e-7 in sup-norm, which moves a
# mean squared error of fitted values by at most about 2.5e-6 of itself; a
# different noise stream moves every mean by about one Monte Carlo standard
# error, which is 1e-4 to 1e-1 of the mean here.  1e-5 sits between the two.
RTOL = 1e-5

# A standard error is compared on the scale of the mean it belongs to, since
# it can be far smaller than that mean; a log-log slope on the scale of 1.
SCALE_OF = {"statdim_stderr": "statdim_mean", "risk_stderr": "risk_mean"}


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]   # (command seed, work dir) -> CLI argv
    cells: Callable[[str, Path], dict]       # (stdout, work dir) -> cells


def _table1_cells(stdout: str, work: Path) -> dict:
    with open(work / "table1.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {f"d{r['d']}_n{r['n']}": {
        "statdim_mean": float(r["statdim_mean"]),
        "statdim_stderr": float(r["statdim_stderr"]),
        **({"reference": float(r["reference"])} if r["reference"] else {})}
        for r in rows}


def _sweep_csv_cells(stdout: str, work: Path) -> dict:
    with open(work / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {f"n{r['n']}": {k: float(r[k]) for k in
                           ("risk_mean", "risk_stderr", "bound_C1", "slope_fit")}
            for r in rows}


_ANTICHAIN_LINE = re.compile(
    r"random d=\d+ n=(\d+): mean_antichain=(\S+) bound=(\S+) frac_meeting_bound=(\S+)")


def _antichain_cells(stdout: str, work: Path) -> dict:
    return {f"n{m[1]}": {"mean_antichain": float(m[2]), "bound": float(m[3]),
                         "frac_meeting_bound": float(m[4])}
            for m in _ANTICHAIN_LINE.finditer(stdout)}


# Full-size commands, and the tiny ones the smoke test runs.  --reps and
# the grids are sized so that one command takes 2-4 s on a 2-core machine
# and a 40 s run holds about ten commands; NOTES.md gives the reasons.
_SIZES = {
    "full": {"table1_reps": 10, "lattice_grid": "216,512,1000", "lattice_reps": 6,
             "antichain_grid": "500", "antichain_reps": 60},
    "tiny": {"table1_reps": 2, "lattice_grid": "8,27,64", "lattice_reps": 2,
             "antichain_grid": "40", "antichain_reps": 2},
}


def workloads(size: str = "full") -> dict[str, Workload]:
    z = _SIZES[size]
    items = [
        Workload("table1",
                 lambda s, w: ["table1", "--reps", str(z["table1_reps"]), "--seed", str(s),
                               "--out", str(w / "table1.csv")],
                 _table1_cells),
        Workload("sweep-lattice",
                 lambda s, w: ["sweep-fixed", "--d", "3", "--n-grid", z["lattice_grid"],
                               "--signal", "linear_mean", "--reps", str(z["lattice_reps"]),
                               "--threads", "2", "--seed", str(s),
                               "--out", str(w / "sweep.csv")],
                 _sweep_csv_cells),
        Workload("antichain-random",
                 lambda s, w: ["antichain", "--d", "2", "--n-grid", z["antichain_grid"],
                               "--reps", str(z["antichain_reps"]), "--seed", str(s)],
                 _antichain_cells),
    ]
    return {w.name: w for w in items}


def _close(field: str, value: float, ref: dict) -> bool:
    if not math.isfinite(value):
        return False
    scale = max(abs(ref[field]), abs(ref.get(SCALE_OF.get(field), 0.0)),
                1.0 if field == "slope_fit" else 0.0)
    return abs(value - ref[field]) <= RTOL * scale


def check_cells(cells: dict | None, reference: dict) -> list[str]:
    """Names of the reference cells that are missing from ``cells``, hold a
    non-finite value, or differ from the reference beyond ``RTOL``.  With
    ``cells=None`` (the command failed) every cell fails."""
    failed = []
    for name, ref in reference.items():
        got = (cells or {}).get(name)
        if got is None or any(k not in got or not _close(k, got[k], ref) for k in ref):
            failed.append(name)
    return failed
