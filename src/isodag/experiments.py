"""Seeded risk sweeps, rate fitting, and report emission.

A sweep runs the least-squares isotonic fit over a grid of sample sizes,
replicating each size across independent noise streams, and reports mean
empirical risk with its Monte Carlo standard error.  Every fit is the exact
projection ``lse_fit(dag, y)``; which solver computes it is decided in
:mod:`isodag.solvers` alone.  Reports serialize to CSV (fixed column order)
or JSON (with a config echo); identical configs produce byte-identical
files because every replicate owns a dedicated stream and replicates run,
and aggregate, in ascending stream order.  The ``threads`` setting is
accepted and echoed but changes nothing: the solves are Python-bound, so a
thread pool only contended for the interpreter lock.
"""

from __future__ import annotations

import csv
import importlib.metadata
import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from .complexity import BoundParams, bound_eval, harmonic_sum, noise_stream, statdim_mc
from .design import DesignSampler, FittedFunction, draw_design, l2p_risk_mc
from .orders import (Dag, LatticeSpec, build_design_dag, build_lattice,
                     merge_duplicates)
from .signals import SignalSpec, generate_signal
from .solvers import lse_fit

try:
    _VERSION = importlib.metadata.version("isodag")
except importlib.metadata.PackageNotFoundError:  # running from a checkout
    _VERSION = "0.1.0"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep, including the seed.

    ``n_grid`` holds total vertex counts and must be strictly increasing;
    for lattice designs each entry must be a perfect ``d``-th power.  The
    signal is a :class:`SignalSpec` for lattice designs, a callable
    ``f0(points) -> values`` for random designs, or ``None`` for the zero
    signal in either case.  ``threads`` is validated and echoed, but
    replicates always run in order on the calling thread.
    """

    experiment: str
    d: int
    n_grid: tuple[int, ...]
    signal: SignalSpec | Callable | None = None
    design: str = "lattice"
    sampler: DesignSampler | None = None
    replicates: int = 200
    mc_points: int = 0
    seed: int = 0
    threads: int = 1
    out_path: str | None = None

    def __post_init__(self):
        if not self.experiment:
            raise ValueError("experiment name must be nonempty")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        grid = tuple(int(n) for n in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ValueError("n_grid must be nonempty, positive, strictly increasing")
        object.__setattr__(self, "n_grid", grid)
        if self.design not in ("lattice", "random"):
            raise ValueError("design must be 'lattice' or 'random'")
        if self.replicates < 2:
            raise ValueError("replicates must be >= 2 for stderr output")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.mc_points < 0 or self.mc_points == 1:
            raise ValueError("mc_points must be 0 (no population risk) or >= 2")

    def to_dict(self) -> dict:
        """JSON-ready echo of the configuration."""
        if self.signal is None:
            sig = None
        elif isinstance(self.signal, SignalSpec):
            sig = {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in asdict(self.signal).items() if v is not None}
        else:
            sig = getattr(self.signal, "__name__", "custom")
        samp = None
        if self.sampler is not None:
            samp = {"d": self.sampler.d, "level": self.sampler.level,
                    "cell_values": list(self.sampler.cell_values),
                    "m0": self.sampler.m0, "M0": self.sampler.M0}
        return {"experiment": self.experiment, "d": self.d,
                "n_grid": list(self.n_grid), "signal": sig, "design": self.design,
                "sampler": samp, "replicates": self.replicates,
                "mc_points": self.mc_points, "seed": self.seed,
                "threads": self.threads, "out_path": self.out_path}


@dataclass(frozen=True)
class RiskRow:
    """One sweep configuration's aggregated result."""

    experiment: str
    d: int
    n: int
    replicates: int
    seed: int
    risk_mean: float
    risk_stderr: float
    statdim_mean: float | None
    bound_C1: float
    slope_fit: float | None


RISK_COLUMNS = tuple(f.name for f in fields(RiskRow))


@dataclass
class RiskReport:
    """Sweep rows plus the config echo they were produced from."""

    config: dict
    rows: list[RiskRow]
    notes: dict = field(default_factory=dict, compare=False)


def _aggregate_rows(config: ExperimentConfig, per_n: list[tuple[int, np.ndarray, float | None]],
                    bound_name: str) -> list[RiskRow]:
    """Turn per-size replicate arrays into rows, fitting a common log-log
    slope when at least three sizes produced positive finite risks."""
    params = BoundParams(d=config.d)
    means = {}
    stderrs = {}
    statdims = {}
    for n, qs, statdim_flag in per_n:
        m = float(np.mean(qs))
        means[n] = m / n
        stderrs[n] = float(np.std(qs, ddof=1) / math.sqrt(qs.size)) / n
        statdims[n] = m if statdim_flag else None
    slope = None
    pts = [(n, means[n]) for n in means
           if math.isfinite(means[n]) and means[n] > 0.0]
    if len({n for n, _ in pts}) >= 3:
        slope = fit_rate_exponent(pts)[0]
    return [RiskRow(experiment=config.experiment, d=config.d, n=n,
                    replicates=config.replicates, seed=config.seed,
                    risk_mean=means[n], risk_stderr=stderrs[n],
                    statdim_mean=statdims[n],
                    bound_C1=bound_eval(bound_name, params, n), slope_fit=slope)
            for n, _, _ in per_n]


def lattice_side(n: int, d: int) -> int:
    """The integer ``n1`` with ``n1**d == n``; raises otherwise."""
    n1 = round(n ** (1.0 / d))
    for cand in (n1 - 1, n1, n1 + 1):
        if cand >= 1 and cand ** d == n:
            return cand
    raise ValueError(f"n={n} is not a perfect {d}-th power")


def run_fixed_sweep(config: ExperimentConfig) -> RiskReport:
    """Lattice-design risk sweep.

    Replicate ``r`` of grid entry ``j`` draws its noise from stream
    ``j * replicates + r``; with the zero signal it computes exactly the
    same squared projection norms as ``statdim_mc`` on those streams, and
    the row's ``statdim_mean`` then holds that replicate mean, with
    ``risk_mean = statdim_mean / n`` by a single division.

    The streams are keyed by position in ``n_grid``, not by ``n``, so a
    size's row depends on the sizes before it: the same ``(seed, n,
    replicates)`` cell draws different noise in ``n_grid=(729,)`` and in
    ``n_grid=(64, 729)``.  Keying by ``n`` would change every sweep's bytes.
    """
    if config.design != "lattice":
        raise ValueError("run_fixed_sweep requires a lattice design")
    if config.signal is not None and not isinstance(config.signal, SignalSpec):
        raise ValueError("lattice sweeps take a SignalSpec (or None) signal")
    per_n = []
    for j, n in enumerate(config.n_grid):
        n1 = lattice_side(n, config.d)
        spec = LatticeSpec((n1,) * config.d)
        dag = build_lattice(spec)
        w = dag.weights()
        if config.signal is None:
            theta0 = np.zeros(n)
        else:
            theta0 = generate_signal(config.signal, spec)
        is_zero = not np.any(theta0)
        base = j * config.replicates

        def worker(r: int, dag: Dag = dag, w=w, theta0=theta0, n=n, base=base) -> float:
            eps = noise_stream(config.seed, base + r).standard_normal(n)
            y = theta0 + eps
            res = lse_fit(dag, y)
            diff = res.theta_hat - theta0
            return float(np.dot(w * diff, diff))

        qs = np.array([worker(r) for r in range(config.replicates)])
        per_n.append((n, qs, is_zero))
    return RiskReport(config=config.to_dict(),
                      rows=_aggregate_rows(config, per_n, "worst_fixed"))


_L2P_STREAM_OFFSET = 1_000_000_000


def run_random_sweep(config: ExperimentConfig) -> RiskReport:
    """Random-design risk sweep against the sampler's density.

    Each replicate owns one stream and uses it for the design draw first,
    then the noise, so the pair ``(X, eps)`` is a deterministic function of
    ``(seed, stream)``.  Risk is empirical: the multiplicity-weighted mean
    squared error of the fitted vector against ``f0`` at the design points.

    With ``mc_points > 0`` each replicate additionally integrates the
    squared error of the increasing extension under the sampler's density
    (``mc_points`` fresh draws on stream ``10**9 + j*replicates + r``, far
    above any design/noise stream).  Per-size means and standard errors of
    those integrals land in ``report.notes["l2p"]``, keyed by ``str(n)``;
    the CSV schema is unchanged.  Streams are keyed as in
    :func:`run_fixed_sweep`.
    """
    if config.design != "random":
        raise ValueError("run_random_sweep requires a random design")
    if config.signal is not None and isinstance(config.signal, SignalSpec):
        raise ValueError("random sweeps take a callable (or None) signal")
    sampler = config.sampler or DesignSampler.uniform(config.d)
    if sampler.d != config.d:
        raise ValueError("sampler dimension mismatch")
    f0 = config.signal
    truth = f0 if f0 is not None else (lambda pts: np.zeros(len(pts)))
    per_n = []
    l2p_notes = {}
    for j, n in enumerate(config.n_grid):
        base = j * config.replicates
        l2ps = np.full(config.replicates, math.nan) if config.mc_points else None

        def worker(r: int, n=n, base=base, l2ps=l2ps) -> float:
            rng = noise_stream(config.seed, base + r)
            X = draw_design(rng, sampler, n)
            fvals = np.zeros(n) if f0 is None else np.asarray(f0(X), dtype=float)
            y = fvals + rng.standard_normal(n)
            dag = build_design_dag(X)
            firsts, inverse = merge_duplicates(X)
            w = dag.weights()
            ybar = np.bincount(inverse, weights=y) / w
            res = lse_fit(dag, ybar)
            if l2ps is not None:
                fit = FittedFunction.from_fit(X[firsts], res.theta_hat)
                l2ps[r] = l2p_risk_mc(fit, truth, sampler, config.mc_points,
                                      config.seed,
                                      _L2P_STREAM_OFFSET + base + r).mean
            diff = res.theta_hat - fvals[firsts]
            return float(np.dot(w * diff, diff))

        qs = np.array([worker(r) for r in range(config.replicates)])
        per_n.append((n, qs, None))
        if l2ps is not None:
            l2p_notes[str(n)] = {
                "mean": float(np.mean(l2ps)),
                "stderr": float(np.std(l2ps, ddof=1) / math.sqrt(l2ps.size)),
                "mc_points": config.mc_points}
    notes = {"l2p": l2p_notes} if l2p_notes else {}
    return RiskReport(config=config.to_dict(),
                      rows=_aggregate_rows(config, per_n, "worst_random"),
                      notes=notes)


def fit_rate_exponent(rows) -> tuple[float, float]:
    """OLS slope (with standard error) of ``log(risk)`` on ``log(n)``.

    ``rows`` holds :class:`RiskRow` objects or bare ``(n, risk)`` pairs.
    Needs at least three distinct ``n`` values and strictly positive risks.
    The standard error is 0 when the fit is exact; with exactly three
    points it uses the single residual degree of freedom.
    """
    pairs = [(float(r.n), float(r.risk_mean)) if isinstance(r, RiskRow)
             else (float(r[0]), float(r[1])) for r in rows]
    if len({n for n, _ in pairs}) < 3:
        raise ValueError("need at least 3 distinct n values")
    if any(r <= 0.0 for _, r in pairs):
        raise ValueError("risks must be positive for a log-log fit")
    x = np.log([n for n, _ in pairs])
    y = np.log([r for _, r in pairs])
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    slope = float(np.dot(xc, y) / sxx)
    resid = y - y.mean() - slope * xc
    dof = len(pairs) - 2
    if dof <= 0:
        return slope, 0.0
    stderr = math.sqrt(max(0.0, float(np.dot(resid, resid))) / dof / sxx)
    return slope, stderr


# ---------------------------------------------------------------------------
# report emission


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: RiskReport, format: str, path: str) -> str:
    """Write the report to ``path`` as ``csv`` or ``json``; returns the path.

    CSV columns follow :data:`RISK_COLUMNS` exactly, floats are written in
    shortest round-trip form, ``None`` cells are empty, and the file ends
    with a newline.  JSON wraps the rows with the config echo, the package
    version, and — when present — the report's ``notes`` block.
    """
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RISK_COLUMNS)
            for row in report.rows:
                writer.writerow([_cell(getattr(row, c)) for c in RISK_COLUMNS])
    elif format == "json":
        payload = {"config": report.config, "rows": [asdict(r) for r in report.rows],
                   "version": _VERSION}
        if report.notes:
            payload["notes"] = report.notes
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError("format must be 'csv' or 'json'")
    return path


def read_report(path: str, format: str | None = None) -> RiskReport:
    """Read a report back; ``format`` defaults to the file suffix.

    CSV carries no config, so the echo comes back empty; JSON round-trips
    both rows and config exactly.
    """
    if format is None:
        format = "json" if str(path).endswith(".json") else "csv"
    if format == "json":
        with open(path) as fh:
            payload = json.load(fh)
        rows = [RiskRow(**r) for r in payload["rows"]]
        return RiskReport(config=payload["config"], rows=rows,
                          notes=payload.get("notes", {}))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RISK_COLUMNS:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = []
        for rec in reader:
            vals = dict(zip(RISK_COLUMNS, rec))
            rows.append(RiskRow(
                experiment=vals["experiment"], d=int(vals["d"]), n=int(vals["n"]),
                replicates=int(vals["replicates"]), seed=int(vals["seed"]),
                risk_mean=float(vals["risk_mean"]),
                risk_stderr=float(vals["risk_stderr"]),
                statdim_mean=None if vals["statdim_mean"] == "" else float(vals["statdim_mean"]),
                bound_C1=float(vals["bound_C1"]),
                slope_fit=None if vals["slope_fit"] == "" else float(vals["slope_fit"])))
        return RiskReport(config={}, rows=rows)


# ---------------------------------------------------------------------------
# statistical-dimension summary table


@dataclass(frozen=True)
class Table1Row:
    """One cell of the statistical-dimension summary: a Monte Carlo
    estimate with the exact harmonic-sum reference in dimension one."""

    d: int
    n: int
    statdim_mean: float
    statdim_stderr: float
    reference: float | None


TABLE1_GRIDS: dict[int, tuple[int, ...]] = {
    1: (2, 4, 8, 16, 64),
    2: (4, 16, 64, 256),
    3: (27, 64, 125, 216, 343, 512),
}


def table1(replicates: int = 500, seed: int = 0, dims: tuple[int, ...] = (1, 2, 3)
           ) -> tuple[list[Table1Row], tuple[float, float] | None]:
    """Statistical dimension of the monotone cone across dimensions.

    Returns the rows plus, when dimension three is included, the fitted
    log-log growth slope of the d=3 column (target shape ``n**(1/3)`` up
    to poly-log factors).  Cell ``i`` (in listing order) uses streams
    ``i*replicates .. (i+1)*replicates - 1``.
    """
    rows = []
    cell = 0
    for d in dims:
        for n in TABLE1_GRIDS[d]:
            n1 = lattice_side(n, d)
            dag = build_lattice(LatticeSpec((n1,) * d))
            est = statdim_mc(dag, replicates, seed, stream_id=cell * replicates)
            ref = harmonic_sum(n) if d == 1 else None
            rows.append(Table1Row(d=d, n=n, statdim_mean=est.mean,
                                  statdim_stderr=est.stderr, reference=ref))
            cell += 1
    slope = None
    d3 = [(row.n, row.statdim_mean) for row in rows if row.d == 3]
    if len(d3) >= 3:
        slope = fit_rate_exponent(d3)
    return rows, slope
