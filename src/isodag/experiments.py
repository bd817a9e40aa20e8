"""Seeded risk sweeps, rate fitting, and report emission.

A sweep runs the least-squares isotonic fit over a grid of sample sizes,
replicating each size across independent noise streams, and reports mean
empirical risk with its Monte Carlo standard error.  Every fit is the exact
projection ``lse_fit(dag, y)``; which solver computes it is decided in
:mod:`isodag.solvers` alone.  A lattice sweep scores each size's replicates,
which share one order, by :func:`isodag.complexity.fit_errors`, the one
lattice replicate loop, which also gives ``statdim_mc`` its norms; a
random-design sweep draws a new order per replicate and fits each alone.
Reports serialize to CSV (fixed column order) or JSON (with a config echo);
identical configs produce byte-identical files because every replicate owns
a dedicated stream and replicates run, and aggregate, in ascending stream
order on the calling thread.  Every file the package writes goes through
:func:`write_csv` or :func:`write_json`, which hold the one float policy:
shortest round-trip ``repr``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields, is_dataclass
from typing import Callable

import numpy as np

from . import __version__
from .complexity import (BoundParams, MonteCarloEstimate, bound_eval, fit_errors,
                         harmonic_sum, mc_aggregate, noise_stream, statdim_mc)
from .design import DesignSampler, FittedFunction, draw_design, l2p_risk_mc, merge_observations
from .orders import LatticeSpec, build_lattice
from .signals import SignalSpec, generate_signal
from .solvers import lse_fit


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep, including the seed.

    ``n_grid`` holds total vertex counts and must be strictly increasing;
    for lattice designs each entry must be a perfect ``d``-th power.  The
    signal is a :class:`SignalSpec` for lattice designs, a callable
    ``f0(points) -> values`` for random designs, or ``None`` for the zero
    signal in either case.
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
        if self.mc_points < 0 or self.mc_points == 1:
            raise ValueError("mc_points must be 0 (no population risk) or >= 2")

    def to_dict(self) -> dict:
        """JSON-ready echo of the configuration: one key per field, in field order."""
        return {f.name: _echo(getattr(self, f.name)) for f in fields(self)}


def _echo(value):
    """A config value as JSON: a spec or sampler as the dict of its fields
    that are not ``None``, a tuple as a list, any other callable by name."""
    if is_dataclass(value):
        return {k: _echo(v) for k, v in asdict(value).items() if v is not None}
    if isinstance(value, tuple):
        return list(value)
    if callable(value):
        return getattr(value, "__name__", "custom")
    return value


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


def _aggregate_rows(config: ExperimentConfig, per_n: list[tuple[int, MonteCarloEstimate, bool]],
                    bound_name: str) -> list[RiskRow]:
    """Turn per-size estimates of the summed squared error into rows, fitting
    a common log-log slope when at least three sizes produced positive
    finite risks; a flagged size also reports its mean as the statdim."""
    params = BoundParams(d=config.d)
    risks = [(n, est.mean / n) for n, est, _ in per_n]
    pts = [(n, r) for n, r in risks if math.isfinite(r) and r > 0.0]
    slope = fit_rate_exponent(pts)[0] if len(pts) >= 3 else None
    return [RiskRow(experiment=config.experiment, d=config.d, n=n,
                    replicates=config.replicates, seed=config.seed,
                    risk_mean=est.mean / n, risk_stderr=est.stderr / n,
                    statdim_mean=est.mean if statdim_flag else None,
                    bound_C1=bound_eval(bound_name, params, n), slope_fit=slope)
            for n, est, statdim_flag in per_n]


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
    ``j * replicates + r``.  A size's squared errors come from
    :func:`fit_errors`, whose fits are bitwise the ones separate ``lse_fit``
    calls give, in stream order.  With the zero signal that is the call
    ``statdim_mc`` makes on those streams, so the row's ``statdim_mean``
    holds the statdim estimate, with ``risk_mean = statdim_mean / n`` by a
    single division.

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
        theta0 = 0.0 if config.signal is None else generate_signal(config.signal, spec)
        base = j * config.replicates
        qs = fit_errors(dag, theta0, config.replicates, config.seed, base)
        per_n.append((n, mc_aggregate(qs, config.seed, base), not np.any(theta0)))
    return RiskReport(config=config.to_dict(),
                      rows=_aggregate_rows(config, per_n, "worst_fixed"))


_L2P_STREAM_OFFSET = 1_000_000_000


def run_random_sweep(config: ExperimentConfig) -> RiskReport:
    """Random-design risk sweep against the sampler's density, for ``d >= 2``.

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
    if config.d < 2:
        raise ValueError("the random-design bounds define gamma only for d >= 2")
    if config.signal is not None and isinstance(config.signal, SignalSpec):
        raise ValueError("random sweeps take a callable (or None) signal")
    sampler = config.sampler or DesignSampler.uniform(config.d)
    if sampler.d != config.d:
        raise ValueError("sampler dimension mismatch")
    truth = config.signal if config.signal is not None else (lambda pts: np.zeros(len(pts)))
    per_n = []
    l2p_notes = {}
    for j, n in enumerate(config.n_grid):
        base = j * config.replicates
        qs = np.empty(config.replicates)
        l2ps = np.empty(config.replicates)
        for r in range(config.replicates):
            rng = noise_stream(config.seed, base + r)
            X = draw_design(rng, sampler, n)
            fvals = np.asarray(truth(X), dtype=float)
            y = fvals + rng.standard_normal(n)
            dag, ybar, (firsts, _) = merge_observations(X, y)
            theta = lse_fit(dag, ybar).theta_hat
            if config.mc_points:
                fit = FittedFunction.from_fit(X[firsts], theta)
                l2ps[r] = l2p_risk_mc(fit, truth, sampler, config.mc_points,
                                      config.seed,
                                      _L2P_STREAM_OFFSET + base + r).mean
            diff = theta - fvals[firsts]
            qs[r] = np.dot(dag.weights() * diff, diff)
        per_n.append((n, mc_aggregate(qs, config.seed, base), False))
        if config.mc_points:
            est = mc_aggregate(l2ps, config.seed, _L2P_STREAM_OFFSET + base)
            l2p_notes[str(n)] = {"mean": est.mean, "stderr": est.stderr,
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
    if isinstance(value, float):   # numpy floats too, written as plain floats
        return repr(float(value))
    return str(value)


def write_csv(path: str, header, rows) -> str:
    """Write ``header`` and ``rows`` as CSV lines ending in ``\\n``; returns the path.

    Floats are written in shortest round-trip form (``repr(float(v))``) and
    ``None`` cells are empty.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)
    return path


def write_json(path: str, payload: dict) -> str:
    """Write ``payload`` as JSON indented by 2 with a final newline; returns the path."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return path


def emit_report(report: RiskReport, format: str, path: str) -> str:
    """Write the report to ``path`` as ``csv`` or ``json``; returns the path.

    CSV columns follow :data:`RISK_COLUMNS` exactly.  JSON wraps the rows
    with the config echo, the package version, and — when present — the
    report's ``notes`` block.
    """
    if format == "csv":
        return write_csv(path, RISK_COLUMNS, map(astuple, report.rows))
    if format == "json":
        payload = {"config": report.config, "rows": [asdict(r) for r in report.rows],
                   "version": __version__}
        if report.notes:
            payload["notes"] = report.notes
        return write_json(path, payload)
    raise ValueError("format must be 'csv' or 'json'")


# how a CSV cell is read back, by the annotation of the field it holds
_CSV_PARSERS = {"str": str, "int": int, "float": float,
                "float | None": lambda cell: None if cell == "" else float(cell)}


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
        parsers = [_CSV_PARSERS[f.type] for f in fields(RiskRow)]
        rows = [RiskRow(*(parse(cell) for parse, cell in zip(parsers, rec, strict=True)))
                for rec in reader]
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
