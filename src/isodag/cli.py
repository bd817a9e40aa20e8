"""Command-line harness.

Subcommands::

    fit           fit one dataset (CSV of design points, or a synthetic lattice)
    statdim       Monte Carlo statistical dimension of a lattice cone
    width         Monte Carlo Gaussian width of a lattice cone
    sweep-fixed   seeded risk sweep over lattice sizes
    sweep-random  seeded risk sweep over random-design sizes
    antichain     maximum antichain of a lattice, or random-design antichain stats
    table1        statistical-dimension summary across dimensions
    rate-fit      log-log rate exponent from an emitted risk report

Every subcommand accepts ``--config FILE`` with flat ``key = value`` lines.
A key is one of the subcommand's flag names, spelled with ``-`` or ``_``.
Each line becomes the token ``--key=value``; these go between the
subcommand and the explicit flags, and the subcommand's own parser reads
them, so a config value is checked exactly as its flag is and an explicit
flag wins.  Every output file is written by :func:`isodag.experiments.write_csv`
or :func:`isodag.experiments.write_json`.
Every fit is the exact projection ``lse_fit(dag, y)``: the choice of solver
is made in :mod:`isodag.solvers`, and no flag selects one.  Exit codes:
0 success, 2 validation error (argparse's own, or ``error: ...``),
3 certificate failure (``fit``).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import astuple, fields
from functools import partial

import numpy as np

from . import __version__
from .complexity import (BoundParams, MonteCarloEstimate, bound_eval, gaussian_width_mc,
                         harmonic_sum, noise_stream, statdim_mc)
from .design import DesignSampler, antichain_stats
from .experiments import (ExperimentConfig, Table1Row, emit_report, fit_rate_exponent,
                          lattice_side, read_report, run_fixed_sweep, run_random_sweep, table1,
                          write_csv, write_json)
from .orders import (LatticeSpec, SizeCapError, build_design_dag, build_lattice,
                     lattice_vertices, level_cardinalities, level_antichain_report,
                     longest_chain, maximum_antichain, merge_duplicates)
from .signals import (AssouadSpec, SignalSpec, assouad_fixed, generate_signal,
                      random_staircase_spec)
from .solvers import (CertificateError, IsotonicProblem, lse_fit,
                      verify_projection_certificate)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _parse_n_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise ValueError(f"could not parse n grid {text!r}") from None


def _lattice_signal(name: str, d: int, n: int, seed: int, k: int | None,
                    rho: float | None) -> SignalSpec | None:
    """Map a ``--signal`` name to a SignalSpec for an n-vertex lattice."""
    if name == "zero":
        return None
    if name == "linear_mean":
        return SignalSpec.linear_mean()
    if name.startswith("constant:"):
        return SignalSpec.constant(float(name.split(":", 1)[1]))
    n1 = lattice_side(n, d)
    spec = LatticeSpec((n1,) * d)
    if name == "staircase":
        rng = noise_stream(seed, 999_999)
        return random_staircase_spec(spec, rng, max_blocks=k or 6)
    if name == "assouad":
        report = level_antichain_report(spec)
        rng = noise_stream(seed, 999_998)
        tau = rng.integers(0, 2, size=len(report.antichain))
        dag = build_lattice(spec)
        theta = assouad_fixed(dag, report, AssouadSpec(tau=tuple(tau), rho=rho))
        return SignalSpec.custom_grid(theta)
    raise ValueError(f"unknown lattice signal {name!r}")


def _random_signal(name: str):
    """Map a ``--signal`` name to a callable on design points (or None)."""
    if name == "zero":
        return None
    if name == "mean_coord":
        def mean_coord(points):
            return np.asarray(points, dtype=float).mean(axis=1)
        return mean_coord
    if name.startswith("constant:"):
        value = float(name.split(":", 1)[1])

        def const(points):
            return np.full(np.asarray(points).shape[0], value)
        const.__name__ = f"constant_{value}"
        return const
    raise ValueError(f"unknown random-design signal {name!r}")


def _statdim_bound_c1(d: int, n: int) -> float:
    """C=1 reference for the cone's statistical dimension: the exact
    harmonic sum in dimension one, ``n^(1-2/d) log+^8 n`` otherwise."""
    if d == 1:
        return harmonic_sum(n)
    return n * bound_eval("block_oracle", BoundParams(d=d), n, k=1)


def _config_tokens(path: str, keys: tuple[str, ...]) -> list[str]:
    """The ``--key=value`` tokens of a flat ``key = value`` config file whose
    keys must be among ``keys`` (flag names in ``_`` form)."""
    tokens = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key.replace("-", "_") not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            tokens.append(f"--{key.replace('_', '-')}={value}")
    return tokens


def _add_common(sub: argparse.ArgumentParser, *names: str):
    opts = {
        "d": (("--d",), {"type": int, "default": 2, "help": "lattice/cube dimension"}),
        "n1": (("--n1",), {"type": int, "default": None, "help": "lattice side length"}),
        "n_grid": (("--n-grid",), {"type": str, "default": None,
                                   "help": "comma-separated total sizes, e.g. 16,64,256"}),
        "signal": (("--signal",), {"type": str, "default": "zero",
                                   "help": "zero | constant:<v> | linear_mean | staircase | "
                                           "assouad (lattice); zero | constant:<v> | "
                                           "mean_coord (random)"}),
        "k": (("--k",), {"type": int, "default": None,
                         "help": "block count for staircase signals"}),
        "rho": (("--rho",), {"type": float, "default": None,
                             "help": "antichain perturbation scale for assouad signals"}),
        "seed": (("--seed",), {"type": int, "default": 0}),
        "reps": (("--reps",), {"type": int, "default": 200,
                               "help": "Monte Carlo replicates"}),
        "mc_samples": (("--mc-samples",), {"type": int, "default": 0,
                                           "help": "population-risk MC points (random sweeps)"}),
        "out": (("--out",), {"type": str, "default": None, "help": "output file path"}),
        "format": (("--format",), {"type": str, "default": "csv",
                                   "choices": ["csv", "json"]}),
        "threads": (("--threads",), {"type": int, "default": 1,
                                     "help": "accepted and ignored"}),
        "experiment": (("--experiment",), {"type": str, "default": None,
                                           "help": "experiment name recorded in reports"}),
        "data": (("--data",), {"type": str, "default": None,
                               "help": "input CSV: index, x_1..x_d, y"}),
    }
    for name in names:
        flags, kw = opts[name]
        sub.add_argument(*flags, **kw)
    sub.add_argument("--config", type=str, default=None,
                     help="flat key = value defaults file")
    sub.set_defaults(config_keys=names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isodag", allow_abbrev=False,
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"isodag {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name, run, summary, *names):
        p = subs.add_parser(name, help=summary, allow_abbrev=False)
        _add_common(p, *names)
        p.set_defaults(run=run)
        return p

    add("fit", _cmd_fit, "fit one dataset and emit fitted values",
        "data", "d", "n1", "signal", "k", "rho", "seed", "out", "format")
    for name in ("statdim", "width"):
        add(name, _cmd_moment, f"Monte Carlo {name} of a lattice cone",
            "d", "n1", "reps", "seed", "out")
    add("sweep-fixed", partial(_cmd_sweep, design="lattice"),
        "risk sweep over lattice sizes", "d", "n_grid", "signal", "k", "rho", "seed",
        "reps", "threads", "out", "format", "experiment")
    add("sweep-random", partial(_cmd_sweep, design="random"),
        "risk sweep over random designs", "d", "n_grid", "signal", "seed", "reps",
        "mc_samples", "threads", "out", "format", "experiment")
    add("antichain", _cmd_antichain, "antichain structure of a design",
        "d", "n1", "n_grid", "reps", "seed")
    add("table1", _cmd_table1, "statistical-dimension summary table", "reps", "seed", "out")
    add("rate-fit", _cmd_rate_fit, "fit a rate exponent from a risk report",
        "experiment").add_argument("path", type=str, help="risk report (.csv or .json)")
    return parser


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_fit(args) -> int:
    if args.data:
        with open(args.data, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows and not _is_number(rows[0][-1]):
            rows = rows[1:]
        if not rows:
            raise ValueError("no data rows in input")
        arr = np.asarray([[float(v) for v in row] for row in rows])
        points, y = arr[:, 1:-1], arr[:, -1]
        if points.shape[1] != args.d:
            raise ValueError(f"--d {args.d} but file has {points.shape[1]} coordinates")
        firsts, idx = merge_duplicates(points)
        dag = build_design_dag(points, merged=(firsts, idx))
        ybar = np.bincount(idx, weights=y) / dag.weights()
        coords = points
    else:
        if args.n1 is None:
            raise ValueError("fit needs --data or --n1")
        spec = LatticeSpec((args.n1,) * args.d)
        dag = build_lattice(spec)
        sig = _lattice_signal(args.signal, args.d, spec.n, args.seed, args.k, args.rho)
        theta0 = np.zeros(spec.n) if sig is None else generate_signal(sig, spec)
        y = theta0 + noise_stream(args.seed, 0).standard_normal(spec.n)
        ybar, idx = y, np.arange(spec.n)
        coords = lattice_vertices(spec).astype(float)
    res = lse_fit(dag, ybar)
    cert = verify_projection_certificate(IsotonicProblem(dag, ybar), res.theta_hat)
    print(f"fit: n={len(idx)} vertices={dag.n_vertices} "
          f"iterations={res.iterations} max_violation={res.max_violation:.3e} "
          f"certificate_reconstruction={cert.reconstruction_error:.3e}")
    if not args.data:
        risk = float(np.mean((res.theta_hat - theta0) ** 2))
        print(f"empirical risk vs signal: {risk!r}")
    if args.out:
        fitted = res.theta_hat[idx]
        if args.format == "json":
            write_json(args.out, {"theta_hat": fitted.tolist(), "y": y.tolist(),
                                  "iterations": res.iterations, "version": __version__})
        else:
            write_csv(args.out, ["index"] + [f"x_{j+1}" for j in range(coords.shape[1])]
                      + ["y", "theta_hat"],
                      ([i, *coords[i], y[i], fitted[i]] for i in range(len(fitted))))
        print(f"wrote {args.out}")
    return 0


def _cmd_moment(args) -> int:
    which = args.command
    if args.n1 is None:
        raise ValueError(f"{which} needs --n1")
    spec = LatticeSpec((args.n1,) * args.d)
    dag = build_lattice(spec)
    fn = statdim_mc if which == "statdim" else gaussian_width_mc
    est = fn(dag, args.reps, args.seed)
    bound = _statdim_bound_c1(args.d, spec.n)
    if which == "width":
        bound = math.sqrt(bound)
    print(f"{which} d={args.d} n={spec.n}: mean={est.mean!r} stderr={est.stderr!r} "
          f"(replicates={est.replicates}, seed={est.seed}, bound_C1={bound:.6g})")
    if args.out:
        # the estimate's fields, less its first stream, which is always 0 here
        cols = [f.name for f in fields(MonteCarloEstimate) if f.name != "stream_id"]
        write_csv(args.out, ["metric", "d", "n", *cols, "bound_C1"],
                  [[which, args.d, spec.n, *(getattr(est, c) for c in cols), bound]])
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args, design: str) -> int:
    if args.n_grid is None:
        raise ValueError("sweep needs --n-grid")
    if args.out is None:
        raise ValueError("sweep needs --out")
    grid = _parse_n_grid(args.n_grid)
    if design == "lattice":
        # these signals are drawn for one lattice size, so check before drawing
        if args.signal in ("assouad", "staircase") and len(grid) != 1:
            raise ValueError(f"{args.signal} signals need a single-entry --n-grid")
        signal = _lattice_signal(args.signal, args.d, grid[0], args.seed,
                                 args.k, args.rho)
        run = run_fixed_sweep
    else:
        signal = _random_signal(args.signal)
        run = run_random_sweep
    report = run(ExperimentConfig(experiment=args.experiment or f"sweep-{design}",
                                  d=args.d, n_grid=grid, signal=signal, design=design,
                                  replicates=args.reps,
                                  mc_points=getattr(args, "mc_samples", 0),
                                  seed=args.seed, out_path=args.out))
    emit_report(report, args.format, args.out)
    for row in report.rows:
        print(f"n={row.n}: risk={row.risk_mean!r} stderr={row.risk_stderr!r}")
    for key, est in report.notes.get("l2p", {}).items():
        print(f"n={key}: l2p_risk={est['mean']!r} stderr={est['stderr']!r} "
              f"(mc_points={est['mc_points']})")
    if report.rows and report.rows[0].slope_fit is not None:
        print(f"fitted log-log slope: {report.rows[0].slope_fit!r}")
    print(f"wrote {args.out}")
    return 0


def _cmd_antichain(args) -> int:
    if args.n1 is not None:
        spec = LatticeSpec((args.n1,) * args.d)
        dag = build_lattice(spec)
        rep = maximum_antichain(dag)
        sizes = level_cardinalities(spec)
        print(f"lattice d={args.d} n1={args.n1}: n={spec.n} "
              f"max_antichain={len(rep.antichain)} chain_cover={len(rep.chain_cover)} "
              f"longest_chain={len(longest_chain(dag))} "
              f"largest_level={max(sizes)}")
        return 0
    if args.n_grid is None:
        raise ValueError("antichain needs --n1 (lattice) or --n-grid (random design)")
    for n in _parse_n_grid(args.n_grid):
        stats = antichain_stats(args.d, n, DesignSampler.uniform(args.d),
                                args.reps, args.seed)
        print(f"random d={args.d} n={n}: mean_antichain={stats.mean_size:.2f} "
              f"bound={stats.bound:.3f} frac_meeting_bound={stats.fraction_meeting_bound}")
    return 0


def _cmd_table1(args) -> int:
    rows, slope = table1(replicates=args.reps, seed=args.seed)
    print(f"{'d':>2} {'n':>6} {'statdim':>12} {'stderr':>10} {'reference':>10}")
    for r in rows:
        ref = f"{r.reference:.4f}" if r.reference is not None else "-"
        print(f"{r.d:>2} {r.n:>6} {r.statdim_mean:>12.4f} {r.statdim_stderr:>10.4f} {ref:>10}")
    if slope is not None:
        print(f"d=3 log-log growth slope: {slope[0]:.4f} +- {slope[1]:.4f} "
              f"(target 1 - 2/3 = 0.3333 up to logs)")
    if args.out:
        write_csv(args.out, [f.name for f in fields(Table1Row)], map(astuple, rows))
        print(f"wrote {args.out}")
    return 0


def _cmd_rate_fit(args) -> int:
    report = read_report(args.path)
    rows = report.rows
    if args.experiment:
        rows = [r for r in rows if r.experiment == args.experiment]
    pairs = [(r.n, r.risk_mean) for r in rows]
    slope, stderr = fit_rate_exponent(pairs)
    print(f"rate exponent over {len(pairs)} rows: slope={slope!r} stderr={stderr!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the top-level parser has no options that take a value, so the
            # first token naming the subcommand is the subcommand
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_tokens(args.config,
                                                                args.config_keys)
                                     + argv[at:])
        return args.run(args)
    except (ValueError, SizeCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
