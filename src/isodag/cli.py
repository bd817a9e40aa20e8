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

Every subcommand accepts ``--config FILE`` with flat ``key = value`` lines
(keys are flag names with ``-`` or ``_``); explicit command-line flags win.
Every fit is the exact projection ``lse_fit(dag, y)``: the choice of solver
is made in :mod:`isodag.solvers`, and no flag selects one.  Exit codes:
0 success, 2 validation error, 3 certificate failure (``fit``).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .complexity import (BoundParams, bound_eval, gaussian_width_mc, harmonic_sum,
                         noise_stream, statdim_mc)
from .design import DesignSampler, antichain_stats
from .experiments import (ExperimentConfig, _VERSION, emit_report, fit_rate_exponent,
                          lattice_side, read_report, run_fixed_sweep,
                          run_random_sweep, table1)
from .orders import (LatticeSpec, SizeCapError, build_design_dag, build_lattice,
                     lattice_vertices, level_cardinalities, level_antichain_report,
                     longest_chain, maximum_antichain, merge_duplicates)
from .signals import (AssouadSpec, SignalSpec, assouad_fixed, generate_signal,
                      random_staircase_spec)
from .solvers import (CertificateError, IsotonicProblem, lse_fit,
                      verify_projection_certificate)

CERTIFY_VERTEX_CAP = 2000

_CONVERTERS = {
    "d": int, "n1": int, "reps": int, "seed": int, "threads": int, "k": int,
    "mc_samples": int, "rho": float, "n_grid": str, "signal": str,
    "out": str, "format": str, "data": str, "experiment": str,
}


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


def _write_metric_csv(path: str, rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "d", "n", "replicates", "seed", "mean",
                         "stderr", "bound_C1"])
        for r in rows:
            writer.writerow([r["metric"], r["d"], r["n"], r["replicates"],
                             r["seed"], repr(r["mean"]), repr(r["stderr"]),
                             repr(r["bound_C1"])])


def _load_config_defaults(args: argparse.Namespace, argv: list[str]):
    """Fill flat ``key = value`` config-file entries into ``args`` for every
    flag not given explicitly on the command line."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in _CONVERTERS or not hasattr(args, dest):
                raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
            flag = "--" + dest.replace("_", "-")
            explicit = any(tok == flag or tok.startswith(flag + "=") for tok in argv)
            if not explicit:
                setattr(args, dest, _CONVERTERS[dest](value))


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
                                     "help": "accepted and echoed in reports; replicates "
                                             "run in order, whatever the value"}),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isodag", allow_abbrev=False,
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"isodag {_VERSION}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit", help="fit one dataset and emit fitted values")
    _add_common(p, "data", "d", "n1", "signal", "k", "rho", "seed", "out", "format")

    for name in ("statdim", "width"):
        p = subs.add_parser(name, help=f"Monte Carlo {name} of a lattice cone")
        _add_common(p, "d", "n1", "reps", "seed", "out")

    p = subs.add_parser("sweep-fixed", help="risk sweep over lattice sizes")
    _add_common(p, "d", "n_grid", "signal", "k", "rho", "seed", "reps", "threads",
                "out", "format", "experiment")

    p = subs.add_parser("sweep-random", help="risk sweep over random designs")
    _add_common(p, "d", "n_grid", "signal", "seed", "reps", "mc_samples",
                "threads", "out", "format", "experiment")

    p = subs.add_parser("antichain", help="antichain structure of a design")
    _add_common(p, "d", "n1", "n_grid", "reps", "seed")

    p = subs.add_parser("table1", help="statistical-dimension summary table")
    _add_common(p, "reps", "seed", "out")

    p = subs.add_parser("rate-fit", help="fit a rate exponent from a risk report")
    p.add_argument("path", type=str, help="risk report (.csv or .json)")
    _add_common(p, "experiment")
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
        dag = build_design_dag(points)
        _, idx = merge_duplicates(points)
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
    line = (f"fit: n={len(idx)} vertices={dag.n_vertices} "
            f"iterations={res.iterations} max_violation={res.max_violation:.3e}")
    if dag.n_vertices <= CERTIFY_VERTEX_CAP:
        cert = verify_projection_certificate(IsotonicProblem(dag, ybar), res.theta_hat)
        line += f" certificate_reconstruction={cert.reconstruction_error:.3e}"
    else:
        line += f" certificate=skipped(n>{CERTIFY_VERTEX_CAP})"
    print(line)
    if not args.data:
        risk = float(np.mean((res.theta_hat - theta0) ** 2))
        print(f"empirical risk vs signal: {risk!r}")
    if args.out:
        fitted = res.theta_hat[idx]
        if args.format == "json":
            import json
            payload = {"theta_hat": fitted.tolist(), "y": np.asarray(y).tolist(),
                       "iterations": res.iterations, "version": _VERSION}
            with open(args.out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            with open(args.out, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["index"] + [f"x_{j+1}" for j in range(coords.shape[1])]
                                + ["y", "theta_hat"])
                for i in range(len(fitted)):
                    writer.writerow([i] + [repr(float(c)) for c in coords[i]]
                                    + [repr(float(np.asarray(y)[i])), repr(float(fitted[i]))])
        print(f"wrote {args.out}")
    return 0


def _cmd_moment(args, which: str) -> int:
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
        _write_metric_csv(args.out, [{"metric": which, "d": args.d, "n": spec.n,
                                      "replicates": est.replicates, "seed": est.seed,
                                      "mean": est.mean, "stderr": est.stderr,
                                      "bound_C1": bound}])
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args, design: str) -> int:
    if args.n_grid is None:
        raise ValueError("sweep needs --n-grid")
    if args.out is None:
        raise ValueError("sweep needs --out")
    grid = _parse_n_grid(args.n_grid)
    name = args.experiment or f"sweep-{design}"
    if design == "lattice":
        if args.signal == "assouad" and len(grid) != 1:
            raise ValueError("assouad signals need a single-entry --n-grid")
        signal = _lattice_signal(args.signal, args.d, grid[0], args.seed,
                                 args.k, args.rho)
        if args.signal == "staircase" and len(grid) != 1:
            raise ValueError("staircase signals need a single-entry --n-grid")
        config = ExperimentConfig(experiment=name, d=args.d, n_grid=grid,
                                  signal=signal, design="lattice", replicates=args.reps,
                                  seed=args.seed, threads=args.threads,
                                  out_path=args.out)
        report = run_fixed_sweep(config)
    else:
        signal = _random_signal(args.signal)
        config = ExperimentConfig(experiment=name, d=args.d, n_grid=grid,
                                  signal=signal, design="random", replicates=args.reps,
                                  mc_points=args.mc_samples, seed=args.seed,
                                  threads=args.threads, out_path=args.out)
        report = run_random_sweep(config)
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
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["d", "n", "statdim_mean", "statdim_stderr", "reference"])
            for r in rows:
                writer.writerow([r.d, r.n, repr(r.statdim_mean), repr(r.statdim_stderr),
                                 "" if r.reference is None else repr(r.reference)])
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
        _load_config_defaults(args, argv)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command in ("statdim", "width"):
            return _cmd_moment(args, args.command)
        if args.command == "sweep-fixed":
            return _cmd_sweep(args, "lattice")
        if args.command == "sweep-random":
            return _cmd_sweep(args, "random")
        if args.command == "antichain":
            return _cmd_antichain(args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "rate-fit":
            return _cmd_rate_fit(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, SizeCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
