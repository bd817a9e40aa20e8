"""Monte Carlo cone-complexity instruments and closed-form risk bounds.

The statistical dimension of the monotone cone ``M(G)`` is
``E |Pi_M(eps)|^2`` for a standard Gaussian ``eps``; the Gaussian width of
``M(G) cap B_2(1)`` is estimated by ``E |Pi_M(eps)|``.  Both are measured
here by seeded Monte Carlo around the exact projection :func:`lse_fit`.

Reproducibility scheme: replicate ``r`` of an experiment draws its noise
from ``PCG64(SeedSequence(entropy=seed, spawn_key=(stream_id + r,)))``, so
any replicate can be regenerated in isolation.  Aggregation always runs in
ascending stream order, which keeps every reported mean bit-reproducible.

On one order, :func:`fit_errors` is the one replicate loop: stream ``r``,
fit, weighted squared error.  The statistical dimension, the Gaussian width
and the lattice risk sweeps of :mod:`isodag.experiments` all score their
replicates through it.  Its fits come from :func:`fit_replicates`, the one
replicate engine: up to ``MC_UNION_VERTICES`` vertices' worth of them are
laid side by side as disjoint copies of the order (:func:`disjoint_copies`),
with their data vectors concatenated in stream order, and fitted by one
:func:`lse_fit`.  Each copy's fit is bitwise the one a separate call gives
(see :func:`project_partition`), so only the fixed cost per solve level is
shared.  Chains stay one call per replicate, on pool-adjacent-violators.

``bound_eval`` evaluates the closed-form risk envelopes that the sweep
reports are compared against, each named by what it bounds rather than by a
constant's pedigree; all logarithms are natural, and the oracle-style
bounds use ``log_plus(x) = log(max(x, e))`` so they stay monotone near 1.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .orders import AntichainReport, Dag, disjoint_copies
from .solvers import is_chain, lse_fit

BOUND_NAMES = (
    "worst_fixed",        # global rate for fixed lattice designs
    "sheet_oracle",       # oracle rate in the minimal sheet number K
    "block_oracle",       # adaptation to k rectangular constant pieces
    "few_variables",      # signals depending on r of the d coordinates
    "worst_random",       # global rate for random designs
    "block_oracle_random",  # adaptation under random designs
)

# Replicates on one order are fitted together as disjoint copies of the
# order, as many as fit in this many vertices.  Larger unions lose to
# separate fits: the union's Dinic phase count is the maximum over its
# replicates, and every phase scans the whole union.
MC_UNION_VERTICES = 2048


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Seeded MC average: ``mean`` +- ``stderr`` over ``replicates`` draws,
    streams ``stream_id .. stream_id + replicates - 1`` of ``seed``."""

    replicates: int
    seed: int
    stream_id: int
    mean: float
    stderr: float


def noise_stream(seed: int, stream_id: int) -> np.random.Generator:
    """The PCG64 generator for one replicate stream of an experiment seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.PCG64(ss))


def mc_aggregate(values, seed: int, stream_id: int) -> MonteCarloEstimate:
    """Mean and standard error (sample sd over sqrt replicates) of per-stream
    values, which must already be in ascending stream order."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two replicate values")
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(values.size))
    return MonteCarloEstimate(mean=mean, stderr=stderr, replicates=values.size,
                              seed=int(seed), stream_id=int(stream_id))


def fit_replicates(dag: Dag, ys: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield the fit of each data vector in ``ys`` on ``dag``, in order.

    The vectors are fitted in unions of ``MC_UNION_VERTICES // n`` of them:
    one :func:`lse_fit` on that many :func:`disjoint_copies` of ``dag``,
    with the vectors concatenated in order.  Each yielded fit is bitwise the
    one ``lse_fit(dag, y)`` gives (see :func:`project_partition`).  Chains,
    and orders of more than half the budget, take one call per vector.
    ``ys`` is read lazily, one union at a time.
    """
    n = dag.n_vertices
    per_fit = 1 if is_chain(dag) else max(1, MC_UNION_VERTICES // n)
    ys = iter(ys)
    union = dag
    while batch := list(itertools.islice(ys, per_fit)):
        if len(batch) * n != union.n_vertices:
            union = disjoint_copies(dag, len(batch))
        yield from lse_fit(union, np.concatenate(batch)).theta_hat.reshape(len(batch), n)


def fit_errors(dag: Dag, theta0, replicates: int, seed: int,
               stream_id: int) -> np.ndarray:
    """Weighted squared errors ``|fit(theta0 + eps_r) - theta0|_w^2``, in
    stream order, with ``eps_r`` the Gaussian noise of stream ``stream_id + r``
    and the fits from :func:`fit_replicates`.  ``theta0`` is a vertex vector
    or a scalar; ``0.0`` gives the squared projection norms."""
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    n = dag.n_vertices
    w = dag.weights()
    ys = (theta0 + noise_stream(seed, stream_id + r).standard_normal(n)
          for r in range(replicates))
    diffs = (theta - theta0 for theta in fit_replicates(dag, ys))
    return np.array([np.dot(w * diff, diff) for diff in diffs])


def statdim_mc(dag: Dag, replicates: int, seed: int,
               stream_id: int = 0) -> MonteCarloEstimate:
    """MC estimate of the statistical dimension ``E |Pi_M(eps)|^2``.

    The squared norm uses the same (weighted) inner product the projection
    minimizes; on unweighted dags that is the usual Euclidean one.
    """
    sq = fit_errors(dag, 0.0, replicates, seed, stream_id)
    return mc_aggregate(sq, seed, stream_id)


def gaussian_width_mc(dag: Dag, replicates: int, seed: int,
                      stream_id: int = 0) -> MonteCarloEstimate:
    """MC estimate of ``E |Pi_M(eps)|``, the Gaussian width of the cone's
    unit-ball section (up to the usual +-1 additive slack)."""
    sq = fit_errors(dag, 0.0, replicates, seed, stream_id)
    return mc_aggregate(np.sqrt(sq), seed, stream_id)


def width_lower_bound_mc(dag: Dag, report: AntichainReport, replicates: int,
                         seed: int, stream_id: int = 0):
    """Width lower bound from an antichain: sign vectors as feasible points.

    Each draw scores ``(sum_W |eps| + sum_{W+} eps - sum_{W-} eps) / sqrt(n)``,
    the inner product of ``eps`` with the unit-norm isotonic sign vector that
    is -1 below the antichain, ``sign(eps)`` on it, and +1 above it.  Returns
    the estimate together with its analytic mean ``sqrt(2/pi) |W| / sqrt(n)``.
    """
    if replicates < 2:
        raise ValueError("replicates must be >= 2")
    n = dag.n_vertices
    report.check_partition(n)
    w_ids, up, lo = report.antichain, report.upper_split, report.lower_split
    root_n = math.sqrt(n)
    vals = np.empty(replicates)
    for r in range(replicates):
        eps = noise_stream(seed, stream_id + r).standard_normal(n)
        vals[r] = (np.abs(eps[w_ids]).sum() + eps[up].sum() - eps[lo].sum()) / root_n
    target = math.sqrt(2.0 / math.pi) * len(w_ids) / root_n
    return mc_aggregate(vals, seed, stream_id), target


def harmonic_sum(n: int) -> float:
    """Partial harmonic sum ``1 + 1/2 + ... + 1/n`` -- the exact statistical
    dimension of the monotone cone on a chain of length n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.fsum(1.0 / i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# closed-form bounds


def log_plus(x: float) -> float:
    """``log(max(x, e))``: natural log clipped below at 1."""
    return math.log(max(float(x), math.e))


def default_gamma(d: int) -> float:
    """Exponent of the log factor in the random-design bounds."""
    if d < 2:
        raise ValueError("gamma is defined for d >= 2")
    if d == 2:
        return 4.5
    return (d * d + d + 1) / 2.0


@dataclass(frozen=True)
class BoundParams:
    """Leading constant, dimension, and optional log exponent override."""

    d: int
    C: float = 1.0
    gamma: float | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.C <= 0:
            raise ValueError("C must be positive")


def bound_eval(name: str, params: BoundParams, n: int, k: int | None = None,
               K: int | None = None, r: int | None = None) -> float:
    """Evaluate one of the closed-form risk envelopes at sample size ``n``.

    ``k`` is the number of constant hyperrectangular pieces, ``K`` the
    minimal sheet number, ``r`` the number of active coordinates; each is
    required exactly by the bounds that use it.  Values are per-vertex
    (risk scale), with the leading constant ``params.C``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d, C = params.d, params.C
    logn = math.log(n)
    if name == "worst_fixed":
        return C * n ** (-1.0 / d) * logn ** 4
    if name == "sheet_oracle":
        if K is None or not 1 <= K <= n:
            raise ValueError("sheet_oracle needs K in 1..n")
        return C * (K / n) * log_plus(n / K) ** 8
    if name == "block_oracle":
        if k is None or not 1 <= k <= n:
            raise ValueError("block_oracle needs k in 1..n")
        return C * (k / n) ** (2.0 / d) * log_plus(n / k) ** 8
    if name == "few_variables":
        if r is None or not 0 <= r <= d:
            raise ValueError("few_variables needs r in 0..d")
        if r <= max(d - 2, 0):
            return C * n ** (-2.0 / d) * logn ** 8
        if r == d - 1:
            return C * n ** (-4.0 / (3.0 * d)) * logn ** (16.0 / 3.0)
        return C * n ** (-1.0 / d) * logn ** 4
    gamma = params.gamma if params.gamma is not None else default_gamma(d)
    if name == "worst_random":
        return C * n ** (-1.0 / d) * logn ** gamma
    if name == "block_oracle_random":
        if k is None or not 1 <= k <= n:
            raise ValueError("block_oracle_random needs k in 1..n")
        return C * (k / n) ** (2.0 / d) * log_plus(n / k) ** (2.0 * gamma)
    raise ValueError(f"unknown bound {name!r}; expected one of {BOUND_NAMES}")
