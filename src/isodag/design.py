"""Random-design isotonic regression on the unit cube.

Covariates are drawn from a piecewise-constant density on a dyadic grid
(:class:`DesignSampler`), :func:`merge_observations` turns observations into
the merged comparability DAG and its mean responses, the fit is the
least-squares isotonic vector there, and the fitted vector extends to all
of ``[0, 1]^d`` by the upper-set minimum rule

``f_hat(x) = min({f_hat(X_i) : X_i >= x} U {max_i f_hat(X_i)})``,

which is the smallest increasing extension consistent with the fitted
values (falling back to the overall maximum above the data); design and
query points pass the one point check of :mod:`isodag.orders`.  Alongside
the fitting pipeline: empirical and population risk instruments and the two
order statistics of the random design the theory leans on -- the size of a
maximum antichain and the probability of long chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complexity import MonteCarloEstimate, mc_aggregate, noise_stream
from .orders import (Dag, _cube_points, build_design_dag, longest_chain, maximum_antichain,
                     planar_width)
from .signals import _cube_function


@dataclass(frozen=True)
class DesignSampler:
    """Piecewise-constant density on the ``2^level``-adic grid of the cube.

    ``cell_values`` holds the density value on each dyadic cell (row-major,
    shape ``(2^level,) * d``); values must lie in ``[m0, M0]`` with
    ``0 < m0 <= 1 <= M0`` and average to one so the density integrates to 1.
    """

    d: int
    level: int
    cell_values: tuple[float, ...]
    m0: float
    M0: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"need d >= 1, got d={self.d}")
        if self.level < 0:
            raise ValueError(f"need level >= 0, got level={self.level}")
        vals = np.asarray(self.cell_values, dtype=float)
        side = 2 ** self.level
        if vals.size != side ** self.d:
            raise ValueError(f"expected {side ** self.d} cell values")
        if not 0.0 < self.m0 <= 1.0 <= self.M0:
            raise ValueError("need 0 < m0 <= 1 <= M0")
        if np.any(vals < self.m0) or np.any(vals > self.M0):
            raise ValueError("cell values must lie in [m0, M0]")
        if abs(float(vals.mean()) - 1.0) > 1e-9:
            raise ValueError("density must integrate to 1 (cell mean 1)")
        object.__setattr__(self, "cell_values", tuple(float(v) for v in vals))

    @classmethod
    def uniform(cls, d: int) -> "DesignSampler":
        return cls(d=d, level=0, cell_values=(1.0,), m0=1.0, M0=1.0)

    @classmethod
    def checkerboard(cls, d: int, low: float = 0.5, high: float = 1.5) -> "DesignSampler":
        """Alternating low/high density on the half-split grid."""
        side = 2
        idx = np.indices((side,) * d).sum(axis=0)
        vals = np.where(idx % 2 == 0, low, high).ravel()
        if abs(float(vals.mean()) - 1.0) > 1e-9:
            raise ValueError("low and high must average to 1")
        return cls(d=d, level=1, cell_values=tuple(vals), m0=min(low, high),
                   M0=max(low, high))

    @classmethod
    def from_values(cls, d: int, level: int, values, m0: float | None = None,
                    M0: float | None = None) -> "DesignSampler":
        vals = np.asarray(values, dtype=float).ravel()
        lo = float(vals.min()) if m0 is None else m0
        hi = float(vals.max()) if M0 is None else M0
        return cls(d=d, level=level, cell_values=tuple(vals), m0=min(lo, 1.0),
                   M0=max(hi, 1.0))


def draw_design(rng: np.random.Generator, sampler: DesignSampler, n: int) -> np.ndarray:
    """Draw ``n`` points from the sampler's density using ``rng``: one cell
    choice per point, then a uniform offset inside the cell."""
    if n < 1:
        raise ValueError("n must be >= 1")
    side = 2 ** sampler.level
    vals = np.asarray(sampler.cell_values)
    masses = vals / vals.sum()
    cells = rng.choice(vals.size, size=n, p=masses)
    corners = np.stack(np.unravel_index(cells, (side,) * sampler.d), axis=1)
    offsets = rng.random((n, sampler.d))
    return (corners + offsets) / side


def sample_design(sampler: DesignSampler, n: int, seed: int,
                  stream_id: int = 0) -> np.ndarray:
    """Seeded design draw on stream ``(seed, stream_id)``."""
    return draw_design(noise_stream(seed, stream_id), sampler, n)


@dataclass(frozen=True)
class FittedFunction:
    """Fitted values at the design points, plus their maximum for the
    extension rule."""

    points: np.ndarray
    values: np.ndarray
    max_fitted: float

    @classmethod
    def from_fit(cls, points, values) -> "FittedFunction":
        points = _cube_points(points)
        values = np.asarray(values, dtype=float)
        if values.shape != (points.shape[0],):
            raise ValueError("need (n, d) points and matching values")
        return cls(points=points, values=values, max_fitted=float(values.max()))


def merge_observations(points, y) -> tuple[Dag, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``(dag, ybar, (firsts, inverse))`` of observations ``(points, y)``:
    :func:`build_design_dag` of the points, the mean response per vertex (the
    data of ``lse_fit(dag, ybar)``) and the builder's one merge of the points."""
    dag = build_design_dag(points)
    return dag, np.bincount(dag._merge[1], weights=y) / dag.weights(), dag._merge


def extend_estimator(fit: FittedFunction, x) -> np.ndarray | float:
    """Evaluate the increasing extension at one point or a batch.

    The value at ``x`` is the minimum fitted value over design points that
    dominate ``x`` componentwise, or ``max_fitted`` when none does.
    """
    def values(pts):
        out = np.empty(pts.shape[0])
        # chunk the (queries x design) dominance matrix to bound memory
        chunk = max(1, 2_000_000 // max(1, fit.points.shape[0]))
        for s in range(0, pts.shape[0], chunk):
            block = pts[s:s + chunk]
            dom = np.all(fit.points[None, :, :] >= block[:, None, :], axis=2)
            vals = np.where(dom, fit.values[None, :], np.inf).min(axis=1)
            out[s:s + chunk] = np.where(np.isfinite(vals), vals, fit.max_fitted)
        return out

    return _cube_function(fit.points.shape[1], values)(x)


def empirical_risk(fit: FittedFunction, f0_at_points) -> float:
    """Mean squared error of the fitted values against the truth at the
    design points."""
    truth = np.asarray(f0_at_points, dtype=float)
    if truth.shape != fit.values.shape:
        raise ValueError("truth length does not match fitted values")
    diff = fit.values - truth
    return float(np.mean(diff * diff))


def l2p_risk_mc(fit: FittedFunction, f0, sampler: DesignSampler, mc_points: int,
                seed: int, stream_id: int = 0) -> MonteCarloEstimate:
    """MC integral of ``(f_hat - f0)^2`` under the sampler's density."""
    if mc_points < 2:
        raise ValueError("mc_points must be >= 2")
    X = sample_design(sampler, mc_points, seed, stream_id)
    fx = extend_estimator(fit, X)
    f0x = np.asarray(f0(X), dtype=float)
    return mc_aggregate((fx - f0x) ** 2, seed, stream_id)


# ---------------------------------------------------------------------------
# order statistics of the random design


@dataclass(frozen=True)
class AntichainStats:
    """Maximum-antichain sizes over design replicates, against the
    ``n^(1-1/d) / (2 e M0^(1/d))`` reference."""

    sizes: np.ndarray
    mean_size: float
    bound: float
    fraction_meeting_bound: float


def _design_draws(d: int, n: int, sampler: DesignSampler, replicates: int,
                  seed: int, stream_id: int):
    """``replicates`` seeded design draws, one per stream ``stream_id + r``,
    in stream order."""
    if sampler.d != d:
        raise ValueError("sampler dimension mismatch")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    return (sample_design(sampler, n, seed, stream_id + r) for r in range(replicates))


def antichain_stats(d: int, n: int, sampler: DesignSampler, replicates: int,
                    seed: int, stream_id: int = 0) -> AntichainStats:
    """Maximum-antichain sizes of ``replicates`` seeded draws of ``n`` points.

    For ``d <= 2`` each width comes from :func:`planar_width` of the drawn
    points, with no order built; for ``d >= 3`` from :func:`maximum_antichain`
    of :func:`build_design_dag`.
    """
    draws = _design_draws(d, n, sampler, replicates, seed, stream_id)
    sizes = np.array([planar_width(points) if d <= 2
                      else len(maximum_antichain(build_design_dag(points)).antichain)
                      for points in draws], dtype=np.int64)
    bound = n ** (1.0 - 1.0 / d) / (2.0 * math.e * sampler.M0 ** (1.0 / d))
    frac = float(np.mean(sizes >= bound))
    return AntichainStats(sizes=sizes, mean_size=float(sizes.mean()),
                          bound=bound, fraction_meeting_bound=frac)


def chain_probability_formulas(d: int, n: int, k: int, M0: float = 1.0) -> dict[str, float]:
    """Candidate expressions for ``P(some k points form a chain)``.

    ``"ordered_tuple"`` is ``C(n, k) (k!)^-d M0^k``: the subset count times
    the probability that one k-tuple is increasing *in a fixed order*.  It
    is not an upper bound on the chain probability -- a subset is a chain
    if *any* of its ``k!`` orderings is increasing -- and simulation
    readily exceeds it.  ``"union_bound"`` restores that factor,
    ``C(n, k) k! (k!)^-d M0^k = C(n, k) (k!)^(1-d) M0^k``, and is a valid
    bound: for the uniform density the per-subset chain probability equals
    ``(k!)^(1-d)`` exactly (the d coordinatewise rankings are independent
    uniform permutations and must all agree), reported as
    ``"subset_exact_uniform"``.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if M0 < 1.0:
        raise ValueError("M0 must be >= 1")
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    log_kfac = math.lgamma(k + 1)
    return {
        "ordered_tuple": math.exp(log_comb - d * log_kfac + k * math.log(M0)),
        "union_bound": math.exp(log_comb - (d - 1) * log_kfac + k * math.log(M0)),
        "subset_exact_uniform": math.exp(-(d - 1) * log_kfac),
    }


def chain_tail_check(d: int, n: int, k: int, sampler: DesignSampler | None = None,
                     replicates: int = 200, seed: int = 0,
                     stream_id: int = 0) -> tuple[float, float]:
    """Long-chain tail: the ``C(n, k) (k!)^-d M0^k`` expression (capped at 1)
    against the empirical frequency of ``longest_chain >= k``.

    ``M0`` is the density ceiling of ``sampler`` (uniform by default), the
    sampler the empirical side draws from on streams ``stream_id ..
    stream_id + replicates - 1``.  The analytic value prices each candidate
    subset in a single fixed order, so the observed frequency can exceed it;
    see :func:`chain_probability_formulas` for the order-corrected union
    bound that the frequency cannot beat.
    """
    if sampler is None:
        sampler = DesignSampler.uniform(d)
    bound = min(1.0, chain_probability_formulas(d, n, k, sampler.M0)["ordered_tuple"])
    draws = _design_draws(d, n, sampler, replicates, seed, stream_id)
    return bound, sum(len(longest_chain(build_design_dag(points))) >= k
                      for points in draws) / replicates
