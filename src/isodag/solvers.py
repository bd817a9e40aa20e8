"""Least-squares projection onto the monotone cone of a DAG.

Given data ``y`` and positive weights ``w``, the fit is the minimizer of
``sum_i w_i (y_i - theta_i)^2`` over vectors ``theta`` that are isotonic with
respect to the partial order: ``theta_u <= theta_v`` for every cover edge
``u -> v``.

One front door, :func:`lse_fit`, which takes no options: the weights are
always the dag's merged-duplicate multiplicities.  It has one exact route
to the projection: a chain goes to scipy's compiled pool-adjacent-violators
(:func:`scipy.optimize.isotonic_regression`) along the topological order,
in O(n), and every other order to :func:`project_partition`, recursive
partitioning: starting from one block per connected component, each block
splits at its weighted mean along a maximum-weight upper set, found for all
blocks of a level by one integer maximum flow.  One problem object owns the
data's scale: :attr:`IsotonicProblem.unit` is the exact power of two taking
``max |y|`` into ``[1, 2)``, computed once, and the chain route,
:func:`project_partition` and the certificate all work on ``y * unit``.
The iterative Dykstra solver and the exhaustive min-max oracle that the
tests cross-check this route against live with the tests
(``tests/reference.py``), not in the package.

:func:`verify_projection_certificate` checks an alleged projection against
the KKT conditions of the cone program, recovering nonnegative multipliers
on the tight cover edges by one sparse linear program (HiGHS), at any size.
The power-of-two rescale changes no mantissa, so each step makes on the
rescaled data the decisions it would make on ``y``, while no sum of squares
or pooled sum under- or overflows on data from 1e-300 to 1e300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import isotonic_regression, linprog
from scipy.sparse import csr_matrix, eye, hstack
from scipy.sparse.csgraph import connected_components

from .orders import Dag, minimal_cut

DEFAULT_CERT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """An iterative solver hit its sweep cap; ``.result`` carries the best iterate.

    No route of the package iterates; the tests' Dykstra reference raises it.
    """

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class CertificateError(RuntimeError):
    """KKT verification failed; names the condition and how far off it is."""

    def __init__(self, condition, excess, threshold):
        super().__init__(
            f"certificate rejected: {condition} off by {excess:.3e} (threshold {threshold:.3e})")
        self.condition = condition
        self.excess = excess
        self.threshold = threshold


@dataclass
class IsotonicProblem:
    """A weighted least-squares isotonic instance on a DAG: data ``y`` on
    the vertices of ``dag``.

    The weights are the dag's merged-duplicate multiplicities (all ones when
    there are none), so a weighted instance is a dag built with
    ``multiplicities``.  :func:`lse_fit` builds one and hands it to the
    partition solver; the certificate and the tests' reference solvers take
    one directly.  :attr:`weights` and :attr:`unit` are computed on first
    read and kept, so ``y`` must not change after a solver has read it.
    """

    dag: Dag
    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.dag.n_vertices,):
            raise ValueError("y length does not match vertex count")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y must be finite")

    @cached_property
    def weights(self) -> np.ndarray:
        """The dag's multiplicities, all ones when it has none."""
        return self.dag.weights()

    @cached_property
    def unit(self) -> float:
        """Exact power of two taking ``max |y|`` into ``[1, 2)`` (1 for zero data).

        Multiplying by it changes no mantissa, so every rounding decision made
        on the rescaled data is the one made on ``y``, while sums of squares and
        products can no longer under- or overflow.
        """
        m = float(np.max(np.abs(self.y), initial=0.0))
        return math.ldexp(1.0, min(1 - math.frexp(m)[1], 1023)) if m else 1.0


@dataclass
class ProjectionResult:
    theta_hat: np.ndarray
    residual: np.ndarray
    iterations: int
    max_violation: float
    inner_product_gap: float


@dataclass
class DualCertificate:
    """Nonnegative cover-edge multipliers reconstructing the residual.

    At the exact projection the stationarity condition reads
    ``W (y - theta) = sum_e lambda_e (e_u - e_v)`` with ``lambda >= 0`` and
    ``lambda_e (theta_u - theta_v) = 0`` per edge.  The multipliers come from
    a sparse linear program over the tight edges and are zero on the others;
    ``reconstruction_error`` is the weighted norm of what they leave of the
    residual, never below the best any nonnegative multipliers achieve.
    Both are in the data's units.
    """

    edge_multipliers: np.ndarray
    reconstruction_error: float


# ---------------------------------------------------------------------------
# chains


def is_chain(dag: Dag) -> bool:
    """True iff the cover edges form a single path through all vertices."""
    n = dag.n_vertices
    m = dag.cover_edges.shape[0]
    if m != n - 1:
        return False
    outdeg = np.bincount(dag.cover_edges[:, 0], minlength=n)
    indeg = np.bincount(dag.cover_edges[:, 1], minlength=n)
    return bool(outdeg.max(initial=0) <= 1 and indeg.max(initial=0) <= 1)


# ---------------------------------------------------------------------------
# partitioning on general DAGs

# A block's positive gains are quantized to integers summing to less than
# 2**_QUANT_BITS plus one per vertex; cover edges inside a block get a
# capacity above any block's total, so no minimum cut ever crosses one.  Both
# fit the int32 capacities of scipy's maximum_flow.
_QUANT_BITS = 30
_UNCUTTABLE = 2**31 - 1


def _pool_violators(theta: np.ndarray, label: np.ndarray, w: np.ndarray,
                    ys: np.ndarray, eu: np.ndarray, ev: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Merge blocks across violated cover edges until ``theta`` is isotonic.

    Blocks whose exact fits are equal can come out of floating-point means
    an ulp apart in the wrong order; pooling them restores the common value.
    Every pass removes at least one block, so the loop ends.  Returns the
    isotonic fit and the mask of the vertices that were pooled.
    """
    moved = np.zeros(theta.size, dtype=bool)
    while True:
        bad = theta[eu] > theta[ev]
        if not bad.any():
            return theta, moved
        k = int(label.max()) + 1
        links = csr_matrix((np.ones(int(bad.sum())), (label[eu[bad]], label[ev[bad]])),
                           shape=(k, k))
        _, comp = connected_components(links, directed=False)
        pooled = np.bincount(comp) > 1
        label = comp[label]
        means = np.bincount(label, w * ys) / np.bincount(label, w)
        theta = np.where(pooled[label], means[label], theta)
        moved |= pooled[label]


def project_partition(problem: IsotonicProblem) -> ProjectionResult:
    """Exact cone projection by recursive partitioning at block means.

    Each connected component of the order starts as one block, so no two
    components' gains are quantized together.  On each level, an active
    block ``B`` with weighted mean ``c_B`` whose data violates one of its
    inner cover edges takes the gains ``g_i = w_i (y_i - c_B)`` and looks
    for the upper set ``U`` of ``B`` with the largest total gain, a
    maximum-weight closure (Picard 1976).  If that gain is positive and
    ``U`` is a proper subset, the fit is at least ``c_B`` on ``U`` and at
    most ``c_B`` on the rest (Hochbaum & Queyranne 2003), so the cover edges
    between the two parts can be dropped and both parts are split further.
    Otherwise the fit is constant on ``B``, namely its mean.  A block whose
    data is already isotonic is final with the data as its fit.  Blocks stay
    convex in the order, so only their inner cover edges matter.

    The blocks of a level are disjoint, so all their closures come from one
    integer maximum flow (Dinic): source arcs for positive integer gains,
    sink arcs for negative ones, an uncuttable arc per inner cover edge, and
    the upper sets are the vertices reachable from the source in the
    residual graph.
    Exactness guards:

    * the data is rescaled by an exact power of two, and each block's gains
      by its own power of two so that its positive gains sum to at most
      ``2**30`` before rounding to integers;
    * a split happens only when the cut is a proper subset and its gain,
      recomputed in floating point, is positive; any other cut leaves the
      block final at its mean;
    * fitted values are block means (or the data) in floating point, and
      blocks that end up an ulp out of order across a cover edge are
      pooled, so the fit is always isotonic.

    Components do not interact, so a disjoint union of orders is fitted
    bitwise as each part is alone; ``complexity`` relies on this to solve a
    cell's replicates in one call.  Each block's gains are quantized on its
    own power-of-two scale, and the data's common power-of-two rescaling
    changes no mantissa.  The vertices reachable from the source in the
    residual graph are the unique minimal minimum cut whatever maximum flow
    Dinic finds, so restricted to one component they are that component's
    own minimal cut.  Block sums are ``bincount`` sums in vertex order.

    The fit is exact up to the int32 quantization of near-ties.  A block's
    gains sum to zero about its mean, and so do its integer gains: the
    scaled gains are floored, and the units the floors dropped go back one
    each to the largest remainders, ties by vertex id.  The whole block then
    has integer gain 0, and rounding moves a proper upper set's integer gain
    by less than ``|B|`` steps of ``2**-30`` of the block's positive gains,
    so two things can differ from the exact projection, both only when
    closure gains are that close: a positive closure gain below about
    ``|B|`` steps can be missed, leaving the block at its mean, and a cut
    with positive gain that falls short of the maximum by less than that can
    be taken.  Rounding each gain to the nearest integer would let the
    whole block's integer gain drift like ``sqrt(|B|)`` steps and beat a
    proper upper set: on the 40^3 lattice with
    ``y = default_rng(0).standard_normal(64000)`` it left a level set of
    8969 vertices at its mean, 9.14e-5 off the projection in sup-norm.
    With the block sums at zero, that fit's relative reconstruction error is
    1.9e-15 (5.1e-7 with nearest rounding).  ``iterations`` counts levels:
    one for isotonic or constant data.
    """
    w = problem.weights
    n = problem.dag.n_vertices
    unit = problem.unit
    ys = problem.y * unit
    edges = problem.dag.cover_edges
    eu, ev = edges[:, 0], edges[:, 1]
    src, snk = n, n + 1
    k, label = connected_components(
        csr_matrix((np.ones(eu.size), (eu, ev)), shape=(n, n)), directed=False)
    label = label.astype(np.int64)
    active = np.ones(k, dtype=bool)      # per block: still to be split
    identity = np.zeros(k, dtype=bool)   # per block: final, fit equals data
    levels = 0
    while active.any():
        levels += 1
        k = active.size
        inner = label[eu] == label[ev]
        violated = np.bincount(label[eu[inner & (ys[eu] > ys[ev])]], minlength=k) > 0
        identity |= active & ~violated
        active &= violated
        if not active.any():
            break
        on = active[label]
        mean = np.bincount(label, w * ys, k) / np.bincount(label, w, k)
        g = np.where(on, w * (ys - mean[label]), 0.0)
        pos = np.bincount(label, np.maximum(g, 0.0), k)
        scale = np.ldexp(1.0, np.minimum(_QUANT_BITS - np.frexp(pos)[1], 1023))
        # Largest-remainder rounding: the units a block's floors dropped go
        # back to its largest remainders, ties by vertex id, so every
        # block's integer gains sum to exactly 0.
        r = g * scale[label]
        q = np.floor(r)
        lost = -np.bincount(label, q, k)
        ids = np.flatnonzero(on)
        ids = ids[np.lexsort((q[ids] - r[ids], label[ids]))]
        block = label[ids]
        count = np.bincount(block, minlength=k)
        rank = np.arange(ids.size) - (np.cumsum(count) - count)[block]
        q[ids[rank < lost[block]]] += 1.0
        q = q.astype(np.int64)
        ie = inner & on[eu]
        up = np.flatnonzero(q > 0)
        down = np.flatnonzero(q < 0)
        net = csr_matrix(
            (np.r_[q[up], -q[down], np.full(int(ie.sum()), _UNCUTTABLE)].astype(np.int32),
             (np.r_[np.full(up.size, src), down, eu[ie]],
              np.r_[up, np.full(down.size, snk), ev[ie]])),
            shape=(n + 2, n + 2))
        upper = minimal_cut(net, src, snk)[1][:n] & on

        size = np.bincount(label, minlength=k)
        usize = np.bincount(label[upper], minlength=k)
        gain = np.bincount(label[upper], g[upper], k)
        split = (usize > 0) & (usize < size) & (gain > 0.0)
        fresh = k + np.cumsum(split) - 1
        label = np.where(upper & split[label], fresh[label], label)
        active = np.r_[split, np.ones(int(split.sum()), dtype=bool)]
        identity = np.r_[identity, np.zeros(int(split.sum()), dtype=bool)]
    mean = np.bincount(label, w * ys) / np.bincount(label, w)
    theta = np.where(identity[label], ys, mean[label])
    theta, moved = _pool_violators(theta, label, w, ys, eu, ev)
    return _result_from_theta(problem, theta, identity[label] & ~moved, iterations=levels)


# ---------------------------------------------------------------------------
# KKT certificate


def verify_projection_certificate(problem: IsotonicProblem, theta_hat,
                                  tol: float = DEFAULT_CERT_TOL) -> DualCertificate:
    """Check an alleged projection against the cone program's KKT conditions.

    Every condition is judged after ``y`` and ``theta_hat`` are multiplied
    by the exact power of two that takes ``max |y|`` into ``[1, 2)``, so the
    verdict does not change when the data is scaled by a power of two, and
    no sum of squares under- or overflows.  Accepts iff (a) ``theta_hat`` is
    isotonic within ``tol``, (b) the weighted inner product
    ``<y - theta_hat, theta_hat>_w`` vanishes within ``tol * |y|_w^2``, (c)
    nonnegative multipliers reconstruct the scaled residual from the
    cover-edge difference generators within ``tol * |y|_w``, and (d) every
    multiplier sits on an edge tight within ``tol``.  The multipliers solve
    one sparse linear program on ``[W^{-1/2} A_tight, I, -I]``, one column
    ``e_u - e_v`` per tight edge, minimizing the L1 norm of the slack, so
    (d) holds by construction.  The tolerances of (a) and (d) are thus
    relative to the data's binary magnitude.  The multipliers, the
    reconstruction error and any reported excess are in the data's units.

    Raises
    ------
    CertificateError
        Naming the first failed condition and by how much it failed.
    """
    w = problem.weights
    theta = np.asarray(theta_hat, dtype=float)
    if theta.shape != problem.y.shape:
        raise ValueError("theta_hat shape does not match y")
    unit = problem.unit
    ys = problem.y * unit
    ts = theta * unit
    edges = problem.dag.cover_edges
    ny2 = float(np.dot(w * ys, ys))
    ny = math.sqrt(ny2)

    gaps = ts[edges[:, 0]] - ts[edges[:, 1]]
    max_violation = float(np.max(gaps, initial=0.0))
    if max_violation > tol:
        raise CertificateError("isotonic", max_violation / unit, tol / unit)

    ip_gap = float(abs(np.dot(w * (ys - ts), ts)))
    if ip_gap > tol * ny2:
        raise CertificateError("orthogonality", ip_gap / unit / unit,
                               tol * ny2 / unit / unit)

    # stationarity: W^{1/2}(y - theta) = W^{-1/2} A lam + s+ - s-, lam >= 0,
    # minimizing sum(s+ + s-)
    tight = np.flatnonzero(gaps >= -tol)
    n, mt = ys.size, tight.size
    sqw = np.sqrt(w)
    target = sqw * (ys - ts)
    eu, ev = edges[tight, 0], edges[tight, 1]
    B = csr_matrix((np.r_[1.0 / sqw[eu], -1.0 / sqw[ev]],
                    (np.r_[eu, ev], np.tile(np.arange(mt), 2))), shape=(n, mt))
    eye_n = eye(n, format="csr")
    lp = linprog(np.r_[np.zeros(mt), np.ones(2 * n)], A_eq=hstack([B, eye_n, -eye_n]),
                 b_eq=target, method="highs")
    lam = np.zeros(edges.shape[0])
    if lp.x is not None:
        lam[tight] = np.maximum(lp.x[:mt], 0.0)
    # judged on what the multipliers leave, never on the LP's own residual
    rnorm = float(np.linalg.norm(target - B @ lam[tight]))
    if rnorm > tol * ny:
        raise CertificateError("reconstruction", rnorm / unit, tol * ny / unit)
    return DualCertificate(edge_multipliers=lam / unit, reconstruction_error=rnorm / unit)


# ---------------------------------------------------------------------------
# front door


def lse_fit(dag: Dag, y) -> ProjectionResult:
    """Weighted least-squares isotonic fit on a DAG: the exact projection.

    The weights are the dag's multiplicities.  A chain goes to scipy's
    pool-adjacent-violators along ``dag.topo_order``; every other order goes
    to :func:`project_partition`.
    """
    problem = IsotonicProblem(dag, y)
    if not is_chain(dag):
        return project_partition(problem)
    # at unit binary scale, so the pooled weighted sums cannot overflow
    order = dag.topo_order
    pava = isotonic_regression(problem.y[order] * problem.unit,
                               weights=problem.weights[order])
    ts, alone = np.empty_like(problem.y), np.zeros(order.size, dtype=bool)
    ts[order] = pava.x
    alone[order[pava.blocks[:-1][np.diff(pava.blocks) == 1]]] = True
    return _result_from_theta(problem, ts, alone, iterations=1)


def _result_from_theta(problem: IsotonicProblem, ts: np.ndarray, kept: np.ndarray,
                       iterations: int) -> ProjectionResult:
    """The result of a route's fit ``ts`` of ``y * unit``: entries the route
    ``kept`` at their scaled datum (unpooled, or in a block of isotonic data)
    are the datum itself, others ``ts / unit``, exact unless subnormal.  A
    rounded datum may be out of order with a neighbour it ties in ``ts``, so
    entries tied across a cover edge are divided too: the fit stays isotonic."""
    unit = problem.unit
    ys = problem.y * unit
    edges = problem.dag.cover_edges
    theta = np.where(kept, problem.y, ts / unit)
    tied = edges[ts[edges[:, 0]] == ts[edges[:, 1]]].ravel()
    theta[tied] = ts[tied] / unit
    max_violation = float(np.max(theta[edges[:, 0]] - theta[edges[:, 1]], initial=0.0))
    # At unit binary scale no sum of squares under- or overflows; near the
    # ends of the float range the Python division reads 0 or inf instead.
    gap = float(abs(np.dot(problem.weights * (ys - ts), ts))) / unit / unit
    return ProjectionResult(theta_hat=theta, residual=problem.y - theta,
                            iterations=iterations, max_violation=max_violation,
                            inner_product_gap=gap)
