"""Least-squares projection onto the monotone cone of a DAG.

Given data ``y`` and positive weights ``w``, the fit is the minimizer of
``sum_i w_i (y_i - theta_i)^2`` over vectors ``theta`` that are isotonic with
respect to the partial order: ``theta_u <= theta_v`` for every cover edge
``u -> v``.

One front door, :func:`lse_fit`, which takes no options: it sends a chain
to scipy's compiled pool-adjacent-violators
(:func:`scipy.optimize.isotonic_regression`) along the topological order,
exact in O(n), and every other order to :func:`project_partition`.  Three
routes to the same projection live here:

* :func:`project_partition` -- recursive partitioning for general DAGs,
  exact up to the int32 quantization of near-ties: starting from one block
  per connected component, each block splits at its weighted mean along a
  maximum-weight upper set, found for all blocks of a level by one integer
  maximum flow.
* :func:`project_dykstra` -- cyclic Dykstra projections over the cover-edge
  halfspaces for general DAGs, with correction terms guaranteeing convergence
  to the exact projection; iterative, kept as an independent cross-check.
* :func:`minmax_project_oracle` -- the closed-form min-max over upper and
  lower sets, exponential in n; the reference oracle for small problems.

:func:`verify_projection_certificate` checks an alleged projection against
the KKT conditions of the cone program, recovering nonnegative multipliers
on the tight cover edges by one sparse linear program (HiGHS), at any size.
Like the solvers, it works on the data rescaled by an exact power of two, so
it neither under- nor overflows on data from 1e-300 to 1e300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import isotonic_regression, linprog
from scipy.sparse import csr_matrix, eye, hstack
from scipy.sparse.csgraph import connected_components

from .orders import Dag, minimal_cut, upper_set_masks

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100_000
DEFAULT_CERT_TOL = 1e-6


class ConvergenceError(RuntimeError):
    """Dykstra hit its sweep cap; ``.result`` carries the best iterate."""

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
    """A weighted least-squares isotonic instance on a DAG.

    ``weights`` defaults to the dag's merged-duplicate multiplicities (all
    ones when there are none).
    """

    dag: Dag
    y: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.shape != (self.dag.n_vertices,):
            raise ValueError("y length does not match vertex count")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y must be finite")
        if self.weights is None:
            self.weights = self.dag.weights()
        else:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.y.shape:
                raise ValueError("weights shape does not match y")
            if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
                raise ValueError("weights must be positive and finite")


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


def _binary_unit(y: np.ndarray) -> float:
    """Exact power of two taking ``max |y|`` into ``[1, 2)`` (1 for zero data).

    Multiplying by it changes no mantissa, so every rounding decision made
    on the rescaled data is the one made on ``y``, while sums of squares and
    products can no longer under- or overflow.
    """
    m = float(np.max(np.abs(y), initial=0.0))
    return math.ldexp(1.0, min(1 - math.frexp(m)[1], 1023)) if m else 1.0


# ---------------------------------------------------------------------------
# partitioning on general DAGs

# A block's positive gains are quantized to integers summing to at most
# 2**_QUANT_BITS; cover edges inside a block get a capacity above any block's
# total, so no minimum cut ever crosses one.  Both fit the int32 capacities
# of scipy's maximum_flow.
_QUANT_BITS = 30
_UNCUTTABLE = 2**31 - 1


def _pool_violators(theta: np.ndarray, label: np.ndarray, w: np.ndarray,
                    ys: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """Merge blocks across violated cover edges until ``theta`` is isotonic.

    Blocks whose exact fits are equal can come out of floating-point means
    an ulp apart in the wrong order; pooling them restores the common value.
    Every pass removes at least one block, so the loop ends.
    """
    while True:
        bad = theta[eu] > theta[ev]
        if not bad.any():
            return theta
        k = int(label.max()) + 1
        links = csr_matrix((np.ones(int(bad.sum())), (label[eu[bad]], label[ev[bad]])),
                           shape=(k, k))
        _, comp = connected_components(links, directed=False)
        pooled = np.bincount(comp) > 1
        label = comp[label]
        means = np.bincount(label, w * ys) / np.bincount(label, w)
        theta = np.where(pooled[label], means[label], theta)


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
    integer maximum flow (Dinic): source arcs for ``g > 0``, sink arcs for
    ``g < 0``, an uncuttable arc per inner cover edge, and the upper sets
    are the vertices reachable from the source in the residual graph.
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

    The fit is exact up to the int32 quantization of near-ties.  Rounding
    moves any upper set's integer gain by at most ``|B| / 2`` steps of
    ``2**-30`` of the block's positive gains, so two things can differ from
    the exact projection, both only when closure gains are that close: a
    positive closure gain below about ``|B|`` steps can be missed, leaving
    the block at its mean, and a cut with positive gain that falls short of
    the maximum by less than that can be taken.  A measured miss: on the
    40^3 lattice with ``y = default_rng(0).standard_normal(64000)``, a level
    set of 8969 vertices has an upper set of float gain 9.14e-5 and is 9.14e-5
    off Dykstra in sup-norm; the fit passes the certificate at its default
    tolerance (relative reconstruction 5.1e-7), and re-solving the level set
    returns it bitwise.  ``iterations`` counts levels: one for isotonic or
    constant data.
    """
    w = problem.weights
    n = problem.dag.n_vertices
    unit = _binary_unit(problem.y)
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
        q = np.rint(g * scale[label]).astype(np.int64)
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
    theta = _pool_violators(theta, label, w, ys, eu, ev) / unit
    return _result_from_theta(problem, theta, iterations=levels)


# ---------------------------------------------------------------------------
# Dykstra on general DAGs


def _dykstra_plan(dag: Dag) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cover edges grouped into families of vertex-disjoint paths.

    Edges are scanned in topological order of the source vertex and greedily
    assigned to the first family in which the source has no outgoing and the
    target no incoming edge yet, so each family is a disjoint union of
    monotone paths.  Projecting onto the isotonic set of one family is then
    an exact pooling pass along each of its paths, and Dykstra cycles over
    the few families instead of over single edges -- on a total order the
    single family makes the first sweep exact.

    Returns a list of ``(indices, segment_ids)`` pairs per family: vertex
    ids of the family's paths laid head-to-tail, and the path number of each
    position.  Cached on the dag.
    """
    plan = dag.__dict__.get("_dykstra_plan")
    if plan is not None:
        return plan
    edges = dag.cover_edges
    plan = []
    if edges.size:
        pos = np.empty(dag.n_vertices, dtype=np.int64)
        pos[dag.topo_order] = np.arange(dag.n_vertices)
        order = np.lexsort((pos[edges[:, 1]], pos[edges[:, 0]]))
        out_used: list[set] = []
        in_used: list[set] = []
        fam_edges: list[list[tuple[int, int]]] = []
        for u, v in edges[order].tolist():
            for k in range(len(fam_edges)):
                if u not in out_used[k] and v not in in_used[k]:
                    break
            else:
                k = len(fam_edges)
                out_used.append(set())
                in_used.append(set())
                fam_edges.append([])
            out_used[k].add(u)
            in_used[k].add(v)
            fam_edges[k].append((u, v))
        for k, fe in enumerate(fam_edges):
            succ = dict(fe)
            heads = sorted(set(u for u, _ in fe) - in_used[k])
            idx = []
            seg = []
            for s, h in enumerate(heads):
                node = h
                idx.append(node)
                seg.append(s)
                while node in succ:
                    node = succ[node]
                    idx.append(node)
                    seg.append(s)
            plan.append((np.asarray(idx, dtype=np.int64), np.asarray(seg, dtype=np.int64)))
    dag.__dict__["_dykstra_plan"] = plan
    return plan


def _paths_pava(values: np.ndarray, weights: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Isotonic fit along each segment independently, via one pooled pass.

    Segments are made non-interacting by adding a per-segment offset of twice
    the data range, so a single C-level pooling call fits them all.  The
    offset must be proportional to the range, not an absolute constant: a
    constant would swamp data whose magnitude is far below it and quantize
    every pooled mean to its ulp, stalling Dykstra short of convergence.
    """
    if values.size == 0 or seg[-1] == 0:
        return isotonic_regression(values, weights=weights).x
    span = float(values.max() - values.min())
    off = seg * (2.0 * span)
    fitted = isotonic_regression(values + off, weights=weights)
    return fitted.x - off


def project_dykstra(problem: IsotonicProblem, tol: float = DEFAULT_TOL,
                    max_sweeps: int = DEFAULT_MAX_SWEEPS) -> ProjectionResult:
    """Exact cone projection by Dykstra's cyclic algorithm with corrections.

    Sweeps cycle over the path families of :func:`_dykstra_plan`; before
    each family projection the family's stored correction vector is added
    back, which is what makes the cycle converge to the projection of ``y``
    rather than just some feasible point.

    Convergence is declared when, after a sweep, (i) the largest edge
    violation is at most ``tol``, (ii) the inner-product gap
    ``|<y - theta, theta>_w|`` is at most ``tol * |y|_w^2`` (both sides
    measured after an exact power-of-two rescale of the data to unit binary
    magnitude, which keeps the test meaningful when ``|y|_w^2`` would
    under- or overflow), and (iii) the sweep moved no coordinate by more
    than ``tol``.  A sweep that leaves the
    iterate and every correction vector bitwise unchanged is an exact
    floating-point fixed point: no later sweep can move it, and a stationary
    iterate is feasible for every family, so it is accepted as the
    projection even if the gap test is stricter than roundoff allows.

    Raises
    ------
    ConvergenceError
        After ``max_sweeps`` sweeps; the exception's ``result`` holds the
        final iterate and its diagnostics.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be >= 1")
    y = problem.y
    w = problem.weights
    theta = y.copy()
    families = _dykstra_plan(problem.dag)
    corrections = [np.zeros(len(idx)) for idx, _ in families]
    fam_weights = [w[idx] for idx, _ in families]
    edges = problem.dag.cover_edges
    eu = edges[:, 0] if edges.size else np.zeros(0, dtype=np.int64)
    ev = edges[:, 1] if edges.size else np.zeros(0, dtype=np.int64)
    # The gap test compares |<y - theta, theta>_w| against tol * |y|_w^2.
    # Both sides are evaluated after an exact power-of-two rescale of the
    # data to unit binary magnitude: for well-scaled data every product
    # scales by the same exact factor and the decisions are unchanged, but
    # |y|_w^2 can no longer underflow to zero (which would turn the test
    # into the vacuous 0 <= 0 for data below ~1e-154) or overflow.
    unit = _binary_unit(y)
    ys = y * unit
    gap_tol = tol * float(np.dot(w * ys, ys))
    max_violation = change = 0.0
    sweeps = 0
    stalled_corrections = None
    for sweeps in range(1, max_sweeps + 1):
        prev = theta.copy()
        for k, (idx, seg) in enumerate(families):
            z = theta[idx] + corrections[k]
            fitted = _paths_pava(z, fam_weights[k], seg)
            theta[idx] = fitted
            corrections[k] = z - fitted
        max_violation = float(np.max(theta[eu] - theta[ev], initial=0.0))
        ts = theta * unit
        gap = float(abs(np.dot(w * (ys - ts), ts)))
        change = float(np.max(np.abs(theta - prev), initial=0.0))
        if max_violation <= tol and gap <= gap_tol and change <= tol:
            break
        if change == 0.0:
            if stalled_corrections is not None and all(
                    np.array_equal(c, s)
                    for c, s in zip(corrections, stalled_corrections)):
                break  # exact fixed point of the sweep map
            stalled_corrections = [c.copy() for c in corrections]
        else:
            stalled_corrections = None
    else:
        result = _result_from_theta(problem, theta, iterations=max_sweeps)
        raise ConvergenceError(
            f"no convergence in {max_sweeps} sweeps (violation {max_violation:.2e}, "
            f"gap {result.inner_product_gap:.2e}, change {change:.2e})", result)
    return _result_from_theta(problem, theta, iterations=sweeps)


# ---------------------------------------------------------------------------
# min-max oracle


def minmax_project_oracle(problem: IsotonicProblem) -> np.ndarray:
    """Projection by the min-max formula over upper and lower sets.

    ``theta_i = min over lower sets L containing i of max over upper sets U
    containing i of the weighted mean of y over L intersect U``.  Exponential
    enumeration -- inherits the vertex cap of :func:`upper_set_masks`.
    """
    dag = problem.dag
    n = dag.n_vertices
    uppers = np.asarray(upper_set_masks(dag), dtype=np.int64)
    full = (1 << n) - 1
    lowers = full & ~uppers
    wy = problem.weights * problem.y
    wsum = np.zeros(1 << n)
    wysum = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        lsb = mask & -mask
        i = lsb.bit_length() - 1
        rest = mask ^ lsb
        wsum[mask] = wsum[rest] + problem.weights[i]
        wysum[mask] = wysum[rest] + wy[i]
    theta = np.empty(n)
    for i in range(n):
        bit = 1 << i
        Ls = lowers[(lowers & bit) > 0]
        Us = uppers[(uppers & bit) > 0]
        best = np.inf
        # chunk the (L, U) grid to keep the intersection matrix small
        for s in range(0, Ls.size, 256):
            inter = Ls[s:s + 256, None] & Us[None, :]
            means = wysum[inter] / wsum[inter]
            best = min(best, float(means.max(axis=1).min()))
        theta[i] = best
    return theta


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
    unit = _binary_unit(problem.y)
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


def lse_fit(dag: Dag, y, weights=None) -> ProjectionResult:
    """Weighted least-squares isotonic fit on a DAG: the exact projection.

    A chain goes to scipy's pool-adjacent-violators along ``dag.topo_order``;
    every other order goes to :func:`project_partition`.  ``weights``
    defaults to the dag's multiplicities.  For the iterative and exhaustive
    cross-checks, call :func:`project_dykstra` or
    :func:`minmax_project_oracle` on an :class:`IsotonicProblem`.
    """
    problem = IsotonicProblem(dag, y, weights)
    if not is_chain(dag):
        return project_partition(problem)
    # at unit binary scale, so the pooled weighted sums cannot overflow
    unit = _binary_unit(problem.y)
    order = dag.topo_order
    theta = np.empty_like(problem.y)
    theta[order] = isotonic_regression(problem.y[order] * unit,
                                       weights=problem.weights[order]).x / unit
    return _result_from_theta(problem, theta, iterations=1)


def _result_from_theta(problem: IsotonicProblem, theta: np.ndarray,
                       iterations: int) -> ProjectionResult:
    edges = problem.dag.cover_edges
    if edges.size:
        max_violation = float(np.max(theta[edges[:, 0]] - theta[edges[:, 1]], initial=0.0))
    else:
        max_violation = 0.0
    # Evaluated at unit binary scale, which is exact for ordinary data; near
    # the ends of the float range the Python division reads 0 or inf
    # instead of warning of under- or overflow.
    unit = _binary_unit(problem.y)
    ts = theta * unit
    gap = float(abs(np.dot(problem.weights * (problem.y * unit - ts), ts))) / unit / unit
    return ProjectionResult(theta_hat=theta, residual=problem.y - theta,
                            iterations=iterations, max_violation=max_violation,
                            inner_product_gap=gap)
