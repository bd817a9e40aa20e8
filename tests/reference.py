"""Independent references for the projection tests.

The package computes the projection one way: pool-adjacent-violators on
chains and recursive partitioning on every other order
(``isodag.solvers.lse_fit``).  The tests check it against two solvers that
share no code with that route:

* :func:`project_dykstra` -- cyclic Dykstra projections over path families
  of the cover edges, iterative and stopped by tolerances;
* :func:`minmax_project_oracle` -- the closed-form min-max over upper and
  lower sets, exponential in n, from :func:`upper_set_masks`.

It also keeps :func:`greedy_code_words`, the word-by-word first-fit scan
that ``isodag.signals.packing_set_2d`` replaces with one mask over all
words, :func:`_transitive_reduction`, the dense O(n^3) reduction of a
closure matrix that ``isodag.orders._covers`` replaces with a scan of the
packed closure, and :func:`_topological_order`, Kahn's pass on per-vertex
lists of heads that ``isodag.orders._topological_order`` runs on the dag's
one successor array.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import isotonic_regression

from isodag.orders import Dag, SizeCapError
from isodag.solvers import (ConvergenceError, IsotonicProblem, ProjectionResult,
                            _result_from_theta)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_SWEEPS = 100_000

# Subset enumeration (upper/lower sets, min-max oracles) is exponential in n.
UPPER_SET_VERTEX_CAP = 12


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

    The sweeps run on ``y * problem.unit``, the data at unit binary
    magnitude, so neither the pooled sums nor the offsets of
    :func:`_paths_pava` nor ``|y|_w^2`` can under- or overflow.
    Convergence is declared when, after a sweep, (i) the largest edge
    violation is at most ``tol``, (ii) the inner-product gap
    ``|<y - theta, theta>_w|`` is at most ``tol * |y|_w^2``, and (iii) the
    sweep moved no coordinate by more than ``tol``, with ``tol`` in the
    data's units: (i) and (iii) compare against ``tol * unit``.  Scaling by
    a power of two is exact, so each test decides as it would on ``y``.
    A sweep that leaves the
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
    w = problem.weights
    unit = problem.unit
    ys = problem.y * unit
    theta = ys.copy()
    families = _dykstra_plan(problem.dag)
    corrections = [np.zeros(len(idx)) for idx, _ in families]
    fam_weights = [w[idx] for idx, _ in families]
    edges = problem.dag.cover_edges
    eu = edges[:, 0] if edges.size else np.zeros(0, dtype=np.int64)
    ev = edges[:, 1] if edges.size else np.zeros(0, dtype=np.int64)
    step_tol = tol * unit
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
        gap = float(abs(np.dot(w * (ys - theta), theta)))
        change = float(np.max(np.abs(theta - prev), initial=0.0))
        if max_violation <= step_tol and gap <= gap_tol and change <= step_tol:
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
        result = _result_from_theta(problem, theta, np.zeros(theta.size, dtype=bool),
                                    iterations=max_sweeps)
        raise ConvergenceError(
            f"no convergence in {max_sweeps} sweeps (violation {max_violation / unit:.2e}, "
            f"gap {result.inner_product_gap:.2e}, change {change / unit:.2e})", result)
    return _result_from_theta(problem, theta, np.zeros(theta.size, dtype=bool),
                              iterations=sweeps)



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
# upper/lower set enumeration


def upper_set_masks(dag: Dag) -> list[int]:
    """All upper sets as vertex bitmasks (bit i set iff vertex i in the set).

    Exponential enumeration; capped at ``UPPER_SET_VERTEX_CAP`` vertices.
    """
    n = dag.n_vertices
    if n > UPPER_SET_VERTEX_CAP:
        raise SizeCapError(
            f"upper set enumeration capped at {UPPER_SET_VERTEX_CAP} vertices, got {n}")
    reach = dag.reachability()
    succ = [int(sum(1 << v for v in np.nonzero(reach[u])[0])) for u in range(n)]
    out = []
    for mask in range(1 << n):
        m = mask
        ok = True
        while m:
            u = (m & -m).bit_length() - 1
            if succ[u] & ~mask:
                ok = False
                break
            m &= m - 1
        if ok:
            out.append(mask)
    return out


def enumerate_upper_lower_sets(dag: Dag):
    """All upper sets and all lower sets of the order, as frozensets.

    Both lists include the empty set and the full vertex set; lower sets are
    the complements of upper sets.  Same size cap as :func:`upper_set_masks`.
    """
    n = dag.n_vertices
    full = (1 << n) - 1
    uppers = upper_set_masks(dag)
    to_set = lambda m: frozenset(i for i in range(n) if m >> i & 1)
    upper_sets = [to_set(m) for m in uppers]
    lower_sets = [to_set(full & ~m) for m in uppers]
    return upper_sets, lower_sets


# ---------------------------------------------------------------------------
# greedy binary codes


def greedy_code_words(nbits: int, need: float) -> list[int]:
    """First-fit code over all ``2**nbits`` words in increasing order: a word
    is accepted iff its Hamming distance to every accepted word is at least
    ``need``.  One Python comparison per (word, accepted word) pair."""
    accepted: list[int] = []
    for word in range(1 << nbits):
        ok = True
        for c in accepted:
            if bin(word ^ c).count("1") < need:
                ok = False
                break
        if ok:
            accepted.append(word)
    return accepted


# ---------------------------------------------------------------------------
# dense transitive reduction


def _transitive_reduction(reach: np.ndarray) -> np.ndarray:
    """Cover edges of the strict order with closure matrix ``reach``, as
    int64 ``(u, v)`` rows in row-major order."""
    # edge (u, v) is a cover iff no w with u < w < v
    r = reach.astype(np.float32)
    two_step = (r @ r) > 0.5
    cover = reach & ~two_step
    return np.argwhere(cover).astype(np.int64)


# ---------------------------------------------------------------------------
# list-based Kahn's pass


def _topological_order(n: int, edges: np.ndarray) -> np.ndarray:
    """Kahn's algorithm; raises ValueError on a cycle."""
    indeg = [0] * n
    heads: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        heads[u].append(v)
        indeg[v] += 1
    stack = [u for u in range(n - 1, -1, -1) if indeg[u] == 0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in heads[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(order) != n:
        raise ValueError("edge set contains a cycle")
    return np.asarray(order, dtype=np.int64)
