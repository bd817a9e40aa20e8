"""Finite partial orders as DAGs: lattices, design orders, antichains.

A partial order on ``{0, ..., n-1}`` is stored as a :class:`Dag` holding the
cover edges (the transitive reduction).  A topological order and
reachability -- the full order relation -- are computed when first read and
cached.

Two constructors cover the cases used throughout the package:

* :func:`build_lattice` builds the grid order on ``{1..n_1} x ... x {1..n_d}``
  where ``u <= v`` iff the inequality holds coordinatewise.
* :func:`build_design_dag` builds the induced order on a finite set of points
  in ``[0, 1]^d``, merging exact duplicates into weighted vertices, after
  the package's one point check (nonempty, finite, inside the cube).  For
  ``d <= 2`` one sweep of the points of the plane (a line's points as the
  diagonal ``(x, x)``, a chain that needs only its sort) gives the cover
  edges with no n x n matrix, and the points are stored as the order's
  planar proof.  Higher dimensions, :meth:`Dag.from_edges` and the
  constructor's check read the covers off the closure packed 64 vertices
  per word (``_covers``): O(m n / 64) word operations and n^2/8 bytes.

:func:`maximum_antichain` returns a maximum antichain with a chain cover of
the same size: by patience sorting in O(n log n) on an order that is planar
dominance of its labels (one label column counts as the plane's diagonal),
proved by the points it was built from or by one sweep cached on first use,
and by one maximum flow on the cover edges otherwise (Dilworth via Ford &
Fulkerson).  Neither reads the closure.  Both compute the antichain and its
splits at once and build the chain cover when it is first read.
:func:`planar_width` gives the width of points of the plane as the number of
patience piles, with no order and no report built.  The sweep and the piles
take the points in one ``(x, y)`` order, ``_sweep_order``'s, which sorts by
x alone when no two x are equal.

Vertex ids are always 0-based integers; lattice vertex labels are 1-based
coordinate tuples laid out in row-major (C) order, last coordinate fastest.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, maximum_flow

LATTICE_VERTEX_CAP = 1_000_000


class SizeCapError(ValueError):
    """A requested combinatorial construction exceeds its configured cap."""


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be a sequence of (u, v) pairs")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr``: the dag cannot be changed through the
    caller's array, and the caller's array stays writable."""
    return _frozen(arr.copy())


def _topological_order(ptr: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Kahn's algorithm on the successor array ``(ptr, heads)`` of
    :attr:`Dag._succ`: sources popped lowest id first, heads in edge order.
    Raises ValueError on a cycle."""
    n = len(ptr) - 1
    indeg = np.bincount(heads, minlength=n).tolist()
    ptr, heads = ptr.tolist(), heads.tolist()
    stack = [u for u in range(n - 1, -1, -1) if indeg[u] == 0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in heads[ptr[u]:ptr[u + 1]]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(order) != n:
        raise ValueError("edge set contains a cycle")
    return np.asarray(order, dtype=np.int64)


class Dag:
    """Immutable DAG in transitive reduction, representing a partial order.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; ids are ``0..n_vertices-1``.
    cover_edges : array-like of shape (m, 2)
        Cover relations ``u -> v`` meaning ``u < v`` with nothing in between.
        Must already be transitively reduced; use :meth:`from_edges` to
        reduce an arbitrary acyclic relation first.
    labels : array-like of shape (n, d), optional
        Coordinate labels (lattice tuples or design points).
    multiplicities : array-like of shape (n,), optional
        Positive finite vertex weights, as merged duplicate points give;
        they are the weights of every fit on the dag.  ``None`` means all
        ones.

    Instances are immutable after construction and safe to share across
    concurrent readers.  ``cover_edges`` is a read-only int64 copy of the
    given edges.  The successor array, the topological order, reachability
    and the planar proof are computed when first read and cached; Kahn's
    pass, the packed closure and :func:`longest_chain` walk the one
    successor array, with no per-vertex lists.  Two concurrent first reads may
    each compute a value, and both get the same one.  The constructor checks
    that the edges are reduced and acyclic: by one planar sweep when the
    labels' dominance order has exactly these cover edges, and otherwise on
    the packed closure.  An order from :func:`build_design_dag`
    also carries ``_merge``, the read-only ``(firsts, inverse)`` of
    :func:`merge_duplicates` that merged its points.
    """

    def __init__(self, n_vertices, cover_edges, labels=None, multiplicities=None,
                 _skip_reduction_check=False):
        n = int(n_vertices)
        if n <= 0:
            raise ValueError("n_vertices must be positive")
        edges = _as_edge_array(cover_edges)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        if edges.size and np.any(edges[:, 0] == edges[:, 1]):
            raise ValueError("self-loop in edge list")
        self.n_vertices = n
        self.cover_edges = _frozen_copy(edges)
        if labels is not None:
            labels = np.asarray(labels)
            if labels.ndim == 1:
                labels = labels.reshape(n, 1)
            if labels.shape[0] != n:
                raise ValueError("labels must have one row per vertex")
            labels = _frozen_copy(labels)
        self.labels = labels
        if multiplicities is not None:
            multiplicities = np.asarray(multiplicities, dtype=float)
            if multiplicities.shape != (n,):
                raise ValueError("multiplicities must have shape (n,)")
            if not np.all(np.isfinite(multiplicities)) or np.any(multiplicities <= 0):
                raise ValueError("multiplicities must be positive and finite")
            multiplicities = _frozen_copy(multiplicities)
        self.multiplicities = multiplicities
        # a sweep's covers are reduced and acyclic; any other edges are
        # checked on the packed closure, whose topological order rejects a cycle
        if not _skip_reduction_check and edges.size and self._planar_points is None:
            if not _same_edges(_covers(self.topo_order, self._reach), edges, n):
                raise ValueError("cover_edges are not transitively reduced")

    # -- derived structure -------------------------------------------------

    @cached_property
    def topo_order(self) -> np.ndarray:
        """A topological order of the vertices, by Kahn's algorithm (cached).

        Raises ``ValueError`` if the edges contain a cycle.
        """
        return _frozen(_topological_order(*self._succ))

    @cached_property
    def _succ(self) -> tuple[np.ndarray, np.ndarray]:
        """The cover-edge successors as one array (cached): vertex ``u``'s are
        ``heads[ptr[u]:ptr[u + 1]]``, in edge order."""
        tails, heads = self.cover_edges.T
        ptr = np.r_[0, np.cumsum(np.bincount(tails, minlength=self.n_vertices))]
        return _frozen(ptr), _frozen(heads[np.argsort(tails, kind="stable")])

    @cached_property
    def _reach(self) -> np.ndarray:
        """The strict up-sets packed for :func:`_covers`, rows and columns in
        ``topo_order``: each row ORs its successors', then drops itself."""
        ids, pos = np.arange(self.n_vertices), np.argsort(self.topo_order)
        ptr, heads = self._succ
        ptr, heads = ptr.tolist(), pos[heads]   # each head as its row
        bit = np.uint64(1) << (ids % 64).astype(np.uint64)
        up = np.zeros((len(ids), -(-len(ids) // 64)), dtype=np.uint64)
        for p, u in zip(ids[::-1].tolist(), self.topo_order[::-1].tolist()):
            np.bitwise_or.reduce(up[heads[ptr[u]:ptr[u + 1]]], axis=0, out=up[p])
            up[p, p // 64] |= bit[p]
        up[ids, ids // 64] ^= bit
        return _frozen(up)

    @cached_property
    def _reach_matrix(self) -> np.ndarray:
        pos = np.argsort(self.topo_order)
        return _frozen(np.unpackbits(self._reach.view(np.uint8), axis=1, count=self.n_vertices,
                                     bitorder="little")[np.ix_(pos, pos)].view(bool))

    @cached_property
    def _planar_points(self) -> np.ndarray | None:
        """The labels as float points if they realize the order in the plane.

        They do when the labels are one or two finite numeric columns (one
        column ``x`` is read as the point ``(x, x)``) and the planar sweep's
        covers of those points equal the cover edges, in count and as a
        set; otherwise ``None``.  :func:`build_design_dag` and, for ``d <= 2``,
        :func:`build_lattice` store the points their orders are dominance
        of, so those orders are never swept to prove them.
        """
        labels = self.labels
        if labels is None or labels.shape[1] not in (1, 2) or labels.dtype.kind not in "iuf":
            return None
        pts = labels[:, [0, -1]].astype(float)
        if not np.all(np.isfinite(pts)) or not _same_edges(_planar_covers(pts),
                                                           self.cover_edges, len(pts)):
            return None
        return pts

    def reachability(self) -> np.ndarray:
        """Strict reachability matrix: ``R[u, v]`` iff ``u < v``.

        Unpacked from the packed closure on first use and cached; do not
        mutate it.  Quadratic memory, for small orders; the package never reads it.
        """
        return self._reach_matrix

    def is_comparable(self, u: int, v: int) -> bool:
        r = self.reachability()
        return bool(r[u, v] or r[v, u])

    def weights(self) -> np.ndarray:
        if self.multiplicities is None:
            return np.ones(self.n_vertices)
        return np.asarray(self.multiplicities, dtype=float)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n_vertices, edges, labels=None, multiplicities=None) -> "Dag":
        """Build a Dag from an arbitrary acyclic relation.

        The edge list may contain transitively redundant pairs; the stored
        cover edges are the transitive reduction of its closure.
        """
        n = int(n_vertices)
        # the constructor checks range and self-loops on the raw edges, and
        # packing their closure runs Kahn's pass, which rejects a cycle
        raw = cls(n, edges, _skip_reduction_check=True)
        return cls(n, _covers(raw.topo_order, raw._reach), labels=labels,
                   multiplicities=multiplicities, _skip_reduction_check=True)


def disjoint_copies(dag: Dag, copies: int) -> Dag:
    """The order of ``copies`` side-by-side copies of ``dag``, none comparable
    with another.

    Copy ``i`` holds vertices ``i*n .. (i+1)*n - 1``; its cover edges and
    multiplicities are those of ``dag``, offset by ``i*n``.  ``dag`` already
    passed the cycle and reduction checks, and a disjoint union of reduced
    orders is reduced, so the check is skipped.  The union's topological
    order, if read, is ``dag``'s tiled copy by copy: Kahn's stack finishes
    one copy before it pops a source of the next.  The copies carry no
    labels.  One copy is ``dag`` itself.
    """
    copies = int(copies)
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if copies == 1:
        return dag
    n = dag.n_vertices
    offsets = n * np.arange(copies, dtype=np.int64)
    edges = (dag.cover_edges[None] + offsets[:, None, None]).reshape(-1, 2)
    mult = None if dag.multiplicities is None else np.tile(dag.multiplicities, copies)
    return Dag(n * copies, edges, multiplicities=mult, _skip_reduction_check=True)


def _edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Edges ``(u, v)`` on ``0..n-1`` as int64 keys ``u * n + v``, which sort
    in row-major order."""
    return u * n + v


def _row_major(keys: np.ndarray, n: int) -> np.ndarray:
    """The edges of :func:`_edge_keys`' ``keys``, int64 and row-major."""
    u, v = np.divmod(np.sort(keys), n)
    return np.stack([u, v], axis=1).astype(np.int64, copy=False)


_BLOCK = 256   # rows of a packed closure built or scanned at once


def _points_closure(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lexicographic order of distinct points, which extends their
    dominance order, and their strict up-sets packed in it for :func:`_covers`."""
    order = np.lexsort(pts.T)
    cols, n = np.ascontiguousarray(pts[order].T), len(order)
    up = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    for a in range(0, n, _BLOCK):   # only later points lie above: columns from a on
        le = np.all(cols[:, a:a + _BLOCK, None] <= cols[:, None, a:], axis=0)
        np.fill_diagonal(le, False)
        bits = np.packbits(le, axis=1, bitorder="little")   # column a is byte a // 8's bit 0
        up.view(np.uint8)[a:a + _BLOCK, a // 8:a // 8 + bits.shape[1]] = bits
    return order, up


def _covers(order: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Cover edges, int64 and row-major, of the order with linear extension
    ``order`` and strict up-sets ``up``: row ``p`` for ``order[p]``, position
    ``q`` as bit ``q % 64`` of ``uint64`` word ``q // 64``.

    The covers of u are the minimal elements of its up-set: in ``order``, the
    first one not above a cover already found is one; take it, drop it and
    its up-set, repeat.  A step takes ``_BLOCK`` rows, one argmax over words
    and one gathered OR: O(m n / 64) word operations for m covers."""
    n = len(order)
    keys = [np.zeros(0, dtype=np.int64)]
    for a in range(0, n, _BLOCK):
        lo = a // 64   # up-sets of rows from a on hold no bit before word lo
        rest, rows = up[a:a + _BLOCK, lo:], np.arange(a, min(a + _BLOCK, n))
        while (live := rest.any(axis=1)).any():
            rest, rows = rest[live], rows[live]   # a copy: ``up`` stays as it is
            i, k = np.arange(len(rows)), np.argmax(rest != 0, axis=1)
            low = rest[i, k] & (~rest[i, k] + np.uint64(1))   # the lowest set bit
            q = 64 * (lo + k) + np.frexp(low.astype(float))[1] - 1
            keys.append(_edge_keys(order[rows], order[q], n))
            rest[i, k] ^= low
            rest &= ~up[q, lo:]
    return _row_major(np.concatenate(keys), n)


def _same_edges(a: np.ndarray, b: np.ndarray, n: int) -> bool:
    """True iff two edge lists on ``0..n-1`` hold the same ``(u, v)`` pairs,
    counted with multiplicity, in any order (one int64 key per edge)."""
    return np.array_equal(*(np.sort(_edge_keys(*e.T, n)) for e in (a, b)))


# Rows of the planar sweep handled at once; its memory is O(n * _SWEEP_ROWS).
_SWEEP_ROWS = 128


def _planar_covers(pts: np.ndarray) -> np.ndarray:
    """Cover edges of the dominance order on points of the plane, no n x n matrix.

    One sweep over the points in ``(x, y)`` order, ``_sweep_order``'s (Kung,
    Luccio & Preparata 1975).  Of two distinct points only the earlier can
    lie below the later (equal points are ordered by index), and point ``q``
    covers an earlier point ``p`` iff ``y_q >= y_p`` and ``y_q`` is strictly
    below the y of every candidate between them, a point ``k`` with
    ``p < k < q`` and ``y_k >= y_p``.  So along row ``p`` the covers are the
    strict new minima of the running minimum over the candidates.  Rows are
    swept in chunks of ``_SWEEP_ROWS``; if the sorted y never decreases (a
    line's ``(x, x)`` always), the points are a chain whose covers are its
    consecutive pairs, with no sweep.  For distinct points the edges are
    the dominance order's covers in row-major ``(u, v)`` order, as
    :func:`_covers` gives them.
    """
    order = _sweep_order(pts)
    n = len(order)
    ys = pts[order, 1]
    if np.all(ys[1:] >= ys[:-1]):   # a chain: each point covers the one before
        return _row_major(_edge_keys(order[:-1], order[1:], n), n)
    # y as int32 ranks (equal y, equal rank): the running minimum is cheaper
    y = np.unique(ys, return_inverse=True)[1].astype(np.int32)
    keys = []
    for a in range(0, n - 1, _SWEEP_ROWS):
        k = min(_SWEEP_ROWS, n - 1 - a)
        later = y[a + 1:]
        # row r is point a + r, column c is point a + 1 + c; n marks no candidate
        cand = np.where(later >= y[a:a + k, None], later, np.int32(n))
        cand[:, :k][np.tri(k, k, -1, dtype=bool)] = n   # columns not after the row
        low = np.minimum.accumulate(cand, axis=1)
        cover = np.empty(low.shape, dtype=bool)
        cover[:, 0] = low[:, 0] < n
        np.less(low[:, 1:], low[:, :-1], out=cover[:, 1:])
        r, c = np.divmod(np.flatnonzero(cover), n - 1 - a)
        keys.append(_edge_keys(order[a + r], order[a + 1 + c], n))
    return _row_major(np.concatenate(keys), n)


# ---------------------------------------------------------------------------
# lattices


@dataclass(frozen=True)
class LatticeSpec:
    """Axis-aligned grid ``{1..n_1} x ... x {1..n_d}`` under the product order."""

    side_lengths: tuple[int, ...]

    def __post_init__(self):
        if len(self.side_lengths) < 1:
            raise ValueError("need at least one dimension")
        if any(int(s) < 1 for s in self.side_lengths):
            raise ValueError("side lengths must be >= 1")
        object.__setattr__(self, "side_lengths", tuple(int(s) for s in self.side_lengths))

    @classmethod
    def cube(cls, d: int, n1: int) -> "LatticeSpec":
        if d < 1:
            raise ValueError("d must be >= 1")
        return cls((int(n1),) * int(d))

    @property
    def d(self) -> int:
        return len(self.side_lengths)

    @property
    def n(self) -> int:
        return int(np.prod([int(s) for s in self.side_lengths], dtype=object))


def lattice_vertices(spec: LatticeSpec) -> np.ndarray:
    """1-based coordinate tuples of all vertices, row-major order, shape (n, d)."""
    grids = np.meshgrid(*[np.arange(1, s + 1) for s in spec.side_lengths], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)


def lattice_index(spec: LatticeSpec, vertex: tuple[int, ...]) -> int:
    """Vertex id of a 1-based coordinate tuple."""
    if len(vertex) != spec.d:
        raise ValueError("tuple dimension mismatch")
    idx = 0
    for x, s in zip(vertex, spec.side_lengths):
        if not 1 <= x <= s:
            raise ValueError(f"coordinate {x} outside 1..{s}")
        idx = idx * s + (x - 1)
    return idx


def build_lattice(spec: LatticeSpec) -> Dag:
    """Grid order on the lattice: ``u <= v`` iff coordinatewise.

    Cover edges step +1 in exactly one coordinate, so a full cube
    ``d, n_1`` has ``d (n_1 - 1) n_1^(d-1)`` of them.  For ``d <= 2`` the
    order is dominance of its labels in the plane, and the dag stores them
    as float points (a line's as ``(x, x)``), as :func:`build_design_dag`
    does, so :func:`maximum_antichain` takes the planar route with no sweep
    to prove it.

    Raises
    ------
    SizeCapError
        If ``spec.n`` exceeds ``LATTICE_VERTEX_CAP``.
    """
    n = spec.n
    if n > LATTICE_VERTEX_CAP:
        raise SizeCapError(
            f"lattice has {n} vertices, above the cap of {LATTICE_VERTEX_CAP}")
    ids = np.arange(n).reshape(spec.side_lengths)
    # the step along axis j joins each vertex but the last of its line to the next
    edges = [np.stack([np.delete(ids, -1, axis=j).ravel(), np.delete(ids, 0, axis=j).ravel()],
                      axis=1) for j, s in enumerate(spec.side_lengths) if s > 1]
    cover = np.concatenate(edges) if edges else np.zeros((0, 2), dtype=np.int64)
    dag = Dag(n, cover, labels=lattice_vertices(spec), _skip_reduction_check=True)
    if spec.d <= 2:
        dag._planar_points = dag.labels[:, [0, -1]].astype(float)
    return dag


def merge_duplicates(points) -> tuple[np.ndarray, np.ndarray]:
    """Merge the equal rows of an ``(n, d)`` array of points.

    Returns ``(firsts, inverse)``: the row of each distinct point's first
    occurrence, in first-occurrence order, and for every row the position
    of its point in ``firsts``, so ``points[firsts][inverse]`` equals
    ``points`` and ``bincount(inverse)`` holds the multiplicities.  Rows
    merge when they are equal as tuples of floats, so ``-0.0`` and ``0.0``
    are one point and a row holding ``nan`` merges with none.
    """
    pts = np.asarray(points)
    # the stable sort puts equal rows next to each other, each group in
    # input order, so a group's first row is its first occurrence
    order = np.lexsort(pts.T)
    rows = pts[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    firsts = order[starts]
    rank = np.empty(len(firsts), dtype=np.int64)
    rank[np.argsort(firsts)] = np.arange(len(firsts))
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = rank[np.cumsum(starts) - 1]
    return np.sort(firsts), inverse


def _cube_points(points) -> np.ndarray:
    """``points`` as a float ``(n, d)`` array (one column for a 1-d array): the
    package's one check that points are nonempty, finite and in ``[0, 1]^d``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, d) array")
    if not np.all((pts >= 0.0) & (pts <= 1.0)):   # also false for nan
        raise ValueError("points must be finite and lie in [0, 1]^d")
    return pts


def build_design_dag(points) -> Dag:
    """Partial order induced on points of ``[0, 1]^d`` by coordinatewise <=.

    Equal points are merged by :func:`merge_duplicates` into one vertex
    carrying a multiplicity weight; that merge, read-only, is kept as the
    dag's ``_merge``, the one attribute only design orders carry.  Vertices
    keep the first-occurrence order of the input.  The points are checked by
    :func:`_cube_points`, which rejects non-finite coordinates.

    The cover edges are built by one of two routes, chosen by ``d``:

    * ``d <= 2``: one sweep over the points sorted by ``(x, y)``, in chunks
      of rows, so memory is O(n) per row.  A point ``x`` of the line is read
      as ``(x, x)``; the labels keep one column.  The points are stored as
      the dag's planar proof, so :func:`maximum_antichain` sweeps nothing
      more.  A chain of points, as a line's always is, needs only the sort;
      otherwise the O(n^2) sweep runs here (0.32-0.42 s for 10^4 uniform
      points on 2 cores), also for a caller that wants the width alone,
      which :func:`planar_width` gives with no order built.
    * ``d >= 3``: the strict up-sets of the distinct points in lexicographic
      order, bit-packed in blocks of rows, and the covers read off them:
      O(m n / 64) word operations and n^2/8 bytes for m cover edges.

    Both give the same cover edges in the same row-major ``(u, v)`` order
    with no n x n matrix, and keep no closure.
    """
    pts = _cube_points(points)
    firsts, inverse = merge_duplicates(pts)
    mult = np.bincount(inverse)
    uniq = pts[firsts]
    n = uniq.shape[0]
    planar = None
    if uniq.shape[1] <= 2:
        planar = uniq[:, [0, -1]]
        cover = _planar_covers(planar)
    else:
        cover = _covers(*_points_closure(uniq))
    dag = Dag(n, cover, labels=uniq,
              multiplicities=mult if mult.max() > 1 else None,
              _skip_reduction_check=True)
    dag._planar_points = planar
    dag._merge = (_frozen_copy(firsts), _frozen_copy(inverse))
    return dag


# ---------------------------------------------------------------------------
# isotonic feasibility


def is_isotonic(dag: Dag, theta, tol: float = 0.0) -> bool:
    """True iff ``theta[u] <= theta[v] + tol`` across every cover edge."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dag.n_vertices,):
        raise ValueError("theta length does not match vertex count")
    u, v = dag.cover_edges.T
    return bool(np.all(theta[u] <= theta[v] + tol))


# ---------------------------------------------------------------------------
# antichains and chain covers


@dataclass(frozen=True, eq=False)
class AntichainReport:
    """A maximum antichain with its Dilworth certificate and order splits.

    ``antichain`` is a sorted vertex id array W; ``upper_split`` /
    ``lower_split`` partition the remaining vertices into those strictly
    above some element of W and the rest, with no element of W above
    anything in ``upper_split``.  ``chains``, when given, builds a vertex
    partition into ``len(antichain)`` chains witnessing maximality;
    ``chain_cover`` is that partition, built on its first read and cached,
    or ``None`` when the report was built from a known antichain without
    running :func:`maximum_antichain`.  ``repr`` and ``dataclasses.replace``
    never read the cover, so a caller that wants the antichain alone never
    pays for it.  Two concurrent first reads may each build the cover, and
    both get the same chains.  Reports compare and hash by identity, as
    their array fields have no single truth value.
    """

    antichain: np.ndarray
    upper_split: np.ndarray
    lower_split: np.ndarray
    chains: Callable[[], list] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def chain_cover(self) -> list | None:
        return None if self.chains is None else self.chains()

    def check_partition(self, n: int) -> None:
        """Raise ``ValueError`` unless the antichain and the two splits
        together hold each of the vertices ``0 .. n-1`` exactly once."""
        ids = np.sort(np.concatenate([self.antichain, self.upper_split, self.lower_split]))
        if ids.size != n or np.any(ids != np.arange(n)):
            raise ValueError("antichain and splits do not partition the vertices")


def maximum_antichain(dag: Dag) -> AntichainReport:
    """Maximum antichain with a chain cover of the same size, by one of two routes.

    Each route computes the antichain and both splits at once and returns a
    report that builds the chain cover on its first read (see
    :class:`AntichainReport`), so reading ``antichain`` alone costs the
    patience loop or the flow and its cut, nothing more.

    * Planar route, when the order is a dominance order of the plane:
      ``dag.labels`` are one or two finite numeric columns (one column ``x``
      is read as the point ``(x, x)``, so chains take this route) and the
      dag's cover edges are the planar sweep's covers of those points.  The
      proof is the dag's cached ``_planar_points``: :func:`build_design_dag`
      and :func:`build_lattice` store the points whose dominance order the
      dag is, and this route reads neither the sweep nor the edges; any
      other order is swept once on first use.
      With the points in ``(x, y)`` order, an antichain is a strictly
      decreasing run of y, and patience sorting finds a longest one in
      O(n log n); its piles are the chain cover (Aldous & Diaconis 1999),
      grouped on first read.  The splits come from the staircase of the
      antichain.
    * Flow route, for every other order: Dilworth's theorem by one maximum
      flow on the split cover network (Ford & Fulkerson 1962, ch. II): arcs
      source -> ``v_out`` and ``v_in`` -> sink of capacity 1, ``u_out`` ->
      ``v_in`` per cover edge and ``v_in`` -> ``v_out`` of capacity n.  The
      width is n minus the flow.  The capacity-n arcs never saturate, so the
      nodes S reached from the source in the residual graph are closed
      upward.  The antichain W is the vertices with ``v_out`` in S and
      ``v_in`` not; S is the minimal minimum cut, hence the up-closure of
      W's out-nodes, so ``upper_split`` is the vertices with ``v_in`` in S and
      ``lower_split`` those with ``v_out`` outside it.  Each unit of flow
      links the vertex it leaves the source at to the one it enters the
      sink at, and the links make the chains; tracing them reads the
      topological order, so an antichain alone never computes it.
    """
    pts = dag._planar_points
    if pts is None:
        return _flow_antichain(dag)
    return _patience_antichain(pts)


def planar_width(points) -> int | None:
    """Width of the dominance order on points of ``[0, 1]^d`` if ``d <= 2``.

    The width is the size of a maximum antichain of
    ``build_design_dag(points)``: the number of patience piles of the points
    as given (a point ``x`` of the line as ``(x, x)``), with no merge, no
    :class:`Dag`, no report and none of the O(n^2) sweep that building the
    order runs: equal points land on one pile, so duplicates change no
    width.  The points are checked as :func:`build_design_dag` checks them.
    Returns ``None`` for ``d >= 3``, where the order is not planar and
    :func:`maximum_antichain` of the built order gives the width.
    """
    pts = _cube_points(points)
    if pts.shape[1] > 2:
        return None
    return _patience_piles(pts[:, [0, -1]])[2]


def _sweep_order(pts: np.ndarray) -> np.ndarray:
    """``np.lexsort((y, x))`` of points of the plane, bitwise: ``np.argsort``
    of x alone when the sorted x is strictly increasing (no ties, no signed
    zeros, no nan), since then the permutation is unique."""
    x = pts[:, 0]
    order = np.argsort(x)
    xs = x[order]
    if np.all(xs[1:] > xs[:-1]):
        return order
    return np.lexsort((pts[:, 1], x))


def _patience_piles(pts: np.ndarray) -> tuple[np.ndarray, list[int], int]:
    """Patience sorting of the planar points ``pts`` by decreasing y in
    sweep order: the sweep order, each sweep position's pile and the number
    of piles, which is the width of the order (Aldous & Diaconis 1999)."""
    order = _sweep_order(pts)
    # pile k's top has the k-th smallest -y among pile tops; a point goes on
    # the first pile whose top it does not exceed, so each pile is a chain
    tops: list[float] = []
    pile: list[int] = []
    for z in (-pts[order, 1]).tolist():
        k = bisect_left(tops, z)
        if k == len(tops):
            tops.append(z)
        else:
            tops[k] = z
        pile.append(k)
    return order, pile, len(tops)


def _patience_antichain(pts: np.ndarray) -> AntichainReport:
    """Maximum antichain of the planar order on ``pts`` (see ``_planar_covers``)."""
    order, pile, width = _patience_piles(pts)
    n = len(pile)
    pile = np.asarray(pile, dtype=np.int64)
    pos = np.arange(n)
    # sweep positions pile by pile, each pile in sweep order
    keys = np.sort(pile * n + pos)
    by_pile = keys % n
    # a pile-k point was laid on the latest point of pile k - 1 before it;
    # from the last point of the last pile these give a strictly decreasing
    # run of y, one point per pile
    below = by_pile[np.searchsorted(keys, (pile - 1) * n + pos) - 1].tolist()
    run = [int(by_pile[-1])]
    for _ in range(width - 1):
        run.append(below[run[-1]])
    w_pos = np.asarray(run[::-1], dtype=np.int64)
    return AntichainReport(np.sort(order[w_pos]), *_staircase_splits(order, pts, w_pos),
                           chains=partial(_pile_chains, order, by_pile, pile))


def _pile_chains(order: np.ndarray, by_pile: np.ndarray,
                 pile: np.ndarray) -> list[np.ndarray]:
    """The patience piles as chains of vertex ids, each in sweep order;
    ``by_pile`` holds the sweep positions pile by pile."""
    return np.split(order[by_pile], np.cumsum(np.bincount(pile))[:-1])


def _staircase_splits(order: np.ndarray, pts: np.ndarray,
                      w_pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The splits of the antichain at sweep positions ``w_pos``."""
    y = pts[order, 1]
    n = len(y)
    # the last antichain point before p has the lowest y among those before p
    last = np.searchsorted(w_pos, np.arange(n)) - 1
    above = (last >= 0) & (y[w_pos[np.maximum(last, 0)]] <= y)
    in_w = np.zeros(n, dtype=bool)
    in_w[w_pos] = True
    return np.sort(order[above & ~in_w]), np.sort(order[~above & ~in_w])


def minimal_cut(net: csr_matrix, src: int, snk: int) -> tuple[csr_matrix, np.ndarray]:
    """One maximum flow (Dinic) on the integer capacities ``net``, and the
    nodes reached from ``src`` in its residual graph as a boolean mask: the
    source side of the minimal minimum cut, whatever maximum flow is found."""
    flow = maximum_flow(net, src, snk, method="dinic").flow
    residual = net - flow
    residual.eliminate_zeros()
    reached = np.zeros(net.shape[0], dtype=bool)
    reached[breadth_first_order(residual, src, return_predecessors=False)] = True
    return flow, reached


def _flow_antichain(dag: Dag) -> AntichainReport:
    """The flow route of :func:`maximum_antichain`, for any order."""
    n = dag.n_vertices
    eu, ev = dag.cover_edges[:, 0], dag.cover_edges[:, 1]
    ids = np.arange(n)
    src, snk = 2 * n, 2 * n + 1   # node v is v_out, node n + v is v_in
    net = csr_matrix(
        (np.r_[np.ones(n), np.full(eu.size + n, n), np.ones(n)].astype(np.int32),
         (np.r_[np.full(n, src), eu, n + ids, n + ids],
          np.r_[ids, n + ev, ids, np.full(n, snk)])),
        shape=(2 * n + 2, 2 * n + 2))
    flow, reached = minimal_cut(net, src, snk)
    out, up = reached[:n], reached[n:2 * n]
    return AntichainReport(np.flatnonzero(out & ~up), np.flatnonzero(up), np.flatnonzero(~out),
                           chains=partial(_flow_chains, dag, flow))


def _flow_chains(dag: Dag, flow: csr_matrix) -> list[np.ndarray]:
    """The chains of a maximum flow on ``dag``'s split cover network."""
    n = dag.n_vertices
    src, snk = 2 * n, 2 * n + 1
    # carry each unit of flow up the order from the vertex it left the
    # source at to the one it enters the sink at (row v_out's flow is
    # positive on v's cover arcs only), and link the two
    from_src = (flow[src, :n].toarray().ravel() > 0).tolist()
    to_snk = (flow[n:2 * n, snk].toarray().ravel() > 0).tolist()
    ptr, head, amount = flow.indptr.tolist(), flow.indices.tolist(), flow.data.tolist()
    carried: list[list[int]] = [[] for _ in range(n)]   # start vertices of units at v_in
    links = []
    for v in dag.topo_order.tolist():
        units = carried[v]
        if to_snk[v]:
            links.append((units.pop(), v))
        if from_src[v]:
            units.append(v)
        for w, k in zip(head[ptr[v]:ptr[v + 1]], amount[ptr[v]:ptr[v + 1]]):
            if k > 0:
                carried[w - n] += units[-k:]
                del units[-k:]
    u, v = np.asarray(links, dtype=np.int64).reshape(-1, 2).T
    chain_of = connected_components(csr_matrix((np.ones(u.size), (u, v)), shape=(n, n)),
                                    directed=False)[1]
    by_chain = dag.topo_order[np.argsort(chain_of[dag.topo_order], kind="stable")]
    starts = np.unique(chain_of[by_chain], return_index=True)[1]
    chains = np.split(by_chain, starts[1:])
    return [chains[i] for i in np.argsort(by_chain[starts])]


def level_cardinalities(spec: LatticeSpec) -> np.ndarray:
    """Counts of lattice vertices at each coordinate sum ``d .. sum(n_j)``."""
    poly = np.array([1], dtype=object)
    for s in spec.side_lengths:
        poly = np.convolve(poly, np.ones(s, dtype=object))
    return poly.astype(np.int64)


def level_antichain(spec: LatticeSpec, level="max") -> np.ndarray:
    """Vertex ids of the lattice antichain at a fixed coordinate sum.

    Parameters
    ----------
    spec : LatticeSpec
    level : int or "max"
        Coordinate-sum level in ``d .. sum(n_j)``.  ``"max"`` picks the level
        of largest cardinality, breaking ties toward the lower level.

    Returns
    -------
    ndarray
        Sorted vertex ids whose 1-based coordinates sum to ``level``.
    """
    lo, hi = spec.d, sum(spec.side_lengths)
    if level == "max":
        counts = level_cardinalities(spec)
        level = lo + int(np.argmax(counts))
    level = int(level)
    if not lo <= level <= hi:
        raise ValueError(f"level must lie in {lo}..{hi}")
    sums = lattice_vertices(spec).sum(axis=1)
    return np.flatnonzero(sums == level)


def level_antichain_report(spec: LatticeSpec, level="max") -> AntichainReport:
    """AntichainReport for a coordinate-sum antichain, splits by sum comparison.

    On a full lattice the vertices with coordinate sum above the level are
    exactly those above some antichain element, so this gives the splits of
    :func:`maximum_antichain` without running it.  ``chain_cover`` is left
    ``None``.
    """
    ids = level_antichain(spec, level)
    sums = lattice_vertices(spec).sum(axis=1)
    lev = sums[ids[0]]
    return AntichainReport(ids, np.flatnonzero(sums > lev), np.flatnonzero(sums < lev))


def longest_chain(dag: Dag) -> np.ndarray:
    """Vertex ids of a maximum chain, in increasing order."""
    n = dag.n_vertices
    best_len, best_next = [1] * n, [-1] * n
    ptr, heads = (a.tolist() for a in dag._succ)
    for u in dag.topo_order[::-1].tolist():
        for v in heads[ptr[u]:ptr[u + 1]]:
            if best_len[v] + 1 > best_len[u]:
                best_len[u] = best_len[v] + 1
                best_next[u] = v
    chain = [best_len.index(max(best_len))]   # the first maximum, as np.argmax
    while best_next[chain[-1]] >= 0:
        chain.append(best_next[chain[-1]])
    return np.asarray(chain, dtype=np.int64)
