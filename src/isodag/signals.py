"""Monotone signal constructions on lattices and the unit cube.

Generators for the isotonic ground truths used by the risk experiments:
constant, slab staircases, the normalized coordinate-sum plane, signals
depending on a subset of coordinates, and explicit grids.  Alongside them,
the combinatorial gadgets the lower-bound arguments are built from:

* two-valued perturbation families indexed by an antichain, for fixed
  designs on a DAG (:func:`assouad_fixed`) and for random designs on the
  cube via diagonal cells (:func:`assouad_random`);
* partitions of hyperrectangles into two-dimensional sheets and the
  associated complexity sums (:func:`sheet_decomposition`,
  :func:`k_sheet_bound`, :func:`min_sheet_partition_bruteforce`);
* piecewise-constant envelopes of a block-increasing function with the
  exact discretization integral (:func:`riemann_envelopes`);
* a greedy binary code on dyadic blocks giving a packing of the monotone
  cone's unit ball in two dimensions (:func:`packing_set_2d`).

Vectors live on lattice vertices in row-major order (see
:mod:`isodag.orders`); functions live pointwise on ``[0, 1]^d``.  The
functions built here accept ``(d,)`` or ``(m, d)`` arrays and refuse points
outside the cube, a non-finite coordinate included, by the one check of
:mod:`isodag.orders`.  A function handed in (to :func:`grid_values`,
:func:`riemann_envelopes`) must map an ``(m, d)`` array to ``m`` values;
anything else raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.spatial.distance import pdist

from .orders import (AntichainReport, Dag, LatticeSpec, SizeCapError, _cube_points,
                     lattice_vertices)

SIGNAL_KINDS = ("constant", "staircase", "linear_mean", "r_variable", "custom_grid")

SHEET_BRUTEFORCE_CAP = 16
PACKING_ELL_CAP = 4

_SNAP = 1e-9


@dataclass(frozen=True)
class SignalSpec:
    """Recipe for an isotonic ground-truth vector on a lattice.

    Use the classmethod constructors; ``generate_signal`` consumes the spec.
    With ``bounded`` set, the generated vector is divided by
    ``max(1, ||theta||_inf)`` so it lands in the unit sup-norm ball while
    staying isotonic.
    """

    kind: str
    value: float = 0.0
    axis: int = 0
    cuts: tuple[int, ...] = ()
    levels: tuple[float, ...] = ()
    axes: tuple[int, ...] = ()
    grid: tuple[float, ...] | None = None
    bounded: bool = False

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")

    @classmethod
    def constant(cls, value: float, bounded: bool = False) -> "SignalSpec":
        return cls(kind="constant", value=float(value), bounded=bounded)

    @classmethod
    def staircase(cls, axis: int, cuts, levels, bounded: bool = False) -> "SignalSpec":
        """Nondecreasing slab values along one axis; ``cuts`` are the 1-based
        coordinates where a new block starts."""
        levels = tuple(float(v) for v in levels)
        cuts = tuple(int(c) for c in cuts)
        if len(levels) != len(cuts) + 1:
            raise ValueError("need one more level than cuts")
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be nondecreasing")
        if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
            raise ValueError("cuts must be strictly increasing")
        return cls(kind="staircase", axis=int(axis), cuts=cuts, levels=levels,
                   bounded=bounded)

    @classmethod
    def linear_mean(cls, bounded: bool = False) -> "SignalSpec":
        """``theta_v = (v_1 + ... + v_d) / n_1 - 1`` with 1-based vertex
        coordinates ``v_i`` and ``n_1`` the first side.

        On a cube the range is ``[d/n_1 - 1, d - 1]``, so for ``d >= 3`` the
        signal leaves the unit sup-norm ball unless ``bounded=True``.  The
        monotone cone contains the constant vectors, so the projection
        commutes with adding a constant and only the slope ``1/n_1`` per
        lattice step affects the risk; the offset ``-1`` does not.
        """
        return cls(kind="linear_mean", bounded=bounded)

    @classmethod
    def r_variable(cls, axes, levels, bounded: bool = False) -> "SignalSpec":
        """Depends only on the coordinates in ``axes``: nondecreasing
        ``levels`` binned by the normalized coordinate sum over those axes."""
        axes = tuple(int(a) for a in axes)
        if len(set(axes)) != len(axes) or not axes:
            raise ValueError("axes must be nonempty and distinct")
        levels = tuple(float(v) for v in levels)
        if any(b < a for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be nondecreasing")
        return cls(kind="r_variable", axes=axes, levels=levels, bounded=bounded)

    @classmethod
    def custom_grid(cls, grid, bounded: bool = False) -> "SignalSpec":
        return cls(kind="custom_grid", grid=tuple(float(v) for v in grid),
                   bounded=bounded)


def generate_signal(spec: SignalSpec, lattice: LatticeSpec) -> np.ndarray:
    """Materialize a :class:`SignalSpec` as a vector on the lattice vertices.

    The output is always isotonic for the product order; a ``custom_grid``
    that is not raises ``ValueError``.
    """
    sides = lattice.side_lengths
    d = lattice.d
    verts = lattice_vertices(lattice)
    if spec.kind == "constant":
        theta = np.full(lattice.n, spec.value)
    elif spec.kind == "staircase":
        if not 0 <= spec.axis < d:
            raise ValueError("staircase axis out of range")
        if spec.cuts and not all(2 <= c <= sides[spec.axis] for c in spec.cuts):
            raise ValueError("cuts must lie in 2..side length")
        boundaries = np.asarray(spec.cuts)
        block = np.searchsorted(boundaries, verts[:, spec.axis], side="right")
        theta = np.asarray(spec.levels, dtype=float)[block]
    elif spec.kind == "linear_mean":
        theta = verts.sum(axis=1) / sides[0] - 1.0
    elif spec.kind == "r_variable":
        if any(not 0 <= a < d for a in spec.axes):
            raise ValueError("r_variable axes out of range")
        span = sum(sides[a] - 1 for a in spec.axes)
        s = (verts[:, list(spec.axes)] - 1).sum(axis=1)
        nlev = len(spec.levels)
        bins = np.minimum((s * nlev) // (span + 1), nlev - 1)
        theta = np.asarray(spec.levels, dtype=float)[bins]
    elif spec.kind == "custom_grid":
        theta = np.asarray(spec.grid, dtype=float)
        if theta.shape != (lattice.n,):
            raise ValueError("grid length does not match lattice size")
        arr = theta.reshape(sides)
        for j in range(d):
            if sides[j] > 1 and np.any(np.diff(arr, axis=j) < 0):
                raise ValueError("custom grid is not isotonic")
    else:  # pragma: no cover -- guarded in __post_init__
        raise ValueError(spec.kind)
    if spec.bounded:
        theta = theta / max(1.0, float(np.max(np.abs(theta))))
    return theta


def random_staircase_spec(lattice: LatticeSpec, rng: np.random.Generator,
                          max_blocks: int = 6) -> SignalSpec:
    """A random bounded slab staircase: uniform levels in [-1, 1], sorted."""
    d = lattice.d
    axis = int(rng.integers(d))
    side = lattice.side_lengths[axis]
    nblocks = int(rng.integers(1, min(max_blocks, side) + 1))
    cuts = np.sort(rng.choice(np.arange(2, side + 1), size=nblocks - 1,
                              replace=False)) if nblocks > 1 else []
    levels = np.sort(rng.uniform(-1.0, 1.0, size=nblocks))
    return SignalSpec.staircase(axis, cuts, levels)


# ---------------------------------------------------------------------------
# grid <-> function maps


def _snap_int(x: np.ndarray) -> np.ndarray:
    r = np.rint(x)
    return np.where(np.abs(x - r) <= _SNAP * np.maximum(1.0, np.abs(x)), r, x)


def _cube_function(d: int, batch):
    """``batch``, a map of checked ``(m, d)`` points to ``m`` values, as a
    function on ``[0, 1]^d`` of ``(d,)`` points (giving a float) or
    ``(m, d)`` points; here and in :func:`isodag.design.extend_estimator`."""
    def f(x):
        pts = np.asarray(x, dtype=float)
        single = pts.ndim == 1
        pts = _cube_points(pts.reshape(1, -1) if single else pts)
        if pts.shape[1] != d:
            raise ValueError(f"points must have {d} coordinates")
        vals = batch(pts)
        return float(vals[0]) if single else vals
    return f


def step_function(theta, lattice: LatticeSpec):
    """The piecewise-constant extension of a lattice vector to ``[0, 1]^d``.

    ``f(x) = theta[clip(ceil(n_j x_j), 1, n_j)]`` per axis, so the cube is
    tiled by half-open cells ``((j-1)/n_j, j/n_j]``, each carrying the value
    of its lattice vertex; near-integer products are snapped before the
    ceiling so grid points land on their own vertex.  Restricting back with
    :func:`grid_values` returns ``theta`` exactly.
    """
    sides = np.asarray(lattice.side_lengths, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (lattice.n,):
        raise ValueError("theta length does not match lattice size")
    arr = theta.reshape(lattice.side_lengths)

    def values(pts):
        idx = np.ceil(_snap_int(pts * sides)).astype(np.int64)
        np.clip(idx, 1, np.asarray(lattice.side_lengths) , out=idx)
        return arr[tuple((idx - 1).T)]

    f = _cube_function(lattice.d, values)
    f.lattice = lattice
    return f


def grid_values(f, lattice: LatticeSpec) -> np.ndarray:
    """Restrict a function on ``[0, 1]^d`` to the lattice: ``f(x / n)``
    componentwise, i.e. vertex ``x`` reads off ``f`` at ``(x_1/n_1, ...)``."""
    sides = np.asarray(lattice.side_lengths, dtype=float)
    pts = lattice_vertices(lattice) / sides
    return _eval_points(f, pts)


def grid_maps(obj, lattice: LatticeSpec):
    """Map a lattice vector to its step function, or a cube function to its
    lattice restriction, whichever applies."""
    if callable(obj):
        return grid_values(obj, lattice)
    return step_function(obj, lattice)


def _eval_points(f, pts: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(pts), dtype=float)
    if vals.shape != (pts.shape[0],):
        raise ValueError(f"f must map (m, d) points to m values, got {vals.shape}")
    return vals


# ---------------------------------------------------------------------------
# Riemann envelopes


def riemann_envelopes(f, n1: int, d: int):
    """Lower/upper piecewise-constant envelopes of a block-increasing ``f``.

    Returns ``(f_lower, f_upper, integral)`` where the envelopes evaluate
    ``f`` at the floor/ceiling grid node of each point and ``integral`` is
    the exact value of ``int (f_upper - f_lower)^2`` over the unit cube: the
    envelopes are constant on the ``n1^d`` cells, so the integral is the cell
    volume times the sum of squared node differences.
    """
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    nodes = np.stack(np.meshgrid(*[np.arange(n1 + 1)] * d, indexing="ij"),
                     axis=-1).reshape(-1, d) / n1
    V = _eval_points(f, nodes).reshape((n1 + 1,) * d)

    def _env(pts, up: bool):
        scaled = _snap_int(pts * n1)
        idx = (np.ceil(scaled) if up else np.floor(scaled)).astype(np.int64)
        np.clip(idx, 0, n1, out=idx)
        return V[tuple(idx.T)]

    f_lower = _cube_function(d, partial(_env, up=False))
    f_upper = _cube_function(d, partial(_env, up=True))
    lo = V[(slice(0, n1),) * d]
    hi = V[(slice(1, n1 + 1),) * d]
    integral = float(np.sum((hi - lo) ** 2)) / n1 ** d
    return f_lower, f_upper, integral


# ---------------------------------------------------------------------------
# Assouad families


@dataclass(frozen=True)
class AssouadSpec:
    """Hypercube index ``tau`` and perturbation size ``rho`` for a two-valued
    antichain family; ``rho=None`` means the default ``2 / (3 sqrt(n))``."""

    tau: tuple[int, ...]
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(int(t) for t in self.tau))
        if any(t not in (0, 1) for t in self.tau):
            raise ValueError("tau entries must be 0 or 1")
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")


def assouad_fixed(dag: Dag, report: AntichainReport, spec: AssouadSpec) -> np.ndarray:
    """The two-valued perturbation vector ``theta^tau`` on a DAG.

    ``-1`` below the antichain, ``+1`` above it, and ``rho * (2 tau_w - 1)``
    on the antichain itself (indexed in sorted vertex order), so that
    ``|theta^tau - theta^tau'|^2 = 4 rho^2 * Hamming(tau, tau')`` exactly.
    """
    n = dag.n_vertices
    w_ids = np.asarray(report.antichain, dtype=np.int64)
    if len(spec.tau) != w_ids.size:
        raise ValueError("tau length does not match antichain size")
    report.check_partition(n)
    rho = 2.0 / (3.0 * math.sqrt(n)) if spec.rho is None else spec.rho
    theta = np.empty(n)
    theta[report.lower_split] = -1.0
    theta[report.upper_split] = 1.0
    theta[np.sort(w_ids)] = rho * (2.0 * np.asarray(spec.tau, dtype=float) - 1.0)
    return theta


def diagonal_cells(d: int, n1: int) -> np.ndarray:
    """The diagonal antichain ``{w in {1..n1}^d : sum_j w_j = n1}``, sorted
    lexicographically, shape (count, d)."""
    if d < 1 or n1 < 1:
        raise ValueError("d and n1 must be >= 1")
    verts = lattice_vertices(LatticeSpec.cube(d, n1))
    return verts[verts.sum(axis=1) == n1]


def diagonal_count_formulas(d: int, n1: int) -> dict:
    """Enumerated size of the diagonal antichain next to two closed forms.

    The count of ``{w in {1..n1}^d : sum w_j = n1}`` equals the number of
    weak compositions of ``n1 - d`` into ``d`` parts, ``C(n1-1, d-1)``; the
    ``C(d+n1-1, d-1)`` stars-and-bars expression counts compositions of
    ``n1`` into ``d`` nonnegative parts instead and overshoots.  Both are
    reported so the gap is visible.
    """
    enumerated = len(diagonal_cells(d, n1)) if n1 >= d else 0
    return {
        "enumerated": enumerated,
        "compositions": math.comb(n1 - 1, d - 1) if n1 >= d else 0,
        "stars_and_bars": math.comb(d + n1 - 1, d - 1),
    }


def assouad_random(d: int, n1: int, tau=None, rho: float | None = None,
                   m0: float = 1.0, M0: float = 1.0):
    """The random-design perturbation family on the unit cube.

    The cube is cut into ``n1^d`` cells; writing ``c(x) = (ceil(n1 x_1),
    ..., ceil(n1 x_d))``, the function is ``0`` where ``sum c(x) <= n1 - 1``,
    ``1`` where ``sum c(x) >= n1 + 1``, and ``rho * tau_w`` on the diagonal
    cell ``w``, cells indexed in lexicographic order of their tuples.
    Defaults: ``tau`` all zeros and ``rho = 2^{3/2} m0 / (3 M0^{3/2})``.

    Returns a callable on ``(d,)`` or ``(m, d)`` points with attributes
    ``cells`` (the diagonal tuples), ``rho``, and ``tau``.
    """
    cells = diagonal_cells(d, n1)
    if tau is None:
        tau = np.zeros(len(cells), dtype=np.int64)
    tau = np.asarray(tau, dtype=np.int64)
    if tau.shape != (len(cells),) or np.any((tau != 0) & (tau != 1)):
        raise ValueError(f"tau must be a 0/1 vector of length {len(cells)}")
    if rho is None:
        rho = 2.0 ** 1.5 * m0 / (3.0 * M0 ** 1.5)
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    # value on each diagonal cell, keyed by its tuple of 1-based coordinates
    cell_key = {tuple(c): rho * float(t) for c, t in zip(cells.tolist(), tau)}

    def values(pts):
        c = np.ceil(_snap_int(pts * n1)).astype(np.int64)
        s = c.sum(axis=1)
        vals = np.where(s >= n1 + 1, 1.0, 0.0)
        on_diag = np.flatnonzero(s == n1)
        for i in on_diag:
            # boundary faces (some ceil = 0) fall in no half-open cell; they
            # have measure zero and take the value 0 from below
            vals[i] = cell_key.get(tuple(c[i]), 0.0)
        return vals

    f = _cube_function(d, values)
    f.cells = cells
    f.rho = float(rho)
    f.tau = tau
    return f


# ---------------------------------------------------------------------------
# hyperrectangle partitions and sheets

Box = tuple[tuple[int, int], ...]  # per-axis (lo, hi), 1-based inclusive


def box_sides(box: Box) -> tuple[int, ...]:
    return tuple(hi - lo + 1 for lo, hi in box)


def box_size(box: Box) -> int:
    out = 1
    for lo, hi in box:
        out *= hi - lo + 1
    return out


@dataclass(frozen=True)
class HyperrectPartition:
    """Axis-aligned boxes partitioning a parent box (1-based inclusive)."""

    box: Box
    blocks: tuple[Box, ...]

    def __post_init__(self):
        object.__setattr__(self, "box", tuple(tuple(map(int, b)) for b in self.box))
        object.__setattr__(
            self, "blocks",
            tuple(tuple(tuple(map(int, b)) for b in blk) for blk in self.blocks))

    def validate(self) -> None:
        """Check the blocks tile the box exactly; raises ValueError."""
        d = len(self.box)
        for blk in self.blocks:
            if len(blk) != d:
                raise ValueError("block dimension mismatch")
            for (lo, hi), (plo, phi) in zip(blk, self.box):
                if not (plo <= lo <= hi <= phi):
                    raise ValueError(f"block {blk} not inside parent box")
        if sum(box_size(b) for b in self.blocks) != box_size(self.box):
            raise ValueError("block volumes do not sum to the box volume")
        for i, a in enumerate(self.blocks):
            for b in self.blocks[i + 1:]:
                if all(alo <= bhi and blo <= ahi
                       for (alo, ahi), (blo, bhi) in zip(a, b)):
                    raise ValueError(f"blocks {a} and {b} overlap")


def sheet_decomposition(box_or_sides) -> HyperrectPartition:
    """Split a hyperrectangle into two-dimensional sheets.

    The two axes with the largest side lengths (ties toward the smaller
    axis index) are kept whole; every combination of single coordinates on
    the remaining axes gives one sheet, so the number of sheets is the
    product of the remaining side lengths.  Accepts either a side-length
    tuple (box based at 1) or an explicit box.
    """
    if len(box_or_sides) == 0:
        raise ValueError("need at least one dimension")
    if isinstance(box_or_sides[0], (tuple, list)):
        box: Box = tuple(tuple(map(int, b)) for b in box_or_sides)
    else:
        box = tuple((1, int(s)) for s in box_or_sides)
    d = len(box)
    sides = box_sides(box)
    if any(s < 1 for s in sides):
        raise ValueError("box has empty side")
    keep = sorted(sorted(range(d), key=lambda j: (-sides[j], j))[:2])
    free_axes = [j for j in range(d) if j not in keep]
    blocks = []
    for combo in np.ndindex(*[sides[j] for j in free_axes]):
        blk = list(box)
        for j, off in zip(free_axes, combo):
            c = box[j][0] + off
            blk[j] = (c, c)
        blocks.append(tuple(blk))
    return HyperrectPartition(box=box, blocks=tuple(blocks))


def k_sheet_bound(partition: HyperrectPartition, d: int) -> tuple[float, float]:
    """The sheet-complexity sum and its crude uniform bound.

    Returns ``(sum_l |R_l|^(1-2/d), k (n/k)^(1-2/d))`` for the ``k`` blocks
    of the partition with total size ``n``; concavity makes the first never
    larger than the second.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    sizes = np.asarray([box_size(b) for b in partition.blocks], dtype=float)
    if sizes.size == 0:
        raise ValueError("partition has no blocks")
    p = 1.0 - 2.0 / d
    k = sizes.size
    n = float(sizes.sum())
    return float(np.sum(sizes ** p)), float(k * (n / k) ** p)


def min_sheet_partition_bruteforce(theta, lattice: LatticeSpec) -> int:
    """Exact minimal number of constant sheets partitioning the lattice.

    A sheet is an axis-aligned box with at most two non-singleton axes on
    which ``theta`` is exactly constant.  Solved as exact cover by
    depth-first search over vertex bitmasks, branching on the lowest
    uncovered vertex; exponential, capped at ``SHEET_BRUTEFORCE_CAP`` vertices.
    """
    n = lattice.n
    if n > SHEET_BRUTEFORCE_CAP:
        raise SizeCapError(
            f"exact sheet partition capped at {SHEET_BRUTEFORCE_CAP} vertices, got {n}")
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n,):
        raise ValueError("theta length does not match lattice size")
    sides = lattice.side_lengths
    d = lattice.d
    arr = theta.reshape(sides)
    ids = np.arange(n).reshape(sides)
    intervals = [[(lo, hi) for lo in range(s) for hi in range(lo, s)] for s in sides]
    by_vertex: list[list[int]] = [[] for _ in range(n)]
    for blk in np.ndindex(*[len(iv) for iv in intervals]):
        spans = [intervals[j][blk[j]] for j in range(d)]
        if sum(hi > lo for lo, hi in spans) > 2:
            continue
        sl = tuple(slice(lo, hi + 1) for lo, hi in spans)
        vals = arr[sl]
        if vals.size > 1 and float(vals.max()) != float(vals.min()):
            continue
        mask = 0
        for v in ids[sl].ravel().tolist():
            mask |= 1 << v
        lowest = (mask & -mask).bit_length() - 1
        by_vertex[lowest].append(mask)
    # prefer big sheets first so good covers are found early
    for lists in by_vertex:
        lists.sort(key=lambda m: -bin(m).count("1"))
    max_sheet = max(bin(m).count("1") for lists in by_vertex for m in lists)

    full = (1 << n) - 1
    best: dict[int, int] = {0: 0}

    def solve(mask: int) -> int:
        cached = best.get(mask)
        if cached is not None:
            return cached
        v = (mask & -mask).bit_length() - 1
        lb = -(-bin(mask).count("1") // max_sheet)  # ceil division
        out = n + 1
        for sheet in by_vertex[v]:
            if sheet & ~mask:
                continue
            out = min(out, 1 + solve(mask ^ sheet))
            if out == lb:
                break  # provably optimal for this mask
        best[mask] = out
        return out

    return solve(full)


# ---------------------------------------------------------------------------
# two-dimensional packing


@dataclass(frozen=True)
class PackingSet:
    """A packing of the two-dimensional monotone cone's unit ball.

    ``vectors`` has one row per codeword, flattened row-major on the
    ``n1 x n1`` lattice; ``min_sq_distance`` is the smallest pairwise
    squared Euclidean distance, which equals ``min_hamming * cell_sq_gap``
    up to rounding.
    """

    ell: int
    n1: int
    codewords: np.ndarray
    vectors: np.ndarray
    min_sq_distance: float
    min_hamming: int
    cell_sq_gap: float


def packing_set_2d(ell: int) -> PackingSet:
    """Greedy Gilbert-Varshamov packing on dyadic blocks of the square grid.

    The side ``{1..2^ell - 1}`` splits into dyadic blocks
    ``I_r = {2^(r-1)..2^r - 1}``; a binary word ``B`` over the ``ell^2``
    block pairs maps to the isotonic vector with value
    ``-2^-((r+s+B_rs)/2) / log n`` on ``I_r x I_s``.  Each differing block
    contributes the same squared distance ``(1 - 2^-1/2)^2 / (4 log^2 n)``,
    so a binary code with pairwise Hamming distance at least ``ell^2 / 4``
    (built greedily over all ``2^(ell^2)`` words, first fit) turns into a
    packing of nonpositive isotonic vectors inside the unit ball.  Its
    ``min_sq_distance`` is the ``pdist`` minimum over the vectors; it equals
    ``min_hamming * cell_sq_gap`` up to rounding (at ``ell = 4`` they are
    0.002924456868211312 and 0.00292445686821132).

    Raises
    ------
    SizeCapError
        For ``ell > 4``; the greedy scan is exponential in ``ell^2``.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if ell > PACKING_ELL_CAP:
        raise SizeCapError(
            f"packing enumeration capped at ell = {PACKING_ELL_CAP}, got {ell}")
    n1 = 2 ** ell - 1
    n = n1 * n1
    logn = math.log(n) if n > 1 else 1.0
    nbits = ell * ell
    need = ell * ell / 4.0
    # First fit over all words in increasing order: the smallest word still
    # at distance >= need from every accepted word is the next one accepted.
    words = np.arange(1 << nbits)
    popcount = sum(words >> b & 1 for b in range(nbits)).astype(np.uint8)
    alive = np.ones(words.size, dtype=bool)
    accepted: list[int] = []
    while alive.any():
        accepted.append(int(alive.argmax()))
        alive &= popcount[words ^ accepted[-1]] >= need
    codes = (np.array(accepted)[:, None] >> np.arange(nbits) & 1).astype(np.uint8)
    # block index of each 1-based coordinate: i in I_r  <=>  r = floor(log2 i) + 1
    blk = np.asarray([i.bit_length() for i in range(1, n1 + 1)], dtype=np.int64)
    r = np.repeat(blk, n1).reshape(n1, n1)
    s = np.tile(blk, n1).reshape(n1, n1)
    bit_of_cell = ((r - 1) * ell + (s - 1)).ravel()
    base = np.exp2(-(r + s).ravel() / 2.0)
    vectors = np.empty((len(accepted), n), dtype=float)
    for i, row in enumerate(codes):
        shrink = np.where(row[bit_of_cell] == 1, 2.0 ** -0.5, 1.0)
        vectors[i] = -(base * shrink) / logn
    cell_gap = (1.0 - 2.0 ** -0.5) ** 2 / (4.0 * logn ** 2)
    # the all-one word outlives the all-zero word, so there are >= 2 codewords
    min_sq = float(np.min(pdist(vectors, metric="sqeuclidean")))
    min_h = int(np.min(pdist(codes, metric="hamming")) * nbits + 0.5)
    return PackingSet(ell=ell, n1=n1, codewords=codes, vectors=vectors,
                      min_sq_distance=min_sq, min_hamming=min_h,
                      cell_sq_gap=cell_gap)
