"""Instances, the class of joint demand distributions with fixed block
marginals (a polytope of probability vectors), and generators for
independent and extremal joints.

Index convention: the joint support is the product of the block supports in
lexicographic order with the **last block fastest**, i.e. joint atom ``k``
corresponds to ``np.unravel_index(k, (K_1, ..., K_R))``. Fixing the order
keeps files and tests byte-stable.

Duplicate atoms inside a marginal are permitted; consistency constraints are
formed per distinct atom value with probabilities added.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import sys
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, InputError, SolverError
from .lp import IncidenceOperator, LinearProgram, solve_lp

# The most joint atoms that a polytope, a joint or a solver is built over.
SUPPORT_CAP = 10**6

# The vertex table is built only when the product of value classes has at
# most this many candidate column sets, C(K_c, m). Measured on a 2-vCPU host
# over `_solve_robust` of four gen_instance draws per class shape (support
# 1..10, the shared enumeration not counted): every shape with at most
# 18 564 sets solved 1.4-4.0x faster from the table; at 43 758 sets 2 x 9
# broke even and 3 x 6 took 1.2-1.4x longer, after enumerations of
# 0.04-0.07 s.
_VERTEX_CAP = 32768
# The candidate column sets are counted exactly up to this ceiling, far
# above any cap; past it the count stops (`_capped_set_count`).
_SET_COUNT_CEILING = 2**64
# Column sets per batch of the enumeration and of the basis inverses: bounds
# their memory (at 512 the stress experiment's peak RSS rose 0.3 MB, at 256
# 0.17 MB; inverting every 4 x 4 basis at once raised it by 4 MB).
_BASIS_BATCH = 256
# A basic solution's entries within this of 0 are 0 (degenerate vertices),
# and one below -this is infeasible.
_VERTEX_ZERO = 1e-13
# A basic solution from the integer inverses with an entry this close to
# +-_VERTEX_ZERO is too close to call against the rounding of an
# np.linalg.solve, some 1e-16 on sums of a few probabilities: the screen
# then solves every basis instead.
_SCREEN_MARGIN = 1e-14


# ---------------------------------------------------------------------------
# Core data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DiscreteMarginal:
    """Discrete distribution of one block's demand sub-vector.

    atoms: (K_r, dim) nonnegative demand values; probs: (K_r,) summing to 1.
    """

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if atoms.ndim != 2:
            raise InputError("atoms must be a (K, dim) matrix")
        if probs.ndim != 1 or probs.size != atoms.shape[0]:
            raise InputError(
                f"probs has length {probs.size}, expected {atoms.shape[0]} (one per atom)"
            )
        if not np.all(np.isfinite(atoms)) or np.any(atoms < 0):
            raise InputError("atoms must be finite and nonnegative")
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise InputError("probs must be finite and nonnegative")
        if abs(float(np.sum(probs)) - 1.0) > 1e-12:
            raise InputError(f"probs sum to {float(np.sum(probs))!r}, expected 1 within 1e-12")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True, eq=False)
class Instance:
    """A newsvendor market: common price/cost, a partition of the retailers
    into blocks, and one known multivariate marginal per block."""

    price: float
    cost: float
    partition: tuple[tuple[int, ...], ...]
    marginals: tuple[DiscreteMarginal, ...]

    def __post_init__(self):
        p, c = check_real(self.price, "price"), check_real(self.cost, "cost")
        if not (0.0 < c < p):
            raise InputError(f"prices must satisfy 0 < cost < price, got cost={c}, price={p}")
        object.__setattr__(self, "price", p)
        object.__setattr__(self, "cost", c)
        part = tuple(
            tuple(check_int(i, "partition id") for i in block) for block in self.partition
        )
        if not part or any(len(b) == 0 for b in part):
            raise InputError("partition must contain nonempty blocks")
        flat = [i for block in part for i in block]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise InputError(
                "partition blocks must be disjoint and cover retailers 0..N-1, "
                f"got {part}"
            )
        object.__setattr__(self, "partition", part)
        marginals = tuple(self.marginals)
        if len(marginals) != len(part):
            raise InputError(
                f"{len(marginals)} marginals for {len(part)} partition blocks"
            )
        for r, (block, marg) in enumerate(zip(part, marginals)):
            if marg.dim != len(block):
                raise InputError(
                    f"marginals[{r}] has dimension {marg.dim}, block has {len(block)} retailers"
                )
        object.__setattr__(self, "marginals", marginals)

    @property
    def n_retailers(self) -> int:
        return sum(len(b) for b in self.partition)

    @property
    def n_blocks(self) -> int:
        return len(self.partition)

    @property
    def ratio(self) -> float:
        """Critical ratio (price - cost) / price."""
        return (self.price - self.cost) / self.price

    @property
    def block_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << i for i in block) for block in self.partition)

    @property
    def grand_mask(self) -> int:
        return (1 << self.n_retailers) - 1

    def joint_size(self) -> int:
        k = 1
        for m in self.marginals:
            k *= m.n_atoms
        return k


def check_int(value, name: str, minimum: int = 0) -> int:
    """`value` as an int; raises InputError unless it is an integer (a bool
    is not, a numpy integer is) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InputError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_real(value, name: str) -> float:
    """`value` as a float; raises InputError unless it is a finite real
    number (a bool is not, nor a string; an int too large for a float is
    refused)."""
    # The bound also refuses nan.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        abs(value) <= sys.float_info.max
    ):
        raise InputError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def block_aggregate(block: Sequence[int], atoms: np.ndarray, mask: int) -> np.ndarray:
    """Aggregate demand of S cap N_r at every atom of block N_r's marginal
    (rows of `atoms`); zeros when S does not meet the block."""
    return atoms[:, [j for j, i in enumerate(block) if mask >> i & 1]].sum(axis=1)


def coalition_mask(s, n: int | None = None) -> int:
    """The bitmask (bit i = retailer i) of `s`, an int mask or an iterable
    of members, each an integer >= 0 (`check_int`). A bool is refused, as
    `check_int` refuses it, though Python counts it an int."""
    if isinstance(s, bool):
        raise InputError(f"coalition mask must be an integer, got {s!r}")
    if isinstance(s, (int, np.integer)):
        mask = int(s)
    else:
        try:
            items = list(s)
        except TypeError:
            raise InputError(f"coalition members must be iterable, got {s!r}") from None
        mask = sum(1 << i for i in {check_int(i, "coalition member") for i in items})
    if mask < 0:
        raise InputError(f"coalition mask must be nonnegative, got {mask}")
    if n is not None and mask >= (1 << n):
        raise InputError(f"coalition mask {mask} has members outside 0..{n - 1}")
    return mask


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability vector over the product support, in the package-wide
    index convention (last block fastest)."""

    q: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        if q.ndim != 1:
            raise InputError("q must be a vector")
        check_probability_rows(q)
        object.__setattr__(self, "q", q)

    @property
    def n_atoms(self) -> int:
        return self.q.size


def check_probability_rows(q: np.ndarray) -> None:
    """Raise InputError unless `q`, one probability vector or a matrix of
    them as rows, is nonnegative within 1e-12 and each of its rows sums to 1
    within 1e-10."""
    if np.any(q < -1e-12):
        raise InputError("q must be nonnegative")
    totals = np.atleast_1d(np.sum(q, axis=-1))
    off = np.flatnonzero(np.abs(totals - 1.0) > 1e-10)
    if off.size:
        raise InputError(f"q sums to {float(totals[off[0]])!r}, expected 1 within 1e-10")


# ---------------------------------------------------------------------------
# Product support
# ---------------------------------------------------------------------------


def _check_cap(inst: Instance) -> int:
    k = inst.joint_size()
    if k > SUPPORT_CAP:
        raise CapacityError(
            f"joint support has {k} atoms, exceeding the cap of {SUPPORT_CAP}; "
            "refuse to enumerate"
        )
    return k


# ---------------------------------------------------------------------------
# Joint distribution constructors
# ---------------------------------------------------------------------------


def independent_joint(inst: Instance) -> JointDistribution:
    """Product of the block marginals: q_k = prod_r p_r^{l_r}."""
    _check_cap(inst)
    q = inst.marginals[0].probs
    for m in inst.marginals[1:]:
        q = np.multiply.outer(q, m.probs)
    return JointDistribution(np.ascontiguousarray(q).ravel())


def sample_extremal(inst: Instance, cost: Sequence[float]) -> JointDistribution:
    """A vertex of the consistency polytope maximizing cost @ q: the first
    such row of the polytope's vertex table when it has one and no block
    has duplicate atoms (a cost may tell identical atoms apart, and the
    table then lacks the vertices on the other copies), else an LP optimum.

    The polytope is never empty (the independent joint is feasible), so an
    infeasible LP here is an internal error.
    """
    poly = get_polytope(inst)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (poly.n_atoms,):
        raise InputError(
            f"cost vector has shape {cost.shape}, expected ({poly.n_atoms},)"
        )
    if not np.all(np.isfinite(cost)):
        raise InputError("cost vector must be finite")
    verts = poly.vertices()
    if verts is not None and math.prod(poly.class_counts) == poly.n_atoms:
        q = verts[int(np.argmax(verts @ cost))]
    else:
        _value, q = poly.maximize(cost)
    return JointDistribution(np.maximum(q, 0.0))


# ---------------------------------------------------------------------------
# The consistency polytope
# ---------------------------------------------------------------------------


def northwest_corner(
    probs: Sequence[np.ndarray], orders: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential-fill coupling of the distributions `probs`, each visited in
    its `orders[r]`: every step puts the largest mass the current entries
    still hold on their combination, then moves one exhausted block on.

    Returns (steps, mass): ``steps[j, r]`` is the index into ``probs[r]`` of
    step j and ``mass[j]`` its probability. Each step but the last moves one
    block, so there are 1 + sum_r (len(probs[r]) - 1) steps, some of them
    possibly of zero mass.

    Computed from the blocks' cumulative sums: block r leaves its i-th entry
    where the walk's mass reaches the i-th cumulative sum, so the moves are
    those sums of every block but its last entry's, sorted by value and then
    by block (equal sums move the lower block first, then give zero-mass
    steps), and each mass is the difference of consecutive sums. The last
    step ends at the least block total, or at the last move when that lies
    beyond it (totals that differ by rounding), so no mass is negative.
    """
    cums = [np.cumsum(np.asarray(p, dtype=float)[order]) for p, order in zip(probs, orders)]
    cuts = np.concatenate([c[:-1] for c in cums])
    block = np.repeat(np.arange(len(cums)), [c.size - 1 for c in cums])
    # Stable: equal sums keep the order of `cuts`, by block, then by entry.
    turn = np.argsort(cuts, kind="stable")
    cuts = cuts[turn]
    pos = np.zeros((cuts.size + 1, len(cums)), dtype=np.intp)
    pos[np.arange(1, cuts.size + 1), block[turn]] = 1
    np.cumsum(pos, axis=0, out=pos)
    end = min(c[-1] for c in cums)
    if cuts.size:
        end = max(end, cuts[-1])
    bounds = np.concatenate(([0.0], cuts, [end]))
    idx = np.column_stack([np.asarray(order)[pos[:, r]] for r, order in enumerate(orders)])
    return idx, np.diff(bounds)


class FrechetPolytope:
    """The polytope Q of joint probability vectors consistent with the block
    marginals, as a rank-full equality system ``matrix @ q = rhs`` over R^K.

    Rows: a single total-mass row, then for each block r one row per
    distinct atom value except the last. The dropped per-block rows are
    implied by the kept ones, which keeps the system nonsingular for the
    simplex.

    ``matrix`` is an `IncidenceOperator` over the product grid of the
    blocks' atoms: every column holds R+1 ones (the mass row and one row
    per block, the sentinel for a block's last class), so the polytope
    keeps one row id per atom of each block (its class's row), never the
    dense matrix; ``np.asarray(matrix)`` builds that for oracles. Every LP
    over the polytope, the worst-case ratio LPs included, is
    `lp(objective)` on this one operator, so a basis factorization from any
    of them can serve the next. Factorizations travel with the callers'
    `LpSolution` objects, never with the polytope.

    A small polytope also has a vertex table, `vertices()`: every vertex
    supported on the classes' representative atoms (every vertex when no
    atom repeats), enumerated once on first use over the column bases of
    the product of value classes, which all polytopes with the same class
    counts share, and cached. It exists when that product has at most
    `_VERTEX_CAP` candidate column sets (the stress shape, 4 x 4 classes,
    has 11 440); the worst-case ratios, and `sample_extremal` when no atom
    repeats, then read it instead of solving LPs.

    Holds the instance's partition and marginals but not the instance, so a
    cached polytope does not keep its instance alive. Immutable after
    construction apart from that cache (a race fills it twice with the same
    table); safe to share across threads.
    """

    def __init__(self, inst: Instance):
        self.partition = inst.partition
        self.marginals = inst.marginals
        self.n_atoms = _check_cap(inst)
        self.dims = tuple(m.n_atoms for m in inst.marginals)

        # Distinct-value classes per block (duplicate atoms merge).
        self.class_of: list[np.ndarray] = []     # original atom -> class id
        self.class_probs: list[np.ndarray] = []  # class -> summed probability
        self.class_reps: list[np.ndarray] = []   # class -> representative atom
        for m in inst.marginals:
            _, rep, inv = np.unique(
                m.atoms, axis=0, return_index=True, return_inverse=True
            )
            inv = inv.reshape(-1)
            probs = np.bincount(inv, weights=m.probs, minlength=rep.size)
            self.class_of.append(inv.astype(np.int64))
            self.class_probs.append(probs)
            self.class_reps.append(rep.astype(np.int64))

        # The consistency rows of an atom are those of its class tuple.
        self.class_counts = tuple(p.size for p in self.class_probs)
        self.matrix = IncidenceOperator(*_incidence_rows(self.class_counts, self.class_of))
        self.rhs = np.concatenate([[1.0], *(p[:-1] for p in self.class_probs)])
        self.rhs.setflags(write=False)
        self.crash_basis = self.northwest_vertex(
            [np.arange(p.size) for p in self.class_probs]
        )[0]
        # Every objective over the polytope derives from this one program,
        # so all of them share one standard form. Its objective and its
        # default lower bounds are read-only zero views: no K-long vector.
        self._program = LinearProgram(
            "max", np.broadcast_to(0.0, (self.n_atoms,)), a_eq=self.matrix, b_eq=self.rhs
        )
        self._set_count: int | None = None
        self._vertices: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def northwest_vertex(
        self, orders: Sequence[np.ndarray]
    ) -> tuple[tuple[int, ...], np.ndarray]:
        """Northwest-corner vertex over the value classes, block r's classes
        visited in `orders[r]`. Returns (basis, mass): the joint atoms of its
        steps and the mass of each step; the vertex is zero at every other
        atom, and no K-long joint is built. The steps are exactly n_rows
        distinct atoms, some possibly of zero mass, and form a starting
        basis (the classic staircase for R=2, in any row and column order).
        `crash_basis` is the one in sorted order.
        """
        steps, mass = northwest_corner(self.class_probs, orders)
        reps = [self.class_reps[r][steps[:, r]] for r in range(len(self.dims))]
        return tuple(np.ravel_multi_index(reps, self.dims).tolist()), mass

    def vertices(self) -> np.ndarray | None:
        """The vertices of the polytope whose support lies on the
        representative atoms (`class_reps`), as the rows of a read-only
        (V, K) matrix in the order the enumeration meets them; None when
        the product of value classes has more than `_VERTEX_CAP` candidate
        column sets, the C(K_c, m) sets of m columns over its K_c class
        tuples. That count is taken once (`_capped_set_count`), exact up to
        `_SET_COUNT_CEILING` and stopped past it, and compared on every
        call, so a patched cap applies to a table already built.

        Without duplicate atoms that is every vertex. With them, every
        objective that depends on the atoms only through their values, as
        every worst-case ratio does, attains its maximum over the polytope
        at one of these rows. An objective that tells identical atoms apart
        may not, so `sample_extremal` reads the table only when no block has
        duplicate atoms.

        Built on first use from the column bases of the class product and
        their inverses (`_column_bases`, one cache shared by every polytope
        with the same class counts), each class tuple standing for its
        joint atom of representatives. A screen takes every basic solution
        against this polytope's `rhs`, drops the infeasible ones and keeps
        the first basis of each support, in basis order (a vertex is the
        only point of the polytope with its support). For two blocks the
        screen is one product with the shape's integer basis inverses;
        otherwise, or when an entry is too close to a threshold to call, it
        is a batched `np.linalg.solve` of every basis. Only the kept bases,
        180-384 of the 4 096 at 4 x 4 classes, are then solved for the
        vertices by batched `np.linalg.solve`, the same LAPACK solve per
        basis whatever the batch, so every vertex has the bits of that
        solve. A polytope with at most one block of several classes is a
        single point, which the consistency rows give directly. Raises
        SolverError unless every row meets the consistency rows within
        1e-12."""
        if self._set_count is None:
            self._set_count = _capped_set_count(math.prod(self.class_counts), self.n_rows)
        if self._set_count > _VERTEX_CAP:
            return None
        if self._vertices is None:
            # The joint atom of representatives of every class tuple.
            atoms = np.ravel_multi_index(np.ix_(*self.class_reps), self.dims).ravel()
            if atoms.size == self.n_rows:
                # At most one block has more than one class: the consistency
                # rows fix every class tuple's mass, so the polytope is one
                # point, the varying block's class probabilities with its
                # last class taking the remaining mass.
                x = np.append(self.rhs[1:], 1.0 - np.sum(self.rhs[1:]))
                verts = np.zeros((1, self.n_atoms))
                verts[0, atoms] = np.where(x > _VERTEX_ZERO, x, 0.0)
                residual = self.matrix @ verts[0] - self.rhs
            else:
                verts = self._enumerate_vertices(atoms)
                residual = verts @ np.asarray(self.matrix).T - self.rhs
            gap = float(np.max(np.abs(residual)))
            if not gap <= 1e-12:
                raise SolverError(f"vertex table misses the consistency rows by {gap:.3e}")
            verts.setflags(write=False)
            self._vertices = verts
        return self._vertices

    def _enumerate_vertices(self, atoms: np.ndarray) -> np.ndarray:
        """One vertex per support from the column bases of the class
        product, `atoms` giving each class tuple's joint atom."""
        a, bases, inv = _column_bases(self.class_counts)
        x = _basic_solutions(a, bases, self.rhs, inv)
        if inv is not None and np.any(np.abs(np.abs(x) - _VERTEX_ZERO) <= _SCREEN_MARGIN):
            x = _basic_solutions(a, bases, self.rhs, None)
        feasible = np.flatnonzero(np.all(x >= -_VERTEX_ZERO, axis=1))
        support = np.zeros((feasible.size, a.shape[1]), dtype=bool)
        support[np.arange(feasible.size)[:, None], bases[feasible]] = x[feasible] > _VERTEX_ZERO
        _supports, first = np.unique(np.packbits(support, axis=1), axis=0, return_index=True)
        cols = bases[feasible[np.sort(first)]]
        x = _basic_solutions(a, cols, self.rhs, None)
        rows = np.zeros((cols.shape[0], self.n_atoms))
        rows[np.arange(cols.shape[0])[:, None], atoms[cols]] = np.where(x > _VERTEX_ZERO, x, 0.0)
        return rows

    def lp(self, objective: np.ndarray) -> LinearProgram:
        """max objective @ q over the polytope."""
        return self._program.with_objective(objective)

    def maximize(self, cost: np.ndarray) -> tuple[float, np.ndarray]:
        """max cost @ q over the polytope; returns (value, vertex)."""
        sol = solve_lp(self.lp(cost), self.crash_basis)
        if sol.status != "optimal":
            raise SolverError(
                f"consistency polytope LP reported {sol.status!r}; "
                "the polytope is nonempty and bounded, so this is an internal error"
            )
        return float(sol.objective_value), sol.x

    def coalition_block_values(self, mask: int) -> list[np.ndarray]:
        """Per block r, aggregate demand of S cap N_r at each value class."""
        return [
            block_aggregate(block, m.atoms, mask)[reps]
            for block, m, reps in zip(self.partition, self.marginals, self.class_reps)
        ]

    def coalition_demands(self, mask: int) -> np.ndarray:
        """Aggregate demand d_k(S) at every joint atom, shape (K,)."""
        return self.coalition_demand_rows([mask])[0]

    def coalition_demand_rows(self, masks: Sequence[int]) -> np.ndarray:
        """Aggregate demand d_k(S) of every coalition in `masks` at every
        joint atom, shape (len(masks), K). Each block's aggregate is formed
        once per distinct S cap N_r by `block_aggregate` (numpy sums 8 or
        more columns pairwise, so the sum itself is not re-derived), and
        the rows are the outer sums over the product grid: from 0.0, each
        block's value at its atoms added in block order."""
        masks = [int(m) for m in masks]
        if not masks:
            return np.zeros((0, self.n_atoms))
        total = np.zeros((len(masks), 1))
        for block, m, reps, cls in zip(
            self.partition, self.marginals, self.class_reps, self.class_of
        ):
            bmask = sum(1 << i for i in block)
            subs: dict[int, int] = {}
            rows = [subs.setdefault(mask & bmask, len(subs)) for mask in masks]
            vals = np.array([block_aggregate(block, m.atoms, s)[reps] for s in subs])
            # C order: a row's BLAS dots later depend on its layout.
            total = np.add(total[:, :, None], vals[rows][:, None, cls], order="C")
            total = total.reshape(len(masks), -1)
        return total


def _capped_set_count(n: int, m: int) -> int:
    """C(n, m), the m-column sets over n columns (0 <= m <= n), when it is
    at most `_SET_COUNT_CEILING`, else `_SET_COUNT_CEILING` + 1. Counted by
    the multiplicative recurrence C(n, i + 1) = C(n, i) (n - i) / (i + 1),
    each step exact, over i < min(m, n - m); the counts grow along it, so
    it stops as soon as one passes the ceiling. C(n, i) >= 2^i there, so
    that takes at most 65 steps, where `math.comb` costs about the size of
    the whole number (11.6 s for C(10^6, 500 001))."""
    count = 1
    for i in range(min(m, n - m)):
        count = count * (n - i) // (i + 1)
        if count > _SET_COUNT_CEILING:
            return _SET_COUNT_CEILING + 1
    return count


def _incidence_rows(
    counts: Sequence[int], classes: Sequence[np.ndarray]
) -> tuple[list[np.ndarray], int]:
    """The consistency rows over the product grid of the blocks' atoms,
    atom i of block r in value class `classes[r][i]` of `counts[r]`, as
    `IncidenceOperator` arguments (per-block row ids, m): row 0 is the
    total mass, then block r owns one row per class but its last, whose
    atoms point at the sentinel row id m."""
    m = 1 + sum(c - 1 for c in counts)
    ids, offset = [], 1
    for c, cls in zip(counts, classes):
        ids.append(np.where(cls == c - 1, m, offset + cls))
        offset += c - 1
    return ids, m


@functools.lru_cache(maxsize=16)
def _column_bases(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The consistency rows over the product of value classes, `counts[r]`
    classes in block r, their column bases and the bases' inverses:
    (a, bases, inv). All three depend only on the counts, so polytopes of
    one shape share them whatever their atoms.

    a is the read-only dense (m, K_c) matrix with one column per class
    tuple, last block fastest, in the row layout of `FrechetPolytope.matrix`.
    bases is a read-only (count, m) array of every m-column set with |det|
    >= 1/2 (a is 0/1, so every determinant is an integer), in lexicographic
    order and the smallest unsigned dtype that holds K_c (the cached 4 x 4
    bases in int64 raised the stress experiment's peak RSS by 0.3 MB).

    inv holds the inverse of every basis, in basis order, as a read-only
    int8 (count, m, m) array when all of them are integral, else None. For
    two blocks the consistency rows are, up to unimodular row operations,
    rows of the incidence matrix of a bipartite graph, which is totally
    unimodular (Hoffman-Kruskal 1956), so every inverse is integral; at
    4 x 4 classes every entry is -1, 0 or 1, and the array takes 4 096 x 7
    x 7 bytes, about 200 KB. For three or more blocks some inverses are
    fractional. Each inverse is rounded and checked, B @ R = I, which on
    these small integers is exact in floating point.

    The sets are tried `_BASIS_BATCH` at a time, and the bases a batch
    keeps are inverted with it until one inverse fails the check;
    `np.linalg.inv` inverts each matrix alone, so the batching does not
    change an inverse."""
    a = np.asarray(IncidenceOperator(*_incidence_rows(counts, [np.arange(c) for c in counts])))
    a.setflags(write=False)
    m, k = a.shape
    sets = itertools.combinations(range(k), m)
    bases, invs = [], []
    while batch := list(itertools.islice(sets, _BASIS_BATCH)):
        cols = np.array(batch, dtype=np.min_scalar_type(k))
        mats = np.moveaxis(a[:, cols], 1, 0)
        keep = np.abs(np.linalg.det(mats)) > 0.5
        bases.append(cols[keep])
        if invs is not None and keep.any():
            kept = mats[keep]
            inv = np.rint(np.linalg.inv(kept))
            if np.max(np.abs(inv)) > 127 or not np.array_equal(
                kept @ inv, np.broadcast_to(np.eye(m), inv.shape)
            ):
                invs = None
            else:
                invs.append(inv.astype(np.int8))
    bases = np.concatenate(bases)
    bases.setflags(write=False)
    inv = None if invs is None else np.concatenate(invs)
    if inv is not None:
        inv.setflags(write=False)
    return a, bases, inv


def _basic_solutions(
    a: np.ndarray, bases: np.ndarray, rhs: np.ndarray, inv: np.ndarray | None
) -> np.ndarray:
    """The basic solution of every column basis of `a` (rows of `bases`)
    against `rhs`, as a (count, m) matrix, `_BASIS_BATCH` bases at a time:
    one product with the bases' integer inverses `inv` when given, else a
    batched `np.linalg.solve`, which runs LAPACK's gesv on each basis
    alone, so a basis gets the same bits in any batch."""
    m = a.shape[0]
    x = np.empty(bases.shape)
    for lo in range(0, bases.shape[0], _BASIS_BATCH):
        cols = bases[lo : lo + _BASIS_BATCH]
        hi = lo + cols.shape[0]
        if inv is None:
            b = np.broadcast_to(rhs[:, None], (cols.shape[0], m, 1))
            x[lo:hi] = np.linalg.solve(np.moveaxis(a[:, cols], 1, 0), b)[..., 0]
        else:
            x[lo:hi] = (inv[lo:hi].reshape(-1, m) @ rhs).reshape(-1, m)
    return x


_POLYTOPES: "weakref.WeakKeyDictionary[Instance, FrechetPolytope]" = (
    weakref.WeakKeyDictionary()
)


def get_polytope(inst: Instance) -> FrechetPolytope:
    """The consistency polytope of `inst`, built once per instance and
    freed with it. Raises CapacityError when the joint support exceeds
    `SUPPORT_CAP`, whether or not the polytope is already built."""
    _check_cap(inst)
    poly = _POLYTOPES.get(inst)
    if poly is None:
        poly = FrechetPolytope(inst)
        _POLYTOPES[inst] = poly
    return poly


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    return {
        "price": inst.price,
        "cost": inst.cost,
        "partition": [list(b) for b in inst.partition],
        "marginals": [
            {"atoms": m.atoms.tolist(), "probs": m.probs.tolist()}
            for m in inst.marginals
        ],
    }


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InputError(f"instance document must be an object, got {type(data).__name__}")
    for key in ("price", "cost", "partition", "marginals"):
        if key not in data:
            raise InputError(f"instance document is missing field {key!r}")
    raw_marginals = data["marginals"]
    if not isinstance(raw_marginals, list):
        raise InputError("field 'marginals' must be a list")
    marginals = []
    for r, entry in enumerate(raw_marginals):
        if not isinstance(entry, dict) or "atoms" not in entry or "probs" not in entry:
            raise InputError(f"marginals[{r}] must be an object with 'atoms' and 'probs'")
        for key in ("atoms", "probs"):
            _check_numbers(entry[key], f"marginals[{r}]: {key}")
        try:
            marginals.append(DiscreteMarginal(entry["atoms"], entry["probs"]))
        except (InputError, ValueError, TypeError, OverflowError) as exc:
            raise InputError(f"marginals[{r}]: {exc}") from exc
    try:
        return Instance(
            price=data["price"],
            cost=data["cost"],
            partition=data["partition"],
            marginals=tuple(marginals),
        )
    except (InputError, ValueError, TypeError) as exc:
        raise InputError(f"instance document invalid: {exc}") from exc


def _check_numbers(value, name: str) -> None:
    """Raise InputError unless `value` is a real number or a nested list of
    them: a bool is not one, nor a string that numpy would convert."""
    if isinstance(value, list):
        for item in value:
            _check_numbers(item, name)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must hold numbers only, got {value!r}")


def read_json(path):
    """The JSON document in the file at `path`; malformed JSON raises
    InputError naming the path, line and column, and bytes that are not
    UTF-8 InputError naming the path and the byte offset."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from exc


def load_instance(path) -> Instance:
    data = read_json(path)
    try:
        return instance_from_dict(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")
