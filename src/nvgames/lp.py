"""Linear-program solver over dense or structured constraint matrices,
returning vertex (basic feasible) solutions.

Two-phase revised simplex. `_Simplex.refactor` is the one place where a
basis is factorized: a large basis of a two-block polytope is kept as its
spanning tree, which serves only the solves with B, and any other basis is
inverted by LAPACK. LAPACK forms every explicit inverse, a tree basis's
only when a pivot first needs it; each pivot updates the explicit inverse
in between.
Dantzig pricing by default, its ties within `PIVOT_TOL` going to the
lowest column id; after `_BLAND_AFTER` consecutive degenerate pivots the
solver switches to Bland's rule for the rest of the phase, which
guarantees termination. Every lower bound is finite; nonzero ones are
handled by shifting. That general form (inequality rows, shifted
variables) serves outside callers; every program the package itself
builds is its own standard form.

A `LinearProgram` builds the standard form of its constraint matrices,
bounds and right-hand side once (slack columns, the right-hand side
shifted by the bounds), and every `with_objective` copy shares it, so a
solve only builds its cost vector (none without slack columns: the
objective itself serves, its sign kept aside for a max program). This
is what keeps the thousands of small ratio LPs over one polytope cheap.
No row is ever negated: phase 1 starts from the basis of the artificial
columns sign(b_i) e_i, factorized like any other, which is feasible
whatever the signs of the right-hand side.

The simplex reaches the constraint matrix only through its ``shape``, the
pricing product ``y @ A``, the column gather ``A[:, ids]`` (one column for
a scalar id) and ``A @ x``, so the caller's ndarray serves every generic
program as it is. `IncidenceOperator` serves the same three forms, and
``np.asarray`` gives its dense form. It is the 0/1 matrix of the
consistency polytope, whose columns are the product grid of the blocks'
atoms and each hold R+1 ones: it stores one row-id vector per block, sized
by that block's atoms (400 ids for the 40 000 columns of example 1 at
K=200), and the mass row is implicit. Pricing is y[0] plus each block's
gathered ids broadcast along its axis, one K-entry outer sum per block. The
polytope is never stored as a dense matrix unless it is small enough for
dense products to be the faster choice.
Pricing works in place: ``y @ A`` returns a fresh array, and the simplex's
pricing and the certificate's each write the reduced costs into it
(`_reduced_costs`), so a pricing pass over the 40 000 columns of example 1
at K=200 allocates one K-long vector, not three. The certificate prices its
duals itself and never reads the simplex's reduced costs; it drops that
pricing vector before it builds the dense solution, so the two are never
alive together.
For two blocks it is a transportation polytope: every basis is a spanning
tree of the blocks' value classes and has an inverse with entries in
{-1, 0, 1} (Hoffman-Kruskal 1956). `IncidenceOperator.tree_factor` keeps the
tree: B^-1 b is its leaf-to-root sweep and the duals c_B B^-1 its
root-to-leaf potentials, as in the transportation simplex (Dantzig 1951),
both O(m), so a start that is already optimal, which certifies every ratio
of the paper's example 1, forms no m x m matrix at all.

`solve_lp` optionally accepts a starting basis (column ids of the internal
standard form, as reported in ``LpSolution.basis``). A usable starting basis
skips phase 1 entirely, which is what makes repeated solves over one
polytope with changing objectives cheap. Passing the previous `LpSolution`
itself also hands over its factorization when no pivot has updated it since
(its tree for a two-block basis of `_TREE_ROWS` rows or more, else its
explicit inverse): a solve on the same matrix object that starts from
that basis reuses it in place of a new one, which is bit for bit what
refactorizing would give.

Every optimum is certified before it is returned: primal feasibility on the
caller's data, nonnegative reduced costs under the returned duals, and a
zero duality gap.

A basic solution is zero off its support (`LpSolution.support`: its basic
variables, in ascending order, plus any variable shifted by a nonzero lower
bound), so every
product with it runs over that support alone (`support_dot`): the objective
value and the certificate's c'z here, the worst-case ratios in
`robust_game`. A polytope LP has K columns but at most m basic ones. On a
2-vCPU x86 VM, OpenBLAS 0.3.31 ran a dot of more than 10 000 terms, and a
1 x 40 000 matrix-vector product, on two threads, but a 399 x 399 one on
one: each threaded call kept a second core busy, and waited for the worker
thread to wake whenever it had gone to sleep. The product over m gathered
entries stays on one thread. ``IncidenceOperator @ x`` likewise adds only
x's nonzero entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError, SolverError

# Absolute tolerances, in the units of each program's data. The stability
# LP (`coop.solve_stability_lp`) is divided by a power of two near its
# largest value first, so they act at unit scale there. The Dinkelbach ratio
# LPs above the vertex cap (`robust_game`, `distributions._VERTEX_CAP`) are
# not normalized: with demands in the millions their certificate and
# progress checks can fail.
PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
OPT_TOL = 1e-9

_REFACTOR_EVERY = 100
_MAX_PIVOTS = 500_000
# Consecutive degenerate pivots before Bland's rule takes over. The longest
# degenerate run seen on the paper's example 1 at K=200 and on the stress
# experiment is 37, so Dantzig pricing decides every pivot there.
_BLAND_AFTER = 50

# Incidence operators up to this many matrix entries keep a dense copy (at
# most 256 KB) and use dense products. Small products are dominated by call
# overhead, where one BLAS call beats the index gather: on a 2-vCPU x86 VM an
# 8 x 17 pricing product took 1.4 us dense against 9.8 us gathered, and the
# two met between 5e4 and 1.3e5 entries.
_DENSE_ENTRIES = 1 << 15

# Two-block incidence bases of at least this many rows are factorized by
# their spanning tree (`IncidenceOperator.tree_factor`), smaller ones
# inverted by LAPACK. The tree's cost has a floor of Python and call
# overhead, LAPACK's grows as m^3. On a 2-vCPU x86 VM (median per basis over
# random spanning trees, warm LAPACK; the factor and the two solves B^-1 b
# and c_B B^-1 against the inverse and its two products) m = 31 took 76 us
# by tree against 51 us by LAPACK, m = 55 89 against 109 us, m = 79 105
# against 216 us and m = 399 0.40 ms against 9.7 ms. (Operations of example
# 1 that once took up to 180 ms each were slowed by K-length BLAS products
# on two threads, not by LAPACK; see above.)
_TREE_ROWS = 64


class IncidenceOperator:
    """0/1 constraint matrix over the product grid of R blocks' atoms.

    ``ids`` holds one vector per block: ``ids[r][i]`` is the row of the one
    that atom i of block r puts in its columns, or ``m`` (a sentinel meaning
    "no one here"). Column k is the atom tuple
    ``np.unravel_index(k, dims)``, last block fastest, with ``dims`` the
    lengths of the vectors: it holds a one in the mass row 0, which every
    column has and no vector names, and one in the row of each of its
    atoms. Each block owns its rows, so no id of one block is another
    block's or 0. The operator is m x prod(dims); it stores sum(dims) ids.
    It serves ``y @ op`` and ``op @ x``, each a fresh array, and the column
    gather ``op[:, ids]``; ``np.asarray(op)`` writes it out.

    A two-block operator (R = 2, in the row layout of the consistency
    polytope) also factorizes its bases of `_TREE_ROWS` rows or more
    exactly, without LAPACK: `tree_factor`, which `_Simplex.refactor` tries
    first on every basis without artificials. The tree serves the solves
    B^-1 v and v B^-1 only; every explicit inverse comes from LAPACK.

    Immutable; safe to share across threads.
    """

    __slots__ = ("ids", "dims", "m", "shape", "_dense")
    # numpy defers ``y @ op`` to `__rmatmul__` instead of multiplying by
    # ``np.asarray(op)``, the dense matrix (128 MB at K = 200).
    __array_ufunc__ = None

    def __init__(self, ids: Sequence[np.ndarray], m: int):
        held = []
        for v in ids:
            v = np.asarray(v, dtype=np.intp)
            if v.flags.writeable:
                v = v.copy()  # the caller's array stays writable
                v.setflags(write=False)
            held.append(v)
        self.m = int(m)
        # The rows the blocks name, each block's once: all in 1..m-1, none twice.
        named = np.concatenate([sorted_distinct(v[v != self.m]) for v in held])
        if named.size and (
            named.min() < 1 or named.max() >= self.m or sorted_distinct(named).size < named.size
        ):
            raise InputError("incidence row ids must be the sentinel m or rows 1..m-1 of one block")
        self.ids = tuple(held)
        self.dims = tuple(v.size for v in held)
        self.shape = (self.m, math.prod(self.dims))
        self._dense = None
        if self.shape[0] * self.shape[1] <= _DENSE_ENTRIES:
            dense = self._columns(np.arange(self.shape[1]))
            dense.setflags(write=False)
            self._dense = dense

    def _rows(self, cols: np.ndarray) -> np.ndarray:
        """The (R+1, len(cols)) row ids of the ones of columns `cols`: the
        mass row 0, then one per block (m for none)."""
        rows = np.zeros((len(self.ids) + 1, cols.size), dtype=np.intp)
        for r, (ids, atoms) in enumerate(zip(self.ids, np.unravel_index(cols, self.dims))):
            rows[r + 1] = ids[atoms]
        return rows

    def _columns(self, cols: np.ndarray) -> np.ndarray:
        out = np.zeros((self.m + 1, cols.size))
        out[self._rows(cols), np.arange(cols.size)] = 1.0
        return out[: self.m]

    def __array__(self, dtype=None, copy=None):
        a = self._columns(np.arange(self.shape[1]))
        return a if dtype is None else a.astype(dtype)

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return y @ self._dense
        padded = np.zeros(self.m + 1)
        padded[: self.m] = y
        # The mass row's y[0], then each block's gather broadcast along its
        # axis, in block order: each entry adds its column's R+1 terms in
        # the order of their rows, the bits of the summed (R+1, K) gather.
        out = y[0]
        for ids in self.ids:
            out = np.add.outer(out, padded[ids])
        return out.ravel()

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if self._dense is not None:
            return self._dense @ x
        # Only x's nonzero entries: bincount adds in order from +0.0, and a
        # +-0.0 term changes no partial sum, so the bits are the full sum's.
        nz = (x != 0).nonzero()[0]
        out = np.bincount(
            self._rows(nz).ravel(), weights=np.tile(x[nz], len(self.ids) + 1),
            minlength=self.m + 1,
        )
        return out[: self.m]

    def __getitem__(self, key) -> np.ndarray:
        """``A[:, ids]``, one column for a scalar id; no other key."""
        whole, ids = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
        if not isinstance(whole, slice) or whole != slice(None):
            raise InputError("an incidence operator gathers only columns, as op[:, ids]")
        if self._dense is not None:
            return self._dense[:, ids]
        if np.ndim(ids) == 0:
            return self[:, [ids]][:, 0]
        return self._columns(np.asarray(ids, dtype=np.intp))

    def tree_factor(self, ids) -> "TreeFactor | None":
        """The spanning-tree factor of the square basis ``A[:, ids]`` of a
        two-block operator; None when the operator is not two-block, when
        the columns do not form a spanning tree (the basis is singular), or
        when the basis has fewer than `_TREE_ROWS` rows, where LAPACK is
        faster.

        Two-block: R = 2. The nodes are then each block's rows and its
        sentinel (its last class), and each column is an edge between its
        two atoms' nodes, so a nonsingular basis is a spanning tree of the
        m + 1 nodes, walked here once in preorder from block 0's sentinel.
        The mass row is in every column, so it is no node."""
        m = self.m
        if len(self.ids) != 2 or m < _TREE_ROWS:
            return None
        _mass, u, v = self._rows(np.asarray(ids, dtype=np.intp))
        # Nodes: the rows by id, block 0's sentinel m, block 1's m + 1.
        v[v == m] = m + 1
        side = np.full(m + 2, -1)
        side[u] = 0
        side[v] = 1

        adj: list[list[int]] = [[] for _ in range(m + 2)]
        for a, b in zip(u.tolist(), v.tolist()):
            adj[a].append(b)
            adj[b].append(a)
        root = m
        depth = [-1] * (m + 2)
        depth[root] = 0
        parent = [0] * (m + 2)
        order, stack = [], [root]
        while stack:  # preorder: a node's pushes pop before older entries
            w = stack.pop()
            order.append(w)
            for x in adj[w]:
                if depth[x] < 0:
                    depth[x] = depth[w] + 1
                    parent[x] = w
                    stack.append(x)
        if len(order) != m + 1:  # m edges leave a node unreached: a cycle
            return None
        size = [1] * (m + 2)
        for w in reversed(order[1:]):
            size[parent[w]] += size[w]
        return TreeFactor(m, side[:m], np.array(depth), np.array(order), np.array(size), u, v)


class TreeFactor:
    """The inverse of a two-block basis B (`IncidenceOperator.tree_factor`)
    kept as its spanning tree: B^-1 v and v B^-1 in O(m). It serves only
    these two solves; the explicit inverse a pivot needs is LAPACK's
    (`_Simplex._inverse`).

    A node's supply S[w] is the row vector with S[w] @ A[:, k] = 1 when
    column k touches w, else 0: e_w for a kept row, e_mass minus its
    block's kept rows for a sentinel. With sigma = (-1) ** depth, row e of
    B^-1 is sigma_c times the sum of sigma_w S[w] over the subtree below
    edge e's child c, since the edges inside the subtree cancel in pairs.
    In the preorder every subtree is a contiguous range of positions
    [lo_e, hi_e), so `solve` takes differences of suffix sums of the signed
    supplies, the leaf-to-root sweep, and `tsolve` adds each edge's term to
    its range and sums up the positions, the root-to-leaf potentials of
    the transportation simplex (Dantzig 1951). The mass row 0 is not a
    node; its position is kept as -1, which no range holds.

    Holds its own arrays only, so a caller may change the basis ids it was
    built from. Immutable."""

    __slots__ = ("m", "side", "sign", "order", "pos", "lo", "hi", "sc")

    def __init__(self, m, side, depth, order, size, u, v):
        self.m = m
        self.side = side  # each row's block, -1 for the mass row 0
        self.sign = np.where(depth % 2, -1, 1).astype(np.int8)
        self.order = order
        self.pos = np.empty(m + 2, dtype=np.intp)
        self.pos[order] = np.arange(m + 1)
        self.pos[0] = -1
        child = np.where(depth[u] > depth[v], u, v)
        self.lo = self.pos[child]
        self.hi = self.lo + size[child]
        self.sc = self.sign[child]

    def solve(self, v: np.ndarray) -> np.ndarray:
        """B^-1 v: each edge's signed sum of its subtree's supplies S[w] @ v."""
        m = self.m
        s = np.empty(m + 2)
        s[:m] = v
        # The sentinels': e_mass less their blocks' rows (bin 0 takes row 0).
        s[m:] = v[0] - np.bincount(self.side + 1, v, minlength=3)[1:]
        t = self.sign[self.order] * s[self.order]
        suffix = np.zeros(m + 2)
        suffix[: m + 1] = np.cumsum(t[::-1])[::-1]
        return self.sc * (suffix[self.lo] - suffix[self.hi])

    def tsolve(self, v: np.ndarray) -> np.ndarray:
        """v B^-1: each node's potential, the signed sum of v over the edges
        above it, spread back over its supply's rows."""
        m = self.m
        term = self.sc * v
        potential = np.cumsum(
            np.bincount(self.lo, term, minlength=m + 2)
            - np.bincount(self.hi, term, minlength=m + 2)
        )
        p = self.sign * potential[self.pos]
        y = p[:m] - p[m + self.side]
        y[0] = p[m] + p[m + 1]  # row 0 is no node: only the sentinels reach it
        return y


def sorted_distinct(values) -> np.ndarray:
    """The distinct entries of `values` (no nan), ascending. The same
    comparison as `np.unique`, which in numpy 2.4 imports `numpy.ma` on its
    first 1-d call without index or count outputs (about 13 ms and 1.2 MB
    of peak RSS on a 2-vCPU x86 VM)."""
    v = np.sort(np.ravel(values))
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def support_dot(v: np.ndarray, x: np.ndarray, support: np.ndarray) -> float:
    """v @ x for an x that is zero off `support` (ascending ids, such as an
    `LpSolution.support`), computed over those entries alone: no other
    entry of v or x is read."""
    return float(v[support] @ x[support])


def _as_matrix(a, n_cols: int, name: str):
    if a is None:
        return np.zeros((0, n_cols))
    if not isinstance(a, IncidenceOperator):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise InputError(f"{name} must be a 2-d matrix, got ndim={a.ndim}")
    if a.shape[1] != n_cols:
        raise InputError(
            f"{name} has {a.shape[1]} columns, expected {n_cols} (objective length)"
        )
    return a


def _as_vector(b, m: int, name: str) -> np.ndarray:
    if b is None:
        b = np.zeros(0)
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.shape != (m,):
        raise InputError(f"{name} has shape {b.shape}, expected ({m},)")
    if not np.all(np.isfinite(b)):
        raise InputError(f"{name} must be finite")
    return b


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """min/max objective @ x  s.t.  a_eq @ x = b_eq, a_ub @ x <= b_ub, x >= lower_bounds.

    ``lower_bounds`` defaults to 0 for every variable, held as a read-only
    zero view (``np.broadcast_to(0.0, (n,))``, no bytes per variable); every
    bound must be finite. The constraint matrices are
    ndarrays or `IncidenceOperator`s; they are held by reference and never
    mutated. The standard form of the constraint matrices, bounds and
    right-hand side is built here, once, and shared by every
    `with_objective` copy.
    """

    sense: str
    objective: np.ndarray
    a_eq: np.ndarray | IncidenceOperator | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | IncidenceOperator | None = None
    b_ub: np.ndarray | None = None
    lower_bounds: np.ndarray | None = None

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise InputError(f"sense must be 'min' or 'max', got {self.sense!r}")
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise InputError("objective must be a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise InputError("objective must be finite")
        object.__setattr__(self, "objective", c)
        n = c.size
        a_eq = _as_matrix(self.a_eq, n, "a_eq")
        a_ub = _as_matrix(self.a_ub, n, "a_ub")
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_eq", _as_vector(self.b_eq, a_eq.shape[0], "b_eq"))
        object.__setattr__(self, "b_ub", _as_vector(self.b_ub, a_ub.shape[0], "b_ub"))
        if self.lower_bounds is None:
            lb = np.broadcast_to(0.0, (n,))
        else:
            lb = np.atleast_1d(np.asarray(self.lower_bounds, dtype=float))
            if lb.shape != (n,):
                raise InputError(f"lower_bounds has shape {lb.shape}, expected ({n},)")
            if not np.all(np.isfinite(lb)):
                raise InputError("lower_bounds must be finite")
        object.__setattr__(self, "lower_bounds", lb)
        std = _Standardized(self)
        object.__setattr__(self, "_std", std)
        object.__setattr__(self, "_b", std.rhs(self.b_eq, self.b_ub))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    def with_objective(self, objective) -> "LinearProgram":
        """Same constraints and standard form (shared by reference), new
        objective vector.

        Only the objective is checked: the constraints were validated when
        this program was built and are never mutated, so they are not
        validated again."""
        c = np.atleast_1d(np.asarray(objective, dtype=float))
        if c.shape != self.objective.shape:
            raise InputError(
                f"objective has shape {c.shape}, expected {self.objective.shape}"
            )
        if not np.isfinite(c).all():
            raise InputError("objective must be finite")
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, objective=c)
        return out


class _Factor:
    """One basis of one operator exactly as a factorization produced it (no
    product-form updates since): its `TreeFactor`, or else its explicit
    inverse from LAPACK."""

    __slots__ = ("op", "basis", "tree", "b_inv")

    def __init__(self, op, basis: tuple[int, ...], tree: TreeFactor | None, b_inv):
        if b_inv is not None:
            b_inv.setflags(write=False)
        self.op = op
        self.basis = basis
        self.tree = tree
        self.b_inv = b_inv


@dataclass(frozen=True)
class LpSolution:
    """Solver result. ``basis`` lists internal standard-form column ids:
    0..n-1 original variables, then one slack per ub row.

    ``duals`` holds one multiplier per constraint row (equality rows, then
    inequality rows): the rate at which ``objective_value`` changes with
    that row's right-hand side. ``support`` holds the ascending ids of the
    variables x may be nonzero at (`_Standardized.support`); x is 0 at
    every other one, so `support_dot` takes products with x. ``factor`` is
    the basis's factorization when no pivot has updated it since: its
    `TreeFactor` for a two-block basis of `_TREE_ROWS` rows or more, else
    its explicit inverse. Pass the solution itself as the next start to
    reuse it."""

    status: str
    x: np.ndarray | None = None
    objective_value: float | None = None
    basis: tuple[int, ...] | None = None
    iterations: int = 0
    duals: np.ndarray | None = None
    support: np.ndarray | None = field(default=None, repr=False, compare=False)
    factor: _Factor | None = field(default=None, repr=False, compare=False)


class _Standardized:
    """The standard form of a program's constraint matrices and bounds:
    A z = b, z >= 0, for any right-hand side b (`rhs`).

    Columns: the variables shifted by their lower bounds, then one slack
    per ub row. Rows: the equality rows, then the ub rows, as given. ``a``
    is the caller's matrix itself when no column is added. Read-only after
    construction; only `cost` depends on the objective and only `rhs` on
    the right-hand side.
    """

    __slots__ = ("a", "m", "n", "row_ids", "n_orig", "n_slack", "shift", "shifted", "row_shift")

    def __init__(self, lp: LinearProgram):
        self.n_orig = lp.n_vars
        self.n_slack = lp.a_ub.shape[0]
        # The shift by the lower bounds; None when every one is 0.
        self.shifted = np.flatnonzero(lp.lower_bounds)
        self.shift = lp.lower_bounds if self.shifted.size else None

        m_eq, m_ub = lp.a_eq.shape[0], lp.a_ub.shape[0]
        if m_ub == 0:
            rows = lp.a_eq
        elif m_eq == 0:
            rows = lp.a_ub
        else:
            rows = np.vstack([lp.a_eq, lp.a_ub])
        # What the shift takes off every right-hand side.
        self.row_shift = None if self.shift is None else rows @ self.shift
        # Without slack columns the caller's matrix is the system.
        self.a = rows
        if self.n_slack:
            slack_block = np.zeros((rows.shape[0], self.n_slack))
            slack_block[m_eq + np.arange(self.n_slack), np.arange(self.n_slack)] = 1.0
            self.a = np.hstack([np.asarray(rows), slack_block])
        self.m, self.n = self.a.shape
        self.row_ids = np.arange(self.m)
        self.row_ids.setflags(write=False)

    def rhs(self, b_eq: np.ndarray, b_ub: np.ndarray) -> np.ndarray:
        """The standard-form right-hand side of `b_eq` and `b_ub`: the
        rows' right-hand sides less what the lower-bound shift takes off
        them. A new read-only array; the caller's vectors stay as given."""
        b = np.concatenate([b_eq, b_ub])
        if self.row_shift is not None:
            b -= self.row_shift
        b.setflags(write=False)
        return b

    def cost(self, lp: LinearProgram) -> tuple[np.ndarray, bool]:
        """The standard-form cost vector of `lp`'s objective (minimized) as
        (v, negated): the cost is -v when negated, else v. Without added
        columns v is the objective itself, so a max program makes no
        negated copy (`_reduced_costs` takes the sign)."""
        if not self.n_slack:
            return lp.objective, lp.sense == "max"
        c = lp.objective if lp.sense == "min" else -lp.objective
        return np.concatenate([c, np.zeros(self.n_slack)]), False

    def support(self, basic: np.ndarray) -> np.ndarray:
        """The ascending ids of the variables that may be nonzero in the x
        of the basic solution whose standard-form basis is `basic`
        (ascending): the basic ones and those shifted by a nonzero lower
        bound, which may be basic too. `recover_x` gives 0 at every other
        one."""
        lo = basic.searchsorted(self.n_orig)
        return sorted_distinct(np.concatenate((basic[:lo], self.shifted)))

    def recover_x(self, z: np.ndarray) -> np.ndarray:
        """The x of the standard-form solution `z`, computed in place on z
        (the caller's fresh vector) and returned as a view of it. Adding the
        shift, or 0.0 without one, also turns every -0.0 into +0.0."""
        x = z[: self.n_orig]
        x += 0.0 if self.shift is None else self.shift
        return x


class _Simplex:
    """Revised simplex on a program's standard form min c@z, A z = b, z >= 0.

    Artificial columns are implicit signed unit vectors: id n + i is
    sign(b_i) e_i, -e_i where b_i < 0 and e_i otherwise, so the all-artificial
    phase-1 start has the values |b| >= 0. They never reenter the basis and
    are pivoted out (or their redundant rows dropped) before phase 2, so a
    phase-2 basis, and so a returned one, only contains real columns.
    ``row_ids`` maps the working rows back to the system's.

    `refactor` factorizes every basis, the phase-1 start and an empty one
    included. A fresh factorization is ``tree`` (a `TreeFactor`) or else
    ``b_inv``, the explicit inverse from LAPACK (`_lapack_inverse`), which
    `_inverse` also forms for a tree when a pivot first needs it; a pivot
    drops the tree.
    """

    __slots__ = (
        "a", "b", "c", "negated", "m", "n", "row_ids", "basis", "tree", "b_inv", "x_b",
        "y", "iterations", "_phase", "_bland", "_degen_run", "_since_refactor",
    )

    def __init__(self, lp: LinearProgram):
        std = lp._std
        self.a = std.a
        self.b = lp._b
        self.c, self.negated = std.cost(lp)  # the phase-2 cost, -c when negated
        self.m, self.n = std.m, std.n
        self.row_ids = std.row_ids
        self.basis = None
        self.tree = None
        self.b_inv = None
        self.x_b = None
        self.y = None
        self.iterations = 0
        self._phase = 2
        self._bland = False
        self._degen_run = 0
        self._since_refactor = 0

    # -- basis linear algebra -------------------------------------------------

    def refactor(self) -> bool:
        """Factorize the current basis, by its tree or else by LAPACK;
        False when it is singular or a factorization is not finite."""
        tree = None
        if isinstance(self.a, IncidenceOperator) and (self.basis < self.n).all():
            tree = self.a.tree_factor(self.basis)
        if tree is not None:
            self._factorized(tree, None)
            return bool(np.isfinite(self.x_b).all())  # the tree's x_B
        b_inv = self._lapack_inverse()
        if b_inv is None:
            return False
        self._factorized(None, b_inv)
        return True

    def _lapack_inverse(self) -> np.ndarray | None:
        """LAPACK's inverse of the basis matrix, its artificial columns
        written out; None when LAPACK finds the matrix singular or the
        inverse is not finite."""
        real = self.basis < self.n
        bm = np.zeros((self.m, self.m))
        bm[:, real] = self.a[:, self.basis[real]]
        art = np.flatnonzero(~real)
        rows = self.basis[art] - self.n
        bm[rows, art] = np.where(self.b[rows] < 0, -1.0, 1.0)
        try:
            b_inv = np.linalg.inv(bm)
        except np.linalg.LinAlgError:
            return None
        return b_inv if np.isfinite(b_inv).all() else None

    def _factorized(self, tree: TreeFactor | None, b_inv: np.ndarray | None) -> None:
        """Take a fresh factorization: the basis's tree, or else its
        explicit inverse."""
        self.tree = tree
        self.b_inv = b_inv
        self.x_b = b_inv @ self.b if tree is None else tree.solve(self.b)
        self._since_refactor = 0

    def _inverse(self) -> np.ndarray:
        """The explicit basis inverse; for a tree factorization, LAPACK's,
        formed on first use. The tree's x_B stays."""
        if self.b_inv is None:
            self.b_inv = self._lapack_inverse()
            if self.b_inv is None:
                raise SolverError("inverse of a tree-factorized basis failed")
        return self.b_inv

    def set_basis(self, basis: tuple[int, ...], factor: _Factor | None = None) -> bool:
        """Factorize `basis`, or take `factor` when it is this basis's
        inverse; False when `basis` is not a nonsingular basis of the
        system."""
        m = self.m
        if not basis or len(basis) != m or len(set(basis)) != m:
            return False
        if min(basis) < 0 or max(basis) >= self.n:
            return False
        self.basis = np.array(basis, dtype=np.int64)
        if factor is not None and factor.op is self.a and factor.basis == basis:
            # Same operator, same basis, fresh factorization: refactoring
            # would recompute these very numbers.
            self._factorized(factor.tree, factor.b_inv)
            return True
        return self.refactor()

    def factor(self, basis: tuple[int, ...]) -> _Factor | None:
        """The factorization of `basis` (the current one), when no pivot
        has updated it since it was factorized."""
        if self._since_refactor or self.m == 0:
            return None
        return _Factor(self.a, basis, self.tree, self.b_inv)

    def _pivot(self, row: int, j_enter: int, d: np.ndarray, step: float) -> None:
        x_b = self.x_b
        x_b -= step * d
        x_b[row] = step
        b_inv = self._inverse()
        if not b_inv.flags.writeable:
            b_inv = self.b_inv = b_inv.copy()  # a reused factorization is shared
        piv_row = b_inv[row] / d[row]
        b_inv -= d[:, None] * piv_row
        b_inv[row] = piv_row
        self.tree = None
        self.basis[row] = j_enter
        self.iterations += 1
        self._since_refactor += 1
        if self._since_refactor >= _REFACTOR_EVERY:
            if not self.refactor():
                raise SolverError("basis refactorization failed")
        if step <= PIVOT_TOL:
            self._degen_run += 1
            if self._degen_run >= _BLAND_AFTER:
                self._bland = True
        else:
            self._degen_run = 0

    # -- simplex iterations ---------------------------------------------------

    def _basic_cost(self, c_work: np.ndarray) -> np.ndarray:
        if self._phase == 2:
            cb = c_work[self.basis]
            return np.negative(cb, out=cb) if self.negated else cb
        # Implicit artificials (ids >= n) cost 1 in phase 1.
        cb = np.zeros(self.m)
        real = self.basis < self.n
        cb[real] = c_work[self.basis[real]]
        cb[~real] = 1.0
        return cb

    def _ratio_test(self, d: np.ndarray) -> int:
        rows = (d > PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return -1
        ratios = np.maximum(self.x_b[rows], 0.0) / d[rows]
        ties = rows[ratios <= ratios.min() + PIVOT_TOL]
        if ties.size == 1:
            return int(ties[0])
        if self._bland:
            return int(ties[self.basis[ties].argmin()])
        return int(ties[d[ties].argmax()])

    def _run(self, c_work: np.ndarray) -> str:
        """Minimize c_work from the current feasible basis; on optimality
        ``self.y`` holds the duals c_B B^-1."""
        a = self.a
        while True:
            if self.iterations > _MAX_PIVOTS:
                raise SolverError("pivot limit exceeded")
            basis = self.basis
            cb = self._basic_cost(c_work)
            y = cb @ self.b_inv if self.tree is None else self.tree.tsolve(cb)
            r = _reduced_costs(c_work, self._phase == 2 and self.negated, y @ a)
            # Basics must not reenter.
            r[basis if self._phase == 2 else basis[basis < self.n]] = np.inf
            if self._bland:
                improving = (r < -OPT_TOL).nonzero()[0]
                if improving.size == 0:
                    self.y = y
                    return "optimal"
                j = int(improving[0])
            else:
                j = int(r.argmin())
                if r[j] >= -OPT_TOL:
                    self.y = y
                    return "optimal"
                # Reduced costs within PIVOT_TOL of the least one tie, as
                # ratios tie in the ratio test, and the lowest id among them
                # enters: a rounding-level change of the data cannot swap two
                # equally good columns.
                j = int((r <= r[j] + PIVOT_TOL).argmax())
            d = self._inverse() @ a[:, j]
            row = self._ratio_test(d)
            if row < 0:
                return "unbounded"
            step = max(self.x_b[row] / d[row], 0.0)
            self._pivot(row, j, d, step)

    def solve(
        self, start_basis: Sequence[int] | None = None, factor: _Factor | None = None
    ) -> str:
        m, n = self.m, self.n
        started = (
            start_basis is not None
            and self.set_basis(tuple(start_basis), factor)
            and self.x_b.min() >= -FEAS_TOL
        )
        if started:
            np.maximum(self.x_b, 0.0, out=self.x_b)
        else:
            self._phase = 1
            self.basis = np.arange(n, n + m, dtype=np.int64)
            if not self.refactor():
                raise SolverError("phase-1 factorization failed")
            self._bland = False
            self._degen_run = 0
            status = self._run(np.zeros(n))
            if status != "optimal":
                raise SolverError(f"phase 1 ended with status {status!r}")
            if float(self.x_b[self.basis >= n].sum()) > FEAS_TOL:
                return "infeasible"
            self._evict_artificials()

        self._phase = 2
        self._bland = False
        self._degen_run = 0
        status = self._run(self.c)
        if status != "optimal":
            return status
        # Guard against drift: refactor once and re-verify optimality.
        if self._since_refactor > 0:
            if not self.refactor():
                raise SolverError("final refactorization failed")
            status = self._run(self.c)
        return status

    def _evict_artificials(self) -> None:
        """Pivot zero-level artificials out; drop genuinely redundant rows."""
        art_rows = [i for i in range(self.m) if self.basis[i] >= self.n]
        if not art_rows:
            return
        in_basis = np.zeros(self.n, dtype=bool)
        in_basis[self.basis[self.basis < self.n]] = True
        drop = []
        for i in art_rows:
            tableau_row = self._inverse()[i] @ self.a
            tableau_row[in_basis] = 0.0
            j = int(np.argmax(np.abs(tableau_row)))
            if abs(tableau_row[j]) > PIVOT_TOL:
                d = self._inverse() @ self.a[:, j]
                self._pivot(i, j, d, 0.0)
                in_basis[j] = True
            else:
                drop.append(i)
        if drop:
            keep = np.setdiff1d(np.arange(self.m), np.array(drop, dtype=int))
            self.a = np.asarray(self.a)[keep]
            self.b = self.b[keep]
            self.basis = self.basis[keep]
            self.row_ids = self.row_ids[keep]
            self.m = keep.size
            if not self.refactor():
                raise SolverError("refactorization failed after dropping redundant rows")


def solve_lp(
    lp: LinearProgram, start_basis: Sequence[int] | LpSolution | None = None
) -> LpSolution:
    """Solve `lp` and return a certified vertex solution.

    `start_basis`: internal column ids from a previous solve over the same
    constraint matrices and bounds (the objective and right-hand sides may
    differ), or that solve's `LpSolution`, which also lends its basis
    inverse when it is fresh.
    An unusable basis silently falls back to a cold two-phase start.

    After the simplex stops, `_check_certificate` checks the reduced costs
    under the duals, then builds the dense standard-form solution, then
    checks the duality gap over its basic columns; x is recovered from that
    solution in place, and last its feasibility on the caller's data is
    checked.
    """
    factor = None
    if isinstance(start_basis, LpSolution):
        factor, start_basis = start_basis.factor, start_basis.basis
    std = lp._std
    sx = _Simplex(lp)
    status = sx.solve(start_basis, factor)
    if status != "optimal":
        return LpSolution(status=status, iterations=sx.iterations)

    # Duals of the standard-form rows, zero on dropped rows.
    y = sx.y
    if sx.m < std.m:
        y = np.zeros(std.m)
        y[sx.row_ids] = sx.y
    z, basic = _check_certificate(lp, sx.c, sx.negated, sx.basis, sx.x_b, y)
    x = std.recover_x(z)  # in place: z is not read again
    _check_solution(lp, x)
    support = std.support(basic)
    basis = tuple(sx.basis.tolist())
    return LpSolution(
        status="optimal",
        x=x,
        objective_value=support_dot(lp.objective, x, support),
        basis=basis,
        iterations=sx.iterations,
        duals=y if lp.sense == "min" else -y,
        support=support,
        factor=sx.factor(basis),
    )


def _check_solution(lp: LinearProgram, x: np.ndarray) -> None:
    """Raise SolverError if the claimed optimum is not tolerance-feasible."""
    if lp.a_eq.shape[0]:
        res = np.abs(lp.a_eq @ x - lp.b_eq).max()
        if res > 100 * FEAS_TOL:
            raise SolverError(f"equality residual {res:.3e} exceeds tolerance")
    if lp.a_ub.shape[0]:
        res = (lp.a_ub @ x - lp.b_ub).max()
        if res > 100 * FEAS_TOL:
            raise SolverError(f"inequality violation {res:.3e} exceeds tolerance")
    res = (lp.lower_bounds - x).max()
    if res > 100 * FEAS_TOL:
        raise SolverError(f"bound violation {res:.3e} exceeds tolerance")


def _reduced_costs(c: np.ndarray, negated: bool, r: np.ndarray) -> np.ndarray:
    """The reduced costs c - A'y of the cost c, or -c when `negated`,
    written into r = A'y (a fresh ``y @ A`` output) and returned. The
    negated ones are (-A'y) - c, which has the bits of (-c) - A'y, signed
    zeros included, since IEEE addition commutes."""
    if negated:
        np.negative(r, out=r)
        return np.subtract(r, c, out=r)
    return np.subtract(c, r, out=r)


def _check_certificate(
    lp: LinearProgram, c: np.ndarray, negated: bool, basis: np.ndarray, x_b: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Raise SolverError unless the duals `y` certify optimal, for the
    standard form A z = b of `lp` with cost `c` (-c when `negated`), the
    basic solution z that is `x_b` (clipped at 0) on the columns `basis`
    and zero elsewhere; return (z, its basic columns in ascending order).

    In this order: every reduced cost is at least -OPT_TOL (the simplex's
    own optimality test), with A'y priced here from y itself, never taken
    from the simplex; then the dense z is built, once that K-long pricing
    vector is gone; then the cost of z, over its basic columns alone
    (`support_dot`), must equal b'y up to the primal tolerance scaled by
    |b|'|y|."""
    b = lp._b
    worst = _reduced_costs(c, negated, y @ lp._std.a).min()
    if worst < -OPT_TOL:
        raise SolverError(
            f"reduced cost {worst:.3e} is below -{OPT_TOL:g}; the basis is not optimal"
        )
    z = np.zeros(lp._std.n)
    z[basis] = np.maximum(x_b, 0.0)
    basic = np.sort(basis)
    cz = support_dot(c, z, basic)
    gap = abs((-cz if negated else cz) - b @ y)
    tol = 100 * FEAS_TOL * max(1.0, np.abs(b) @ np.abs(y))
    if gap > tol:
        raise SolverError(f"duality gap {gap:.3e} exceeds tolerance {tol:.3e}")
    return z, basic
