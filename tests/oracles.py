"""Brute-force oracles the test suite checks the solvers against.

Everything here but the two shortage LPs is deliberately independent of
the package's simplex path: vertices come from active-set enumeration,
optima from exhaustive search over those vertices, and unboundedness from
extreme rays of the recession cone. Sized for at most a handful of
variables. `lp_worst_case_shortage` keeps the LP that the closed-form
comonotonic worst case replaced; `lp_least_shortage` is its min-sense
counterpart, which the countermonotonic vertex attains for two blocks.
`expected_profit` is a coalition's expected profit at an order under a
known joint, one scalar dot, once a package function that only tests
called.
`exact_sigma_slopes` evaluates the least-core cuts in rational arithmetic.
`two_phase_stability_lp` keeps the cold two-phase solve of the stability LP
in its primal form, which the dual form replaced, its free variables split
into two nonnegative columns each, and
`exact_least_core_eps` the exact optimum of that LP by rational vertex
enumeration. The `per_coalition_*` and
`per_mask_*` functions keep the one-coalition-at-a-time loops that the
batched demand rows and the row-wise order kernel replaced.
`per_vertex_best_orders` and `per_entry_vertex_table` keep the vertex
path's rule one coalition and one vertex at a time, through the one-joint
kernel, and `solved_vertex_table` the enumeration that solves every column
basis, which the integer-inverse screen replaced. `loop_northwest_corner` keeps the residual-subtracting
walk that the merged cumulative sums replaced. `flat_incidence_rows`,
`gathered_rmatvec` and `gathered_tree_factor` keep the (R+1, K) row-id
layout of the consistency operator, its pricing product and its tree
factor, which the per-block row ids replaced, and
`scalar_kink_profits` the one-call-per-kink scan of the action interval.
`contaminate` is the stress loop's mixture of the independent joint with an
extremal one, and `consistency_gap` measures how far a joint is from the
consistency polytope; both were package functions that only tests called.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from nvgames.errors import SolverError
from nvgames.lp import LinearProgram, TreeFactor, solve_lp, support_dot


def enumerate_vertices(a_eq, b_eq, a_ub=None, b_ub=None, lb=None, tol=1e-9):
    """All vertices of {x : a_eq x = b_eq, a_ub x <= b_ub, x >= lb} with
    finite lb: by `column_basis_vertices` for equality rows only and zero
    lower bounds, else by `active_set_vertices`."""
    if (a_ub is None or np.size(a_ub) == 0) and (lb is None or not np.any(lb)):
        return column_basis_vertices(a_eq, b_eq, tol)
    return active_set_vertices(a_eq, b_eq, a_ub, b_ub, lb, tol)


def _row_basis(a: np.ndarray) -> list[int]:
    """The rows of a row basis of `a`, picked greedily in order."""
    basis: list[int] = []
    for i in range(a.shape[0]):
        if np.linalg.matrix_rank(a[basis + [i]]) > len(basis):
            basis.append(i)
    return basis


def _distinct(points) -> list:
    """`points` less each one within 1e-7 (max norm) of an earlier kept one."""
    kept: list = []
    for x in points:
        if not kept or np.abs(np.asarray(kept) - x).max(axis=1).min() > 1e-7:
            kept.append(x)
    return kept


def column_basis_vertices(a_eq, b_eq, tol=1e-9):
    """All vertices of {x : a_eq x = b_eq, x >= 0}, as its basic feasible
    solutions: for a row basis of a_eq of r rows, every set of r columns
    whose r x r matrix has a determinant above tol, all solved as one batch
    and kept when x_B >= -tol and every row of a_eq holds. That is C(n, r)
    systems of r x r where `active_set_vertices` takes C(n, n - r) of
    n x n."""
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    n = a_eq.shape[1]
    rows = _row_basis(a_eq)
    sets = list(itertools.combinations(range(n), len(rows)))
    sets = np.array(sets, dtype=np.intp).reshape(len(sets), len(rows))
    mats = a_eq[rows][:, sets].transpose(1, 0, 2)  # mats[k] = a_eq[rows][:, sets[k]]
    keep = np.abs(np.linalg.det(mats)) > tol  # a 0 x 0 determinant is 1
    sets, mats = sets[keep], mats[keep]
    rhs = np.broadcast_to(b_eq[rows], (len(sets), len(rows)))
    x_b = np.linalg.solve(mats, rhs[..., None])[..., 0]
    xs = np.zeros((len(sets), n))
    np.put_along_axis(xs, sets, x_b, axis=1)
    feasible = np.all(x_b >= -tol, axis=1)
    if a_eq.shape[0]:
        feasible &= np.max(np.abs(xs @ a_eq.T - b_eq), axis=1) <= tol
    return _distinct(xs[feasible])


def active_set_vertices(a_eq, b_eq, a_ub=None, b_ub=None, lb=None, tol=1e-9):
    """All vertices of {x : a_eq x = b_eq, a_ub x <= b_ub, x >= lb} with
    finite lb, by enumerating active sets: every set of inequality rows
    that completes a row basis of a_eq to n independent rows, all of them
    solved as one batch of square systems. Larger active sets only repeat
    these vertices."""
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float)) if a_eq is not None else None
    n = a_eq.shape[1] if a_eq is not None else np.asarray(a_ub).shape[1]
    if a_eq is None:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
    a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float)) if a_ub is not None else np.zeros((0, n))
    b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float)) if b_ub is not None else np.zeros(0)
    lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)

    bounded = np.flatnonzero(np.isfinite(lb))
    pool = np.vstack([-np.eye(n)[bounded], a_ub])
    pool_rhs = np.concatenate([-lb[bounded], b_ub])

    def feasible(x):
        if a_eq.shape[0] and np.max(np.abs(a_eq @ x - b_eq)) > tol:
            return False
        if a_ub.shape[0] and np.max(a_ub @ x - b_ub) > tol:
            return False
        finite = np.isfinite(lb)
        return not np.any(x[finite] < lb[finite] - tol)

    basis = _row_basis(a_eq)
    need = n - len(basis)
    if need > pool.shape[0]:
        return []
    sets = list(itertools.combinations(range(pool.shape[0]), need))
    sets = np.array(sets, dtype=np.intp).reshape(len(sets), need)
    mats = np.concatenate(
        [np.broadcast_to(a_eq[basis], (len(sets), len(basis), n)), pool[sets]], axis=1
    )
    rhs = np.concatenate(
        [np.broadcast_to(b_eq[basis], (len(sets), len(basis))), pool_rhs[sets]], axis=1
    )
    square = np.linalg.matrix_rank(mats) == n
    mats, rhs = mats[square], rhs[square]
    xs = np.linalg.solve(mats, rhs[..., None])[..., 0]
    solved = [x for mat, b, x in zip(mats, rhs, xs) if np.max(np.abs(mat @ x - b)) <= tol]
    return _distinct(x for x in solved if feasible(x))


def enumerate_recession_rays(a_eq, a_ub, tol=1e-9):
    """Extreme rays of the recession cone of a program whose variables all
    have finite lower bounds, normalized to unit coordinate sum; empty when
    the feasible set is bounded in every improving direction."""
    a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
    n = a_eq.shape[1]
    norm = np.ones(n)
    eq = np.vstack([a_eq, norm[None, :]]) if a_eq.size else norm[None, :]
    beq = np.concatenate([np.zeros(a_eq.shape[0]), [1.0]])
    return enumerate_vertices(eq, beq, a_ub, np.zeros(np.atleast_2d(a_ub).shape[0]) if a_ub is not None else None, np.zeros(n), tol)


def oracle_solve_lp(lp: LinearProgram, tol=1e-9):
    """(status, optimal value, vertex set) by exhaustive enumeration. All
    variable lower bounds must be finite."""
    c = lp.objective if lp.sense == "min" else -lp.objective
    verts = enumerate_vertices(lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub, lp.lower_bounds, tol)
    if not verts:
        return "infeasible", None, []
    rays = enumerate_recession_rays(lp.a_eq, lp.a_ub, tol)
    if any(float(c @ d) < -1e-9 for d in rays):
        return "unbounded", None, verts
    values = [float(c @ v) for v in verts]
    best = min(values)
    best = best if lp.sense == "min" else -best
    return "optimal", best, verts


def standard_form_dual(lp: LinearProgram) -> LinearProgram:
    """Dual of `lp` after conversion to equality standard form (shift the
    lower bounds, add slacks): max b'y s.t. A'y <= c, y free. Expressed with
    box bounds |y| <= 1e6 so the brute-force enumerator applies; tests must
    discard instances whose dual optimum touches the box."""
    shift = lp.lower_bounds
    c = lp.objective if lp.sense == "min" else -lp.objective
    m_eq, m_ub = lp.a_eq.shape[0], lp.a_ub.shape[0]
    rows = np.vstack([lp.a_eq, lp.a_ub]) if (m_eq + m_ub) else np.zeros((0, lp.n_vars))
    rhs = np.concatenate([lp.b_eq, lp.b_ub]) - rows @ shift
    n_z = lp.n_vars + m_ub
    a = np.zeros((rows.shape[0], n_z))
    a[:, : lp.n_vars] = rows
    a[m_eq:, lp.n_vars :] = np.eye(m_ub)
    c_z = np.concatenate([c, np.zeros(m_ub)])
    box = 1e6
    m = rows.shape[0]
    return LinearProgram(
        sense="max",
        objective=rhs,
        a_ub=np.vstack([a.T, np.eye(m)]),
        b_ub=np.concatenate([c_z, np.full(m, box)]),
        lower_bounds=np.full(m, -box),
    )


def dual_objective_offset(lp: LinearProgram) -> float:
    """Constant separating the standard-form dual value from the original
    optimum: original = dual_value + c @ shift (min sense)."""
    c = lp.objective if lp.sense == "min" else -lp.objective
    return float(c @ lp.lower_bounds)


def brute_force_ratios(inst, y: float, mask: int, tol=1e-9) -> dict[float, float]:
    """Per distinct coalition demand value gamma, the max over enumerated
    polytope vertices q of profit(gamma, S; q) / grand profit(y; q)."""
    from nvgames.distributions import get_polytope

    poly = get_polytope(inst)
    verts = enumerate_vertices(np.asarray(poly.matrix), np.asarray(poly.rhs), tol=tol)
    d_s = poly.coalition_demands(mask)
    d_n = poly.coalition_demands(inst.grand_mask)
    p, c = inst.price, inst.cost
    ratios = {}
    for gamma in np.unique(d_s):
        numer_coeff = (p - c) * gamma - p * np.maximum(gamma - d_s, 0.0)
        best = -np.inf
        for q in verts:
            den = (p - c) * y - p * float(np.maximum(y - d_n, 0.0) @ q)
            if den <= 0:
                continue
            best = max(best, float(numer_coeff @ q) / den)
        ratios[float(gamma)] = best
    return ratios


def brute_force_vmax(inst, y: float, mask: int, tol=1e-9):
    """max over distinct coalition demand values gamma and enumerated
    polytope vertices q of profit(gamma, S; q) / grand profit(y; q)."""
    return max(brute_force_ratios(inst, y, mask, tol).values())


def lp_worst_case_shortage(inst, y: float, mask: int) -> float:
    """max over the consistency polytope of E_q[(y - d(S))^+], solved as an
    LP by the package's simplex."""
    from nvgames.distributions import get_polytope

    poly = get_polytope(inst)
    objective = np.maximum(y - poly.coalition_demands(mask), 0.0)
    value, _q = poly.maximize(objective)
    return max(value, 0.0)


def lp_least_shortage(inst, y: float, mask: int) -> float:
    """min over the consistency polytope of E_q[(y - d(S))^+]: a min-sense
    LP on the dense consistency rows, solved from a cold start by the
    package's simplex."""
    from nvgames.distributions import get_polytope

    poly = get_polytope(inst)
    objective = np.maximum(y - poly.coalition_demands(mask), 0.0)
    sol = solve_lp(LinearProgram("min", objective, a_eq=np.asarray(poly.matrix), b_eq=poly.rhs))
    assert sol.status == "optimal"
    return sol.objective_value


def exact_sigma_slopes(solver) -> tuple[Fraction, Fraction]:
    """The slopes (g-, g+) that `RobustGameSolver._sigma_slopes` computes at
    the solver's last table and sigma, evaluated in exact rational
    arithmetic on the same float inputs: stability weights, ratios,
    witnesses (on the vertex path, every tied vertex), price, cost and
    grand demands."""
    table = solver._last_table
    w = solver._last_sigma[2]
    p, pc, y = Fraction(solver.p), Fraction(solver.p) - Fraction(solver.c), Fraction(table.y)
    d = [Fraction(v) for v in solver.d_grand]
    g_lo = g_hi = Fraction(0)
    used = np.flatnonzero(w > 0.0)
    verts = solver.poly.vertices()
    tied = None if verts is None or not used.size else solver._tie_mask(used)
    for j, i in enumerate(used):
        pieces = [table.joints[i]] if tied is None else verts[tied[j]]
        lo, hi = [], []
        for q in pieces:
            q = [Fraction(v) for v in q]
            grand = pc * y - p * sum(qk * max(y - dk, 0) for qk, dk in zip(q, d))
            scale = Fraction(w[i]) * Fraction(table.ratios[i]) / grand
            lo.append(-scale * (pc - p * sum(qk for qk, dk in zip(q, d) if dk < y)))
            hi.append(-scale * (pc - p * sum(qk for qk, dk in zip(q, d) if dk <= y)))
        g_lo += min(lo)
        g_hi += max(hi)
    return g_lo, g_hi


def scalar_coalition_profits(inst, qv) -> tuple[np.ndarray, dict[int, float]]:
    """(grand demand row, profits): each nonempty proper coalition's best
    profit under one joint vector `qv`, one coalition at a time. Demands
    come from `per_coalition_demands`; a coalition inside one block orders
    its `per_coalition_worst_case_order`, one spanning blocks the first
    demand in its stable sort order whose cumulative probability reaches
    the critical ratio less 1e-12 (`np.searchsorted`)."""
    from nvgames.distributions import get_polytope

    poly = get_polytope(inst)
    p, c = inst.price, inst.cost
    profits = {}
    for mask in range(1, inst.grand_mask):
        d_s = per_coalition_demands(poly, mask)
        if sum(1 for bm in inst.block_masks if mask & bm) == 1:
            y_s = per_coalition_worst_case_order(inst, mask)[0]
        else:
            order = np.argsort(d_s, kind="stable")
            idx = int(np.searchsorted(np.cumsum(qv[order]), inst.ratio - 1e-12, side="left"))
            y_s = float(d_s[order][min(idx, d_s.size - 1)])
        profits[mask] = (p - c) * y_s - p * float(np.maximum(y_s - d_s, 0.0) @ qv)
    return per_coalition_demands(poly, inst.grand_mask), profits


def scalar_excess(inst, q, decision) -> float:
    """Excess of `decision` under one joint `q`, one coalition at a time: the
    per-joint loop the stacked `ExcessEvaluator.excess` replaced, kept as its
    bit-for-bit reference."""
    from nvgames.distributions import JointDistribution
    from nvgames.errors import DomainError

    qv = q.q if isinstance(q, JointDistribution) else np.asarray(q, dtype=float)
    p, c = inst.price, inst.cost
    d_grand, profits = scalar_coalition_profits(inst, qv)
    den = (p - c) * decision.y - p * float(np.maximum(decision.y - d_grand, 0.0) @ qv)
    if den <= 0.0:
        raise DomainError(
            f"grand profit {den} is nonpositive under the realized joint; "
            "excess is undefined"
        )
    z = decision.z
    n = z.size
    zsum = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        zsum[mask] = zsum[mask ^ low] + z[low.bit_length() - 1]
    worst = 0.0
    for mask, numer in profits.items():
        worst = max(worst, numer / den - float(zsum[mask]))
    return max(worst, 0.0)


def bisect_action_interval_upper(inst, y_tol=1e-6):
    """Upper end of the grand action interval by the bracket-and-bisect
    search that the exact kink scan replaced: within y_tol above the root of
    the worst-case grand profit, where that profit is nonpositive."""
    from nvgames.newsvendor import comonotonic_coupling, coupled_profit, worst_case_order

    coupling = comonotonic_coupling(inst, inst.grand_mask)

    def g(y):
        return coupled_profit(inst, coupling, y)

    y_peak = worst_case_order(inst, inst.grand_mask).y_star
    lo, hi = y_peak, max(2.0 * y_peak, y_peak + 1.0)
    while g(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while hi - lo > y_tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def two_phase_stability_lp(n: int, values: np.ndarray, total: float):
    """(x, eps, w) of `coop.solve_stability_lp` from the cold two-phase
    start: the same program in its primal form, min eps s.t. x(S) + eps >=
    value(S) and x(N) = total, solved with no start basis. The values come
    as for that function, an array over masks 1, 2, ..., 2^n - 2. The free
    x and eps are written as u+ - u- with u+, u- >= 0: the columns of u+,
    then those of u-."""
    masks = range(1, len(values) + 1)
    rows = np.array([[mask >> j & 1 for j in range(n)] for mask in masks], dtype=float)
    a_eq = np.r_[np.ones(n), 0.0][None, :]
    a_ub = -np.hstack([rows, np.ones((len(masks), 1))])
    c = np.r_[np.zeros(n), 1.0]
    sol = solve_lp(LinearProgram(
        sense="min",
        objective=np.r_[c, -c],
        a_eq=np.hstack([a_eq, -a_eq]),
        b_eq=[total],
        a_ub=np.hstack([a_ub, -a_ub]),
        b_ub=-np.asarray(values, dtype=float),
    ))
    if sol.status != "optimal":
        raise SolverError(f"stability LP reported {sol.status!r}")
    u = sol.x[: n + 1] - sol.x[n + 1 :] + 0.0
    return u[:n], float(u[n]), -sol.duals[1:]


def exact_least_core_eps(n: int, values_by_mask, total: float = 1.0) -> Fraction:
    """The exact optimum of min eps s.t. x(S) + eps >= value(S) for every
    given coalition and x(N) = total, on the float data read as rationals.
    The rows must make the program bounded (a full table does). Its
    feasible set is pointed (the singleton rows and x(N) are independent),
    so the optimum is the least eps over its vertices: each set of n
    coalition rows tight beside x(N) = total, solved in `Fraction`
    arithmetic, that is nonsingular and satisfies every row exactly."""
    masks = sorted(values_by_mask)
    vals = [Fraction(float(values_by_mask[m])) for m in masks]
    members = [[j for j in range(n) if m >> j & 1] for m in masks]
    best = None
    for tight in itertools.combinations(range(len(masks)), n):
        # Unknowns x_0..x_{n-1}, eps; rows x(N) = total, x(S) + eps = v(S).
        a = [[Fraction(1)] * n + [Fraction(0), Fraction(total)]]
        for k in tight:
            row = [Fraction(0)] * (n + 1) + [vals[k]]
            for j in members[k]:
                row[j] = Fraction(1)
            row[n] = Fraction(1)
            a.append(row)
        sol = _solve_exact(a)
        if sol is None or (best is not None and sol[n] >= best):
            continue
        if all(sum(sol[j] for j in members[k]) + sol[n] >= vals[k] for k in range(len(masks))):
            best = sol[n]
    return best


def _solve_exact(a):
    """The solution of the square system in augmented rows `a` (changed in
    place) by Gauss-Jordan elimination, or None when it is singular."""
    size = len(a)
    for col in range(size):
        piv = next((r for r in range(col, size) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        lead = a[col][col]
        pivot_row = [v / lead for v in a[col]]
        a[col] = pivot_row
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], pivot_row)]
    return [row[size] for row in a]


def expected_profit(inst, q, y: float, s) -> float:
    """(p-c)*y - p*E_q[(y - d(S))^+] for ordering quantity y: one dot of
    the joint `q` with coalition S's demand row, the scalar reference that
    the batched order kernels are checked against."""
    from nvgames.distributions import coalition_mask
    from nvgames.newsvendor import _check_order, _joint_polytope, _profit

    _check_order(y)
    d = _joint_polytope(inst, q).coalition_demands(coalition_mask(s, inst.n_retailers))
    return _profit(inst, y, float(np.maximum(y - d, 0.0) @ q.q))


def per_coalition_order(inst, values, probs) -> tuple[float, float]:
    """(order, expected profit) of one demand vector under `probs` by the
    merged-run quantile that the row-wise kernel replaced: sort stably,
    take the last index of each run of equal values, and order the first
    run whose cumulative probability reaches the critical ratio less
    1e-12."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    cdf = np.cumsum(probs[order])
    last = np.r_[np.flatnonzero(np.diff(sv) > 0), sv.size - 1]
    hit = cdf[last] >= inst.ratio - 1e-12
    y = float(sv[last[np.argmax(hit)]])
    shortage = float(np.maximum(y - values, 0.0) @ probs)
    return y, (inst.price - inst.cost) * y - inst.price * shortage


def per_coalition_demands(poly, mask: int) -> np.ndarray:
    """A coalition's demand at every joint atom, its block values added in
    block order: the one-mask form of `coalition_demand_rows`."""
    total = np.zeros(poly.n_atoms)
    for vals, cls in zip(poly.coalition_block_values(mask), atom_classes(poly)):
        total += vals[cls]
    return total


def atom_classes(poly) -> list[np.ndarray]:
    """Per block r, the value class of every joint atom's block-r atom:
    the K-long class vectors the polytope once stored."""
    atoms = np.unravel_index(np.arange(poly.n_atoms), poly.dims)
    return [cls[a] for cls, a in zip(poly.class_of, atoms)]


def per_coalition_worst_case_order(inst, mask: int) -> tuple[float, float]:
    """The worst-case order and value as the sum over the blocks S meets,
    in block order, of each block's `per_coalition_order`."""
    from nvgames.distributions import block_aggregate

    y_total, v_total = 0.0, 0.0
    for block, m, bmask in zip(inst.partition, inst.marginals, inst.block_masks):
        if mask & bmask:
            y, v = per_coalition_order(inst, block_aggregate(block, m.atoms, mask), m.probs)
            y_total += y
            v_total += v
    return y_total, v_total


def per_mask_deterministic_values(inst, q) -> np.ndarray:
    """v(S) of the deterministic game under joint q by one `optimal_order`
    call per coalition, the loop that `build_deterministic_game` replaced."""
    from nvgames.newsvendor import optimal_order

    values = np.zeros(1 << inst.n_retailers)
    for mask in range(1, values.size):
        values[mask] = optimal_order(inst, q, mask).value
    return values


def per_vertex_best_orders(solver) -> list[tuple[list[float], list[float]]]:
    """(orders, profits) of every proper coalition in mask order at every
    vertex, one coalition and one vertex at a time through the one-joint
    kernel: `critical_orders` on the coalition's demand row, or for a
    coalition inside one block its worst-case order and `order_profits`
    there. None of it depends on the grand order."""
    from nvgames.newsvendor import critical_orders, order_profits, worst_case_order

    inst, poly = solver.inst, solver.poly
    verts = poly.vertices()
    best = []
    for mask in range(1, inst.grand_mask):
        d_s = poly.coalition_demands(mask)[None, :]
        pinned = sum(1 for bm in inst.block_masks if mask & bm) == 1
        y_s = worst_case_order(inst, mask).y_star
        orders, profits = [], []
        for q in verts:
            if pinned:
                order, profit = y_s, order_profits(inst, np.array([[y_s]]), d_s, q)[0, 0]
            else:
                order, profit = (float(a[0]) for a in critical_orders(inst, d_s, q))
            orders.append(float(order))
            profits.append(float(profit))
        best.append((orders, profits))
    return best


def per_entry_vertex_table(
    solver, best, y: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, gammas, vertex rows) in mask order of every coalition's
    vertex-path entry at order y, one coalition and one vertex at a time:
    per vertex q, the coalition's order and profit in `best` (from
    `per_vertex_best_orders`) over the one-joint grand profit at y
    (`order_profits` on the grand demand row). The entry is the largest of
    those ratios, at the least (order, vertex) among the vertices that
    attain it."""
    from nvgames.newsvendor import order_profits

    inst, poly = solver.inst, solver.poly
    verts = poly.vertices()
    d_n = poly.coalition_demands(inst.grand_mask)
    grand = [order_profits(inst, np.array([[y]]), d_n[None, :], q)[0, 0] for q in verts]
    values, gammas, rows = [], [], []
    for orders, profits in best:
        ratios = [profit / float(g) for profit, g in zip(profits, grand)]
        top = max(ratios)
        order, v = min((orders[v], v) for v in range(len(verts)) if ratios[v] == top)
        values.append(top)
        gammas.append(order)
        rows.append(v)
    return np.array(values), np.array(gammas), np.array(rows, dtype=np.intp)


def solved_vertex_table(poly) -> np.ndarray:
    """The polytope's vertex table by solving every column basis of its
    class product with np.linalg.solve: the infeasible solutions (an entry
    below -1e-13) are dropped, entries up to 1e-13 are 0, and the first
    solution of each support is kept, in basis order. The polytope must
    have two or more blocks of several classes."""
    from nvgames.distributions import _VERTEX_ZERO, _column_bases

    a, bases, _inv = _column_bases(poly.class_counts)
    atoms = np.ravel_multi_index(np.ix_(*poly.class_reps), poly.dims).ravel()
    m = a.shape[0]
    rhs = np.broadcast_to(poly.rhs[:, None], (bases.shape[0], m, 1))
    xs = np.linalg.solve(np.moveaxis(a[:, bases], 1, 0), rhs)[..., 0]
    found: dict[bytes, np.ndarray] = {}
    for cols, x in zip(bases, xs):
        if np.all(x >= -_VERTEX_ZERO):
            row = np.zeros(poly.n_atoms)
            row[atoms[cols]] = np.where(x > _VERTEX_ZERO, x, 0.0)
            found.setdefault((row > 0.0).tobytes(), row)
    return np.array(list(found.values()))


def dense_joint(n_atoms: int, ids, mass) -> np.ndarray:
    """The K-long joint that is `mass` at the atoms `ids` and 0 elsewhere:
    the layout the countermonotonic start was once held in."""
    q = np.zeros(n_atoms)
    q[np.asarray(ids, dtype=np.intp)] = mass
    return q


def dense_ratio(num: np.ndarray, den: np.ndarray, q: np.ndarray, support) -> float:
    """num @ q / den @ q over `support` through `support_dot`, read from the
    dense joint q: the ratio as it was taken before joints were held on
    their supports."""
    return support_dot(num, q, support) / support_dot(den, q, support)


def loop_northwest_corner(probs, orders) -> tuple[np.ndarray, np.ndarray]:
    """The northwest-corner walk one step at a time: each step takes the
    least residual of the current entries as its mass, subtracts it from
    all of them, then moves the first block whose entry is exhausted (at
    most 1e-15 left) and not its last; the walk stops when none is."""
    res = [np.asarray(p)[order].tolist() for p, order in zip(probs, orders)]
    last = [len(r) - 1 for r in res]
    blocks = range(len(res))
    ptr = [0] * len(res)
    steps: list[tuple[int, ...]] = []
    mass: list[float] = []
    while True:
        w = min(res[r][ptr[r]] for r in blocks)
        for r in blocks:
            res[r][ptr[r]] -= w
        steps.append(tuple(ptr))
        mass.append(w)
        for r in blocks:
            if res[r][ptr[r]] <= 1e-15 and ptr[r] < last[r]:
                ptr[r] += 1
                break
        else:
            break
    pos = np.array(steps, dtype=np.intp)
    idx = np.column_stack([np.asarray(orders[r])[pos[:, r]] for r in blocks])
    return idx, np.array(mass)


def flat_incidence_rows(ids, m: int) -> np.ndarray:
    """The (R+1, K) row ids of the ones of every column of the operator
    `IncidenceOperator(ids, m)`: the mass row 0, then the id of the
    column's atom in each block (m for none), last block fastest."""
    dims = tuple(len(v) for v in ids)
    atoms = np.unravel_index(np.arange(math.prod(dims)), dims)
    return np.array([np.zeros(math.prod(dims), dtype=np.intp)]
                    + [np.asarray(v, dtype=np.intp)[a] for v, a in zip(ids, atoms)])


def gathered_rmatvec(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y @ A for the 0/1 matrix of the (R+1, K) row ids `rows` (sentinel
    len(y)): one gather of K entries per row of ids, added in order."""
    padded = np.append(y, 0.0)
    out = padded[rows[0]]
    for ids in rows[1:]:
        out += padded[ids]
    return out


def gathered_tree_factor(rows: np.ndarray, m: int, ids) -> TreeFactor | None:
    """The spanning-tree factor of the basis ``A[:, ids]`` of the
    two-block matrix of the (3, K) row ids `rows`, read off the columns'
    gathered ids and checked: every column has the mass row 0, and the
    blocks' ids are disjoint. None when a check fails or the columns hold
    a cycle. No gate on the basis size."""
    mass, u, v = rows[:, np.asarray(ids, dtype=np.intp)]
    v = np.where(v == m, m + 1, v)
    side = np.full(m + 2, -1)
    side[u] = 0
    side[v] = 1
    if (mass != 0).any() or (side[u] != 0).any():
        return None
    adj: list[list[int]] = [[] for _ in range(m + 2)]
    for a, b in zip(u.tolist(), v.tolist()):
        adj[a].append(b)
        adj[b].append(a)
    depth, parent = [-1] * (m + 2), [0] * (m + 2)
    depth[m] = 0
    order, stack = [], [m]
    while stack:
        w = stack.pop()
        order.append(w)
        for x in adj[w]:
            if depth[x] < 0:
                depth[x], parent[x] = depth[w] + 1, w
                stack.append(x)
    if len(order) != m + 1:
        return None
    size = [1] * (m + 2)
    for w in reversed(order[1:]):
        size[parent[w]] += size[w]
    return TreeFactor(m, side[:m], np.array(depth), np.array(order), np.array(size), u, v)


def scalar_kink_profits(inst, coupling, y_peak: float) -> tuple[np.ndarray, np.ndarray]:
    """(kinks, g): the distinct coupling sums above `y_peak`, ascending,
    and the worst-case grand profit at each by one `coupled_profit` call,
    the scan that the one-call kink evaluation replaced."""
    from nvgames.newsvendor import coupled_profit

    kinks = np.array(sorted(set(coupling[0][coupling[0] > y_peak].tolist())))
    return kinks, np.array([coupled_profit(inst, coupling, y) for y in kinks.tolist()])


def contaminate(p_independent, p_extremal, lam: float) -> np.ndarray:
    """The contaminated joint (1 - lam) * p_independent + lam * p_extremal,
    lam the weight on the extremal one: the mixture the stress loop forms
    for every lambda and sample at once."""
    return (1.0 - lam) * np.asarray(p_independent) + lam * np.asarray(p_extremal)


def consistency_gap(poly, q) -> float:
    """Largest absolute violation of `poly`'s per-value class constraints
    by the joint `q`, the per-block rows the LP system drops as redundant
    included."""
    q = np.asarray(q, dtype=float)
    worst = abs(float(np.sum(q)) - 1.0)
    atoms = np.unravel_index(np.arange(poly.n_atoms), poly.dims)
    for r, probs in enumerate(poly.class_probs):
        got = np.bincount(poly.class_of[r][atoms[r]], weights=q, minlength=probs.size)
        worst = max(worst, float(np.max(np.abs(got - probs))))
    return worst
