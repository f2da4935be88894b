"""Exact-rational dense simplex for small linear programs.

Problems are stated as: minimize c.x subject to A.x >= b, x >= 0.  The
solver runs a two-phase primal simplex with Bland's rule (guaranteed
termination) over exact rationals, and returns matching primal and dual
certificates that verify_certificate can check independently.

Also houses the two problem builders used by the bound accounting: the
minimum-excess-at-a-unit program over the eight neighborhood regions, and
the fractional optimal pebbling program of a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .grid import ContinuousDistribution, GridSpec, Vertex

try:  # gmpy2 rationals pivot ~20x faster than Fraction; results identical
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    _Q = Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpError(ValueError):
    """Malformed linear program."""


@dataclass(frozen=True)
class LpProblem:
    """minimize objective.x subject to constraints.x >= bounds, x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[Fraction, ...], ...]
    bounds: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(Fraction(v) for v in self.objective))
        object.__setattr__(
            self, "constraints", tuple(tuple(Fraction(v) for v in row) for row in self.constraints)
        )
        object.__setattr__(self, "bounds", tuple(Fraction(v) for v in self.bounds))
        n = len(self.objective)
        if len(self.constraints) != len(self.bounds):
            raise LpError("constraint matrix and bound vector sizes differ")
        for row in self.constraints:
            if len(row) != n:
                raise LpError("constraint row length does not match objective")

    def to_json(self) -> dict:
        return {
            "objective": [str(v) for v in self.objective],
            "constraints": [[str(v) for v in row] for row in self.constraints],
            "bounds": [str(v) for v in self.bounds],
        }


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: tuple[Fraction, ...] = ()
    dual: tuple[Fraction, ...] = ()
    objective_value: Fraction | None = None
    ray: tuple[Fraction, ...] = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "primal": [str(v) for v in self.primal],
            "dual": [str(v) for v in self.dual],
            "objective_value": None if self.objective_value is None else str(self.objective_value),
            "ray": [str(v) for v in self.ray],
        }


class _Tableau:
    """Dense simplex tableau over exact rationals, Bland's rule."""

    def __init__(self, rows, rhs, n_total):
        self.rows = rows  # list of lists, length n_total, plus basis bookkeeping
        self.rhs = rhs
        self.n = n_total
        self.basis = [None] * len(rows)

    def pivot(self, r, col):
        row = self.rows[r]
        piv = row[col]
        inv = 1 / _Q(piv)
        self.rows[r] = [v * inv for v in row]
        self.rhs[r] *= inv
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][col]
            if f:
                ri, rr = self.rows[i], self.rows[r]
                self.rows[i] = [a - f * b for a, b in zip(ri, rr)]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = col

    def solve_phase(self, cost, allowed):
        """Minimize cost over allowed columns from the current basis.
        Returns ('optimal', reduced_costs) or ('unbounded', entering_col)."""
        m = len(self.rows)
        while True:
            # reduced costs: c_j - c_B . column_j
            cb = [cost[self.basis[i]] for i in range(m)]
            reduced = list(cost)
            for i in range(m):
                if cb[i]:
                    ci, row = cb[i], self.rows[i]
                    reduced = [a - ci * b for a, b in zip(reduced, row)]
            entering = None
            for j in range(self.n):
                if allowed[j] and reduced[j] < 0:
                    entering = j  # Bland: lowest index
                    break
            if entering is None:
                return OPTIMAL, reduced
            leaving = None
            best = None
            for i in range(m):
                a = self.rows[i][entering]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                return UNBOUNDED, entering
            self.pivot(leaving, entering)


def solve(p: LpProblem) -> LpSolution:
    """Exact optimum with primal/dual certificates, or an infeasibility /
    unboundedness certificate ray."""
    m = len(p.constraints)
    n = len(p.objective)
    # Equality form A.x - s = b with surplus s; rows flipped so rhs >= 0,
    # then one artificial per row for phase 1.
    n_total = n + m + m
    rows = []
    rhs = []
    flipped = []
    for i in range(m):
        row = [_Q(v) for v in p.constraints[i]] + [_Q(0)] * (2 * m)
        row[n + i] = _Q(-1)
        b = _Q(p.bounds[i])
        flip = b < 0
        if flip:
            row = [-v for v in row]
            b = -b
        row[n + m + i] = _Q(1)
        rows.append(row)
        rhs.append(b)
        flipped.append(flip)
    tab = _Tableau(rows, rhs, n_total)
    for i in range(m):
        tab.basis[i] = n + m + i

    phase1_cost = [_Q(0)] * (n + m) + [_Q(1)] * m
    allowed = [True] * n_total
    status, _ = tab.solve_phase(phase1_cost, allowed)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    infeas = sum((tab.rhs[i] for i in range(m) if tab.basis[i] >= n + m), _Q(0))
    if infeas > 0:
        # Farkas certificate from the phase-1 duals y = c_B.B^-1: for the
        # original rows (sign of flipped rows undone) y >= 0, y.A <= 0 and
        # y.b = phase-1 optimum > 0
        cb = [phase1_cost[tab.basis[i]] for i in range(m)]
        y = []
        for i in range(m):
            yi = sum((cb[r] * tab.rows[r][n + m + i] for r in range(m)), _Q(0))
            y.append(Fraction(-yi if flipped[i] else yi))
        return LpSolution(status=INFEASIBLE, ray=tuple(y))

    # Drive any degenerate artificials out of the basis where possible, then
    # freeze the artificial columns.
    for i in range(m):
        if tab.basis[i] >= n + m:
            for j in range(n + m):
                if tab.rows[i][j] != 0:
                    tab.pivot(i, j)
                    break
    for j in range(n + m, n_total):
        allowed[j] = False

    phase2_cost = [_Q(v) for v in p.objective] + [_Q(0)] * (2 * m)
    status, reduced = tab.solve_phase(phase2_cost, allowed)
    if status == UNBOUNDED:
        entering = reduced
        ray = [Fraction(0)] * n
        if entering < n:
            ray[entering] = Fraction(1)
        for i in range(m):
            if tab.basis[i] < n:
                ray[tab.basis[i]] = Fraction(-tab.rows[i][entering])
        return LpSolution(status=UNBOUNDED, ray=tuple(ray))

    primal = [Fraction(0)] * n
    for i in range(m):
        if tab.basis[i] < n:
            primal[tab.basis[i]] = Fraction(tab.rhs[i])
    # Dual values: y_i = -reduced cost of the i-th artificial column (its
    # original column is +/- e_i), with the sign of any flipped row undone.
    dual = []
    for i in range(m):
        yi = -reduced[n + m + i]
        dual.append(Fraction(-yi if flipped[i] else yi))
    value = sum((c * x for c, x in zip(p.objective, primal)), Fraction(0))
    return LpSolution(
        status=OPTIMAL, primal=tuple(primal), dual=tuple(dual), objective_value=value
    )


def verify_certificate(p: LpProblem, primal, dual) -> bool:
    """True iff primal is feasible, dual is feasible, and the objective
    values agree exactly (strong duality)."""
    primal = [Fraction(v) for v in primal]
    dual = [Fraction(v) for v in dual]
    if len(primal) != len(p.objective) or len(dual) != len(p.constraints):
        raise LpError("certificate dimensions do not match the problem")
    if any(x < 0 for x in primal) or any(y < 0 for y in dual):
        return False
    for row, b in zip(p.constraints, p.bounds):
        if sum(a * x for a, x in zip(row, primal)) < b:
            return False
    for j in range(len(p.objective)):
        if sum(p.constraints[i][j] * dual[i] for i in range(len(dual))) > p.objective[j]:
            return False
    return sum(c * x for c, x in zip(p.objective, primal)) == sum(
        y * b for y, b in zip(dual, p.bounds)
    )


def unit_excess_problem() -> LpProblem:
    """Minimum excess weight at a vertex holding a single pebble, over the
    eight region-contribution variables x1..x4, y1..y4.

    The four x-constraints bound the weight at the axis neighbors (the
    pebble itself contributes 1/2 there), the four y-constraints the weight
    at the diagonal vertices (pebble contributes 1/4).  One printed source
    of this system carries an asymmetric 1/8 coefficient for y4 in the
    fifth row where the region geometry (the diagonal regions two steps
    away from a diagonal vertex) dictates 1/4; the symmetric coefficient is
    used here, which also makes the known optimizer x=0, y=12/25 feasible.
    """
    h = Fraction(1, 2)
    q = Fraction(1, 4)
    e = Fraction(1, 8)
    s = Fraction(1, 16)
    rows = [
        # x-block: weight at the four axis neighbors >= 1 - 1/2
        (1, q, q, q, h, e, e, h),
        (q, 1, q, q, h, h, e, e),
        (q, q, 1, q, e, h, h, e),
        (q, q, q, 1, e, e, h, h),
        # y-block: weight at the four diagonal vertices >= 1 - 1/4
        (h, h, e, e, 1, q, s, q),
        (e, h, h, e, q, 1, q, s),
        (e, e, h, h, s, q, 1, q),
        (h, e, e, h, q, s, q, 1),
    ]
    bounds = (h, h, h, h) + (Fraction(3, 4),) * 4
    objective = (h, h, h, h, q, q, q, q)
    return LpProblem(objective=objective, constraints=rows, bounds=bounds)


def fractional_optimal_pebbling(spec: GridSpec) -> tuple[Fraction, ContinuousDistribution]:
    """Smallest total mass of a continuous distribution with weight >= 1 at
    every vertex: minimize sum_v D(v) s.t. sum_v D(v) 2^-d(u,v) >= 1."""
    verts = list(spec.vertices())
    n = len(verts)
    if n > 200:
        raise LpError(f"grid with {n} vertices exceeds the dense solver scale")
    rows = []
    for u in verts:
        rows.append(tuple(Fraction(1, 2 ** spec.distance(u, v)) for v in verts))
    problem = LpProblem(
        objective=(Fraction(1),) * n,
        constraints=tuple(rows),
        bounds=(Fraction(1),) * n,
    )
    sol = solve(problem)
    assert sol.status == OPTIMAL  # the all-ones distribution is feasible
    counts = {verts[i]: sol.primal[i] for i in range(n) if sol.primal[i] > 0}
    return sol.objective_value, ContinuousDistribution(spec, counts)
