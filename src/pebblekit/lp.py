"""Exact-rational dense simplex for small linear programs.

Problems are stated as: minimize c.x subject to A.x >= b, x >= 0.  The
solver runs a two-phase primal simplex with Bland's rule (guaranteed
termination) on a fraction-free integer tableau, so every value is an
exact rational, and returns matching primal and dual certificates that
verify_certificate can check independently.

Also houses the unit-excess program over the eight neighborhood regions
and the fractional optimal pebbling of a grid, in closed form with its
proof: the product of the axis optima, (n + 2)/3 on the path P_n and n/s_n
on the cycle C_n, s_n = sum_{i<n} 2^-min(i, n-i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .grid import TORUS, ContinuousDistribution, GridSpec, Vertex, rational

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
        objective, *constraints, bounds = (
            tuple(rational(v, LpError) for v in row)
            for row in (self.objective, *self.constraints, self.bounds)
        )
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "bounds", bounds)
        n = len(self.objective)
        if len(self.constraints) != len(self.bounds):
            raise LpError("constraint matrix and bound vector sizes differ")
        for row in self.constraints:
            if len(row) != n:
                raise LpError("constraint row length does not match objective")


@dataclass(frozen=True)
class LpSolution:
    status: str
    primal: tuple[Fraction, ...] = ()
    dual: tuple[Fraction, ...] = ()
    objective_value: Fraction | None = None
    ray: tuple[Fraction, ...] = ()


def _lowest(row: list[int], q: int) -> tuple[list[int], int]:
    """row / q in lowest terms, with a positive denominator."""
    g = gcd(q, *row)
    if q < 0:
        g = -g
    if g == 1:
        return row, q
    return [a // g for a in row], q // g


class _Tableau:
    """Dense simplex tableau over the integers, Bland's rule.

    Fraction-free pivoting (Edmonds 1967; Bareiss 1968): row i is a list of
    ints, its right-hand side last, over one positive denominator den[i], in
    lowest terms.  A pivot costs one gcd per row instead of one per entry.
    The first m rows are the constraints; after them come the reduced-cost
    rows, one per cost vector, which the same pivots keep up to date.
    """

    def __init__(self, rows, costs, basis):
        """rows: the m rational constraint rows, right-hand side last;
        costs: rational cost vectors; basis: the column of the unit entry
        of each row, priced out of the cost rows here."""
        self.m = len(rows)
        self.rows: list[list[int]] = []
        self.den: list[int] = []
        for row in (*rows, *([*c, 0] for c in costs)):
            scale = lcm(*(v.denominator for v in row))
            row, q = _lowest([v.numerator * (scale // v.denominator) for v in row], scale)
            self.rows.append(row)
            self.den.append(q)
        self.basis = list(basis)
        for r, col in enumerate(self.basis):
            for i in range(self.m, len(self.rows)):
                if self.rows[i][col]:
                    self._eliminate(i, r, col)

    @property
    def rhs(self) -> list[int]:
        """Right-hand sides of the constraint rows, over den."""
        return [row[-1] for row in self.rows[: self.m]]

    def _eliminate(self, i, r, col):
        """Zero column col of row i with row r, whose col entry is 1:
        R_i / q_i - (R_i[col] / q_i) R_r / q_r = (q_r R_i - R_i[col] R_r) / (q_i q_r)."""
        f, p = self.rows[i][col], self.den[r]
        self.rows[i], self.den[i] = _lowest(
            [p * a - f * b for a, b in zip(self.rows[i], self.rows[r])], self.den[i] * p
        )

    def pivot(self, r, col):
        self.rows[r], self.den[r] = _lowest(self.rows[r], self.rows[r][col])
        for i, row in enumerate(self.rows):
            if i != r and row[col]:
                self._eliminate(i, r, col)
        self.basis[r] = col

    def solve_phase(self, cost, allowed):
        """Minimize the cost vector with index cost (its reduced costs are
        row m + cost) over the allowed columns from the current basis.
        Returns (OPTIMAL, None) or (UNBOUNDED, entering column)."""
        rows, m = self.rows, self.m
        while True:
            reduced = rows[m + cost]
            entering = None
            for j in range(len(reduced) - 1):
                if allowed[j] and reduced[j] < 0:
                    entering = j  # Bland: lowest index
                    break
            if entering is None:
                return OPTIMAL, None
            leaving = None
            for i in range(m):
                a = rows[i][entering]
                if a > 0:
                    if leaving is None:
                        leaving = i
                        continue
                    # rhs_i / a < rhs_l / a_l: the row denominators cancel
                    d = rows[i][-1] * rows[leaving][entering] - rows[leaving][-1] * a
                    if d < 0 or (d == 0 and self.basis[i] < self.basis[leaving]):
                        leaving = i
            if leaving is None:
                return UNBOUNDED, entering
            self.pivot(leaving, entering)


def solve(p: LpProblem) -> LpSolution:
    """Exact optimum with primal/dual certificates, or an infeasibility /
    unboundedness certificate ray."""
    m = len(p.constraints)
    n = len(p.objective)
    art = n + m
    # Equality form A.x - s = b with surplus s; rows flipped so rhs >= 0,
    # then one artificial per row, the starting basis of phase 1.
    rows = []
    flipped = []
    for i in range(m):
        row = [*p.constraints[i], *[Fraction(0)] * (2 * m), p.bounds[i]]
        row[n + i] = Fraction(-1)
        flip = p.bounds[i] < 0
        if flip:
            row = [-v for v in row]
        row[art + i] = Fraction(1)
        rows.append(row)
        flipped.append(flip)
    phase1_cost = [Fraction(0)] * art + [Fraction(1)] * m
    phase2_cost = [*p.objective, *[Fraction(0)] * (2 * m)]
    tab = _Tableau(rows, (phase1_cost, phase2_cost), range(art, art + m))

    allowed = [True] * (art + m)
    status, _ = tab.solve_phase(0, allowed)
    assert status == OPTIMAL  # phase 1 is bounded below by 0
    if any(tab.rows[i][-1] for i in range(m) if tab.basis[i] >= art):
        # Farkas certificate from the phase-1 duals y = c_B.B^-1, which the
        # artificial columns' phase-1 reduced costs hold as 1 - y: for the
        # original rows (sign of flipped rows undone) y >= 0, y.A <= 0 and
        # y.b = phase-1 optimum > 0
        reduced, q = tab.rows[m], tab.den[m]
        y = []
        for i in range(m):
            yi = Fraction(q - reduced[art + i], q)
            y.append(-yi if flipped[i] else yi)
        return LpSolution(status=INFEASIBLE, ray=tuple(y))

    # Drive any degenerate artificials out of the basis where possible, then
    # freeze the artificial columns.
    for i in range(m):
        if tab.basis[i] >= art:
            for j in range(art):
                if tab.rows[i][j] != 0:
                    tab.pivot(i, j)
                    break
    for j in range(art, art + m):
        allowed[j] = False

    status, entering = tab.solve_phase(1, allowed)
    if status == UNBOUNDED:
        ray = [Fraction(0)] * n
        if entering < n:
            ray[entering] = Fraction(1)
        for i in range(m):
            if tab.basis[i] < n:
                ray[tab.basis[i]] = Fraction(-tab.rows[i][entering], tab.den[i])
        return LpSolution(status=UNBOUNDED, ray=tuple(ray))

    primal = [Fraction(0)] * n
    for i in range(m):
        if tab.basis[i] < n:
            primal[tab.basis[i]] = Fraction(tab.rows[i][-1], tab.den[i])
    # Dual values: y_i = -reduced cost of the i-th artificial column (its
    # original column is +/- e_i), with the sign of any flipped row undone.
    reduced, q = tab.rows[m + 1], tab.den[m + 1]
    dual = []
    for i in range(m):
        yi = Fraction(-reduced[art + i], q)
        dual.append(-yi if flipped[i] else yi)
    value = sum((c * x for c, x in zip(p.objective, primal)), Fraction(0))
    return LpSolution(
        status=OPTIMAL, primal=tuple(primal), dual=tuple(dual), objective_value=value
    )


def verify_certificate(p: LpProblem, primal, dual) -> bool:
    """True iff primal is feasible, dual is feasible, and the objective
    values agree exactly (strong duality)."""
    primal = [rational(v, LpError) for v in primal]
    dual = [rational(v, LpError) for v in dual]
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


def _cycle_sum(n: int) -> Fraction:
    """s_n = sum_{i<n} 2^-min(i, n-i) = 3 - 2^(1-k) + [n even] 2^-(n/2) with
    k = (n-1)//2: 1 at i = 0, twice 2^-1 + ... + 2^-k, and the antipode."""
    return 3 - Fraction(2, 1 << (n - 1) // 2) + (0 if n % 2 else Fraction(1, 1 << n // 2))


def _axis_optimum(n: int, wrap: bool) -> tuple[Fraction, ...]:
    if wrap or n == 1:  # P_1 is C_1
        return (1 / _cycle_sum(n),) * n
    third = Fraction(1, 3)
    return (2 * third, *(third,) * (n - 2), 2 * third)


def fractional_optimum(spec: GridSpec) -> Fraction:
    """Value of fractional_optimal_pebbling(spec): the product of the axis
    optima, (n + 2)/3 on the path P_n and n/s_n on the cycle C_n."""
    w, h = spec.width, spec.height
    if spec.topology == TORUS:
        return w / _cycle_sum(w) * h / _cycle_sum(h)
    return Fraction((w + 2) * (h + 2), 9)


def fractional_optimal_pebbling(spec: GridSpec) -> tuple[Fraction, ContinuousDistribution]:
    """Smallest total mass of a continuous distribution with weight >= 1 at
    every vertex, and one that attains it.  With M = 2^-d(u, v) symmetric,
    an x >= 0 with M.x = 1 is feasible for min 1.x s.t. M.x >= 1 and for its
    dual max 1.y s.t. M.y <= 1, with one value, so it is optimal.  M is the
    Kronecker product of the axis matrices, so x = a (x) b with A.a = 1 and
    B.b = 1.  On the cycle C_n each row sums to s_n.  On the path P_n, n >= 2,
    read (2/3, 1/3, ..., 1/3, 2/3) as 1/3 plus 1/3 more at each end: row i
    gets 1/3 at i and (1/3)(2^-1 + ... + 2^-i) + (1/3)2^-i = 1/3 per side."""
    wrap = spec.topology == TORUS
    a, b = _axis_optimum(spec.width, wrap), _axis_optimum(spec.height, wrap)
    counts = {Vertex(c, r): x * y for r, y in enumerate(b) for c, x in enumerate(a)}
    return fractional_optimum(spec), ContinuousDistribution(spec, counts)
