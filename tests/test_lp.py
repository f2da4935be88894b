from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from pebblekit import lp
from pebblekit.grid import GridSpec, PLANE, TORUS, Vertex
from pebblekit.lp import (
    LpError,
    LpProblem,
    fractional_optimal_pebbling,
    fractional_optimum,
    solve,
    unit_excess_problem,
    verify_certificate,
)
from pebblekit.weights import fractional_solvable

from conftest import (
    reference_axis_optimum,
    reference_fractional_optimum,
    reference_fractional_problem,
    reference_lp_solve,
)


def solve_counting_pivots(p: LpProblem):
    """lp.solve(p) and the number of tableau pivots it made."""
    with mock.patch.object(
        lp._Tableau, "pivot", autospec=True, side_effect=lp._Tableau.pivot
    ) as pivot:
        return solve(p), pivot.call_count


class TestSolver:
    def test_simple_optimum(self):
        # min x + y s.t. x + 2y >= 4, 3x + y >= 3
        p = LpProblem(objective=(1, 1), constraints=((1, 2), (3, 1)), bounds=(4, 3))
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == Fraction(11, 5)
        assert verify_certificate(p, sol.primal, sol.dual)

    def test_degenerate_and_redundant_rows(self):
        p = LpProblem(
            objective=(1, 2),
            constraints=((1, 0), (1, 0), (0, 1)),
            bounds=(1, 1, 0),
        )
        sol = solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == 1
        assert verify_certificate(p, sol.primal, sol.dual)

    def test_negative_bound_row_flip(self):
        # x >= -5 is vacuous for x >= 0; optimum at the other constraint
        p = LpProblem(objective=(1,), constraints=((1,), (1,)), bounds=(-5, 2))
        sol = solve(p)
        assert sol.status == "optimal" and sol.objective_value == 2

    def test_infeasible_with_farkas_ray(self):
        # x <= 1 and x >= 2 cannot hold together
        p = LpProblem(objective=(1,), constraints=((-1,), (1,)), bounds=(-1, 2))
        sol = solve(p)
        assert sol.status == "infeasible"
        y = sol.ray
        assert len(y) == 2 and all(v >= 0 for v in y)
        # y.A <= 0 with y.b > 0 certifies the contradiction
        assert sum(yi * row[0] for yi, row in zip(y, p.constraints)) <= 0
        assert sum(yi * b for yi, b in zip(y, p.bounds)) > 0

    def test_unbounded_with_ray(self):
        # min -x - y over x - y >= 0: push x = y -> -2t
        p = LpProblem(objective=(-1, -1), constraints=((1, -1),), bounds=(0,))
        sol = solve(p)
        assert sol.status == "unbounded"
        ray = sol.ray
        assert any(v != 0 for v in ray)
        assert all(v >= 0 for v in ray)
        assert sum(c * v for c, v in zip(p.objective, ray)) < 0
        assert sum(a * v for a, v in zip(p.constraints[0], ray)) >= 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(LpError):
            LpProblem(objective=(1, 1), constraints=((1,),), bounds=(1,))
        with pytest.raises(LpError):
            LpProblem(objective=(1,), constraints=((1,),), bounds=(1, 2))

    def test_certificate_rejects_perturbations(self):
        p = unit_excess_problem()
        sol = solve(p)
        assert verify_certificate(p, sol.primal, sol.dual)
        bumped = list(sol.primal)
        bumped[4] += Fraction(1, 10**9)
        assert not verify_certificate(p, bumped, sol.dual)
        lowered = list(sol.primal)
        lowered[4] -= Fraction(1, 10**9)
        assert not verify_certificate(p, lowered, sol.dual)


class TestUnitExcess:
    def test_optimum_is_12_25(self):
        sol = solve(unit_excess_problem())
        assert sol.status == "optimal"
        assert sol.objective_value == Fraction(12, 25)

    def test_symmetric_optimizer_feasible(self):
        p = unit_excess_problem()
        x = (Fraction(0),) * 4 + (Fraction(12, 25),) * 4
        for row, b in zip(p.constraints, p.bounds):
            assert sum(a * v for a, v in zip(row, x)) >= b
        assert sum(c * v for c, v in zip(p.objective, x)) == Fraction(12, 25)


class TestFractionalOptimal:
    def test_2x2_grid(self):
        value, witness = fractional_optimal_pebbling(GridSpec(2, 2))
        assert value == Fraction(16, 9)
        assert fractional_solvable(witness)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, Fraction(16, 9)),
            (3, Fraction(9, 4)),
            (5, Fraction(4)),
            (7, Fraction(784, 121)),
            (9, Fraction(5184, 529)),
        ],
    )
    def test_torus_series(self, n, expected):
        value, witness = fractional_optimal_pebbling(GridSpec(n, n, TORUS))
        assert value == expected
        assert fractional_solvable(witness)
        assert witness.size == value

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, Fraction(16, 9)),
            (3, Fraction(25, 9)),
            (4, Fraction(4)),
            (5, Fraction(49, 9)),
            (6, Fraction(64, 9)),
            (7, Fraction(9)),
            (8, Fraction(100, 9)),
            (9, Fraction(121, 9)),
        ],
    )
    def test_plane_series(self, n, expected):
        value, witness = fractional_optimal_pebbling(GridSpec(n, n))
        assert value == expected
        assert fractional_solvable(witness)
        assert witness.size == value

    @pytest.mark.parametrize("topology", [TORUS, PLANE])
    def test_7x7_solution_equals_reference(self, topology):
        """The integer tableau against the Fraction one on the dense
        49-variable program of the 7x7 grid."""
        problem = reference_fractional_problem(GridSpec(7, 7, topology))
        expected, pivots = reference_lp_solve(problem)
        assert solve_counting_pivots(problem) == (expected, pivots)

    def test_20x20_plane(self):
        value, witness = fractional_optimal_pebbling(GridSpec(20, 20))
        assert value == Fraction(484, 9)
        assert fractional_solvable(witness)
        assert witness.size == value

    @pytest.mark.parametrize("topology", [TORUS, PLANE])
    def test_product_equals_dense_oracle(self, topology):
        """Value and witness of the axis product equal the dense program's,
        bit for bit, on every grid of sides at most 9."""
        for w in range(1, 10):
            for h in range(1, 10):
                spec = GridSpec(w, h, topology)
                assert fractional_optimal_pebbling(spec) == reference_fractional_optimum(spec), spec

    def test_axis_closed_forms(self):
        """On the path P_n and the cycle C_n the closed-form vector is the
        simplex's primal and its dual, and its sum the simplex's value."""
        for topology in (PLANE, TORUS):
            for n in range(1, 31):
                sol = reference_axis_optimum(n, topology)
                x = lp._axis_optimum(n, topology == TORUS)
                assert x == sol.primal == sol.dual, (n, topology)
                assert fractional_optimum(GridSpec(n, 1, topology)) == sol.objective_value

    def test_grid_closed_forms(self):
        """Value and witness on every grid of sides at most 30 are the
        product of the simplex's two axis optima."""
        for topology in (PLANE, TORUS):
            axis = {n: reference_axis_optimum(n, topology) for n in range(1, 31)}
            for w in range(1, 31):
                for h in range(1, 31):
                    spec = GridSpec(w, h, topology)
                    a, b = axis[w].primal, axis[h].primal
                    value, witness = fractional_optimal_pebbling(spec)
                    assert value == axis[w].objective_value * axis[h].objective_value, spec
                    assert witness.counts == {
                        Vertex(c, r): x * y for r, y in enumerate(b) for c, x in enumerate(a)
                    }, spec

    @pytest.mark.parametrize("topology", [TORUS, PLANE])
    def test_witness_is_its_own_dual(self, topology):
        """The witness x is a certificate of its own optimality: with the
        dense program's matrix symmetric, x is primal and dual feasible."""
        for w in range(1, 10):
            for h in range(1, 10):
                spec = GridSpec(w, h, topology)
                x = [fractional_optimal_pebbling(spec)[1].get(v) for v in spec.vertices()]
                assert verify_certificate(reference_fractional_problem(spec), x, x), spec

    def test_axis_rows_sum_to_one(self):
        """A.x = 1 exactly on every axis up to n = 200: with x scaled to
        integers by the lcm L of its denominators and A to integers by 2^D,
        D the longest distance, each row sums to L * 2^D."""
        for topology in (PLANE, TORUS):
            for n in range(1, 201):
                x = lp._axis_optimum(n, topology == TORUS)
                scale = lcm(*(v.denominator for v in x))
                ints = [int(v * scale) for v in x]
                top = n // 2 if topology == TORUS else n - 1
                for i in range(n):
                    dist = [abs(i - j) for j in range(n)]
                    if topology == TORUS:
                        dist = [min(d, n - d) for d in dist]
                    assert sum(v << (top - d) for v, d in zip(ints, dist)) == scale << top, (n, i)

    def test_no_simplex(self, monkeypatch):
        """The optimum is read off the closed form: with lp.solve made to
        raise, value and witness still equal the dense program's."""
        specs = [GridSpec(w, h, t) for w, h in ((1, 1), (2, 5), (7, 7)) for t in (PLANE, TORUS)]
        expected = [reference_fractional_optimum(spec) for spec in specs]

        def no_solve(p):
            raise AssertionError("lp.solve called")

        monkeypatch.setattr(lp, "solve", no_solve)
        assert [fractional_optimal_pebbling(spec) for spec in specs] == expected


# small integers and dyadic rationals, both signs
coefficients = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-8, 8), st.sampled_from([2, 4, 8])),
)


@st.composite
def lp_problems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 4))
    row = st.lists(coefficients, min_size=n, max_size=n).map(tuple)
    return LpProblem(
        objective=draw(row),
        constraints=tuple(draw(st.lists(row, min_size=m, max_size=m))),
        bounds=tuple(draw(st.lists(coefficients, min_size=m, max_size=m))),
    )


class TestAgainstReference:
    @given(lp_problems())
    @settings(max_examples=300, deadline=None)
    @example(LpProblem(objective=(1,), constraints=((-1,), (1,)), bounds=(-1, 2)))
    @example(LpProblem(objective=(-1, -1), constraints=((1, -1),), bounds=(0,)))
    @example(LpProblem(objective=(1, 2), constraints=((1, 0), (1, 0), (0, 1)), bounds=(1, 1, 0)))
    def test_same_solution_and_pivots_as_fraction_simplex(self, p):
        """Same status, primal, dual, value and ray, bit for bit, after the
        same number of pivots as the Fraction tableau."""
        assert solve_counting_pivots(p) == reference_lp_solve(p)
