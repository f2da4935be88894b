"""Acceptance gate: the frozen numeric behavior the package guarantees.

Every exact-rational comparison is zero-tolerance.  The gate also
asserts the exact shortfall of uniform 1/9 on finite tori, which refutes
the claim that it is fractionally solvable there: its weight is
(1/9) * s_w * s_h < 1, with s_n the wrap-around axis sum of 2^-distance.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from pebblekit.grid import (
    ContinuousDistribution,
    Distribution,
    GridSpec,
    PLANE,
    TORUS,
    Vertex,
)
from pebblekit.constructions import (
    banded_rows_augmentation,
    density7_class_profile,
    density7_class_weights,
    find_density7_pattern,
    gen_banded_rows,
    gen_diag7,
    gen_row_ones,
)
from pebblekit.lp import (
    fractional_optimal_pebbling,
    solve,
    unit_excess_problem,
    verify_certificate,
)
from pebblekit.optimal import composition_upper_bound, optimal_pebbling_number
from pebblekit.reach import coverage, is_solvable, marginal_covering_ratio
from pebblekit.weights import (
    IFCOV_UPPER_BOUND,
    ceiling_infinite,
    covering_ratio_ceiling,
    fractional_solvable,
    marginal_covering_ratio_ceiling,
    single_pebble_weight_total,
    weight,
)

from conftest import naive_reachable


class TestCoverageFixtures:
    @pytest.mark.parametrize("spec,center", [
        (GridSpec(7, 7), Vertex(3, 3)),
        (GridSpec(9, 8), Vertex(4, 4)),
        (GridSpec(11, 7), Vertex(5, 3)),
    ])
    def test_single_size2_unit(self, spec, center):
        start = time.monotonic()
        rep = coverage(Distribution(spec, {center: 2}))
        assert rep.cov == 5
        assert rep.ratio == Fraction(5, 2)
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("spec,center", [
        (GridSpec(8, 7), Vertex(3, 3)),
        (GridSpec(10, 9), Vertex(4, 4)),
    ])
    def test_two_adjacent_size2_units(self, spec, center):
        start = time.monotonic()
        d = Distribution(spec, {center: 2, Vertex(center.col + 1, center.row): 2})
        rep = coverage(d)
        assert rep.cov == 8
        assert rep.ratio == Fraction(2)
        assert time.monotonic() - start < 1.0


class TestInfiniteCeilingFixtures:
    def test_single_size2_unit(self):
        assert ceiling_infinite(Distribution(GridSpec(3, 3), {(1, 1): 2})) == Fraction(17, 2)

    def test_two_adjacent_size2_units(self):
        d = Distribution(GridSpec(4, 3), {(1, 1): 2, (2, 1): 2})
        assert ceiling_infinite(d) == Fraction(29, 4)


class TestUnitExcessLp:
    def test_optimum_and_certificate(self):
        problem = unit_excess_problem()
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == Fraction(12, 25)
        assert verify_certificate(problem, sol.primal, sol.dual)

    def test_implied_bound_constant(self):
        assert IFCOV_UPPER_BOUND == Fraction(213, 25)
        assert IFCOV_UPPER_BOUND == 9 - Fraction(12, 25)


class TestSinglePebbleWeightTotal:
    def test_partial_sum_converges_to_nine(self):
        partial = single_pebble_weight_total(30)
        assert partial < 9
        assert 9 - partial < Fraction(1, 2**20)


class TestBandedRowsFamily:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_instance(self, n, m):
        start = time.monotonic()
        base = gen_banded_rows(n, m)
        rep = coverage(base)
        assert rep.reachable == frozenset(
            v for v in base.grid.vertices() if v.row % 5 in (0, 1, 4)
        )
        assert rep.ratio == Fraction((3 * m + 1) * (2 * n + 1), 3 * (n + 1) * (m + 1))
        assert covering_ratio_ceiling(base) == Fraction(
            (5 * m + 1) * (2 * n + 1), 3 * (n + 1) * (m + 1)
        )
        for v in banded_rows_augmentation(n, m):
            assert marginal_covering_ratio_ceiling(base, base.with_pebbles(v, 2)) == 0
        augmented = gen_banded_rows(n, m, augmented=True)
        assert is_solvable(augmented)
        assert coverage(augmented).ratio == Fraction(
            (5 * m + 1) * (2 * n + 1), 3 * (n + 1) * (m + 1) + 4 * m
        )
        assert time.monotonic() - start < 60.0


class TestDiag7Torus:
    def test_14x14(self):
        start = time.monotonic()
        d = gen_diag7(GridSpec(14, 14, TORUS))
        assert d.size == 56
        assert is_solvable(d)
        assert coverage(d).ratio == Fraction(7, 2)
        assert time.monotonic() - start < 300.0


class TestFractionalOptimum:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_torus_witnesses_fractionally_solvable(self, n):
        value, witness = fractional_optimal_pebbling(GridSpec(n, n, TORUS))
        assert fractional_solvable(witness)
        assert witness.size == value

    def test_uniform_ninth_on_finite_tori(self):
        """Refutes the claim that uniform 1/9 is fractionally solvable on
        finite tori.  On an S_w x S_h torus the wrap distance is a sum of
        one term per axis, so the uniform-q weight at every vertex is
        q * s_w * s_h with s_n = sum_{i<n} 2^-min(i, n-i).  Each axis sum
        is strictly below 3 (the unbounded-grid value), e.g. 23/8 on 9
        columns, so uniform 1/9 has weight (1/9) * s_w * s_h < 1 (529/576
        on the 9x9 torus) and is not fractionally solvable; only the
        unbounded grid attains weight exactly 1.  The shortfall is sharp:
        uniform 1/(s_w * s_h) has weight exactly 1 and is solvable."""

        def axis_sum(n):
            return sum(Fraction(1, 2 ** min(i, n - i)) for i in range(n))

        # frozen weight of uniform 1/9 on the width x height torus
        expected = {
            (4, 4): Fraction(9, 16),
            (6, 4): Fraction(21, 32),
            (5, 5): Fraction(25, 36),
            (7, 7): Fraction(121, 144),
            (9, 9): Fraction(529, 576),
        }
        computed = {}
        for width, height in expected:
            spec = GridSpec(width, height, TORUS)
            s_w, s_h = axis_sum(width), axis_sum(height)
            assert s_w < 3 and s_h < 3
            ninth = ContinuousDistribution(
                spec, {v: Fraction(1, 9) for v in spec.vertices()}
            )
            predicted = Fraction(1, 9) * s_w * s_h
            for v in spec.vertices():
                assert weight(ninth, v) == predicted, (
                    f"uniform 1/9 on the {width}x{height} torus: weight at "
                    f"{tuple(v)} is {weight(ninth, v)}, the axis sums give "
                    f"{predicted}"
                )
            computed[width, height] = weight(ninth, (0, 0))
            assert not fractional_solvable(ninth), (
                f"uniform 1/9 on the {width}x{height} torus has weight "
                f"{predicted} < 1 at every vertex, yet was reported "
                "fractionally solvable"
            )
            sharp = ContinuousDistribution(
                spec, {v: 1 / (s_w * s_h) for v in spec.vertices()}
            )
            for v in spec.vertices():
                assert weight(sharp, v) == 1, (
                    f"uniform 1/{s_w * s_h} on the {width}x{height} torus: "
                    f"weight at {tuple(v)} is {weight(sharp, v)}, not 1"
                )
            assert fractional_solvable(sharp)
        assert computed == expected

    def test_density7_lattice_pattern(self):
        basis, gen = find_density7_pattern()
        class_weights = density7_class_weights(basis)
        assert min(class_weights.values()) >= 1
        # one vertex class is tight: its truncated shell sum is exactly 1
        profile = density7_class_profile(basis, radius=5)
        truncated = {
            alpha: sum(Fraction(cnt, 2**dist) for dist, cnt in shells.items())
            for alpha, shells in profile.items()
            if alpha != 0
        }
        assert min(truncated.values()) == 1
        assert fractional_solvable(gen(2))


class TestRowOnesMarginal:
    def test_marginal_strictly_increasing_and_exceeds_threshold(self):
        # frozen regression values for the end-unit marginal covering ratio
        expected = {4: Fraction(13, 2), 8: Fraction(21, 2), 16: Fraction(37, 2)}
        computed = {}
        for k in (4, 8, 16):
            spec = GridSpec(k + 6, 5)
            base = gen_row_ones(spec, k)
            ext = gen_row_ones(spec, k, with_unit2=True)
            computed[k] = marginal_covering_ratio(base, ext)
        assert computed == expected
        values = [computed[k] for k in (4, 8, 16)]
        assert values[0] < values[1] < values[2]
        assert computed[16] > Fraction(17, 4)


class TestAugmentationMonotonicity:
    def test_ratio_up_ceiling_down(self):
        n = m = 2
        d = gen_banded_rows(n, m)
        ratio = coverage(d).ratio
        ceiling = covering_ratio_ceiling(d)
        steps = 0
        # middle pebbled rows outward, ties by (row, col): units near the
        # central rows unlock the most new vertices
        rows = range(0, 5 * m + 1, 5)

        def middle_out(v):
            nearest = min(rows, key=lambda r: abs(v.row - r))
            return abs(2 * nearest - 5 * m), v.row, v.col

        for v in sorted(banded_rows_augmentation(n, m), key=middle_out):
            d = d.with_pebbles(v, 2)
            new_ratio = coverage(d).ratio
            new_ceiling = covering_ratio_ceiling(d)
            assert new_ratio > ratio
            assert new_ceiling < ceiling
            ratio, ceiling = new_ratio, new_ceiling
            steps += 1
        assert steps == 2 * m


class TestOptimalSearch:
    def test_smallest_grids(self):
        assert optimal_pebbling_number(GridSpec(1, 1)).pi_opt == 1
        assert optimal_pebbling_number(GridSpec(2, 2)).pi_opt == 3

    def test_bounds_respected(self):
        pi = {n: optimal_pebbling_number(GridSpec(n, n)).pi_opt for n in (1, 2, 3)}
        for n in (1, 2, 3):
            lower, _ = fractional_optimal_pebbling(GridSpec(n, n))
            assert lower <= pi[n]
            for m in range(1, n + 1):
                assert pi[n] <= composition_upper_bound(n, m, pi[m])


class TestPropertySuites:
    def test_weight_linearity(self):
        spec = GridSpec(4, 4)
        a = Distribution(spec, {(0, 0): 2, (3, 3): 1})
        b = Distribution(spec, {(1, 2): 3})
        c = a.combined(b)
        for u in spec.vertices():
            assert weight(c, u) == weight(a, u) + weight(b, u)

    def test_ceiling_bounds_ratio_on_computed_instances(self):
        instances = [
            Distribution(GridSpec(7, 7), {(3, 3): 2}),
            Distribution(GridSpec(8, 7), {(3, 3): 2, (4, 3): 2}),
            gen_banded_rows(1, 1),
            gen_banded_rows(1, 1, augmented=True),
            gen_diag7(GridSpec(14, 14, TORUS)),
        ]
        for d in instances:
            assert covering_ratio_ceiling(d) >= coverage(d).ratio

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_engine_matches_naive_exhaustively(self, topology):
        spec = GridSpec(3, 3, topology)
        verts = list(spec.vertices())
        checked = 0
        for size in range(1, 6):
            for combo in combinations_with_replacement(verts, size):
                counts: dict = {}
                for v in combo:
                    counts[v] = counts.get(v, 0) + 1
                d = Distribution(spec, counts)
                assert coverage(d).reachable == naive_reachable(d), counts
                checked += 1
        assert checked == sum(
            len(list(combinations_with_replacement(range(9), s))) for s in range(1, 6)
        )
