import json
from fractions import Fraction

import pytest

from pebblekit import weights
from pebblekit.constructions import find_density7_pattern, gen_diag7, gen_row_ones
from pebblekit.grid import (
    PLANE,
    TORUS,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    Vertex,
)
from pebblekit.reach import marginal_covering_ratio
from pebblekit.weights import (
    IFCOV_UPPER_BOUND,
    PEBBLE_TOTAL_WEIGHT,
    UNIT_EXCESS_LOWER_BOUND,
    ceiling_infinite,
    covering_ratio_ceiling,
    excess,
    fractional_solvable,
    ifcov_bound_report,
    infinite_excess_region,
    marginal_covering_ratio_ceiling,
    single_pebble_weight_total,
    weight,
    weight_report,
)

from conftest import naive_weight


class TestWeight:
    def test_weight_halves_with_distance(self):
        d = Distribution(GridSpec(7, 7), {(3, 3): 4})
        assert weight(d, (3, 3)) == 4
        assert weight(d, (4, 3)) == 2
        assert weight(d, (5, 3)) == 1
        assert weight(d, (6, 3)) == Fraction(1, 2)

    def test_weight_sums_over_support(self):
        d = Distribution(GridSpec(5, 5), {(0, 0): 2, (4, 4): 2})
        assert weight(d, (2, 2)) == Fraction(2, 16) + Fraction(2, 16)

    def test_weight_on_torus_uses_wrap_distance(self):
        d = Distribution(GridSpec(5, 5, TORUS), {(0, 0): 2})
        assert weight(d, (4, 0)) == 1

    def test_continuous_weight(self):
        d = ContinuousDistribution(GridSpec(3, 3), {(1, 1): Fraction(1, 2)})
        assert weight(d, (1, 2)) == Fraction(1, 4)

    def test_excess(self):
        d = Distribution(GridSpec(5, 5), {(2, 2): 4})
        assert excess(d, (2, 2)) == 3
        assert excess(d, (3, 2)) == 1
        assert excess(d, (4, 2)) == 0  # W = 1 exactly
        assert excess(d, (0, 0)) == 0  # W < 1

    def test_report_json_pinned(self):
        """The report's JSON on the 3x3 torus, byte for byte: rows in
        (row, col) order, each Fraction as its str, equal values shared."""
        d = Distribution(GridSpec(3, 3, TORUS), {(0, 0): 3, (2, 1): 1})
        expected = (
            '{"rows": [{"vertex": [0, 0], "w": "13/4", "excess": "9/4"}, '
            '{"vertex": [1, 0], "w": "7/4", "excess": "3/4"}, {"vertex": [2, 0], "w": "2", "excess": "1"}, '
            '{"vertex": [0, 1], "w": "2", "excess": "1"}, {"vertex": [1, 1], "w": "5/4", "excess": "1/4"}, '
            '{"vertex": [2, 1], "w": "7/4", "excess": "3/4"}, {"vertex": [0, 2], "w": "7/4", "excess": "3/4"}, '
            '{"vertex": [1, 2], "w": "1", "excess": "0"}, {"vertex": [2, 2], "w": "5/4", "excess": "1/4"}], '
            '"total_weight": "16", "total_excess": "7", "ceiling": "9/4"}'
        )
        assert json.dumps(weight_report(d).to_json()) == expected

    def test_report_json_of_unshared_values(self):
        """Equal values held as distinct objects, and dicts out of (row, col)
        order, give the same rows."""
        v, u = Vertex(1, 0), Vertex(0, 1)
        rep = weights.WeightReport(
            {v: Fraction(3, 2), u: Fraction(3, 2)}, {v: Fraction(1, 2), u: Fraction(1, 2)}, 3, 1, 1
        )
        assert rep.to_json()["rows"] == [
            {"vertex": [1, 0], "w": "3/2", "excess": "1/2"},
            {"vertex": [0, 1], "w": "3/2", "excess": "1/2"},
        ]


class TestKernel:
    """weights._kernel's packed fields: each target column's weight numerator
    sits in whole bytes wide enough for the total << (Ec + Er)."""

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    @pytest.mark.parametrize("pebbles", [1, 3, 255, 256, 1023, 1024, 2**40 - 1])
    def test_a_field_can_hold_the_whole_total(self, topology, pebbles):
        """All pebbles on one target: its field holds exactly total << (Ec +
        Er), the most any field can, next to non-empty fields on both sides.
        On the plane (Ec + Er = 6 over the whole grid) some totals fill their
        last byte exactly (1023 << 6, and 255 on the pile alone) and some put
        one bit in it (1024 << 6, 1 << 6)."""
        spec = GridSpec(5, 3, topology)
        pile = (2, 1) if topology == TORUS else (0, 0)
        counts = {pile: pebbles}
        for targets in (spec.index.vertices, [pile], [pile, (pile[0] + 1, pile[1]), pile]):
            den, nums = weights._kernel(counts, targets, spec)
            top = max(spec.distance(pile, u) for u in targets)
            assert pebbles << top in nums
            assert [Fraction(n, den) for n in nums] == [naive_weight(counts, u, spec) for u in targets]

    @pytest.mark.parametrize("topology, den", [(PLANE, 12 << 5), (TORUS, 12 << 3), (None, 12 << 5)])
    def test_rational_counts_scale_by_their_lcm(self, topology, den):
        """Denominators 3, 4 and 6 scale the counts by 12, over 2^(Ec + Er):
        Ec = 3 and Er = 2 on the plane and on Z^2, 2 and 1 on the torus."""
        grid = GridSpec(4, 3, topology or PLANE)
        d = ContinuousDistribution(grid, {(0, 0): Fraction(1, 3), (3, 2): Fraction(5, 4), (1, 2): Fraction(7, 6)})
        spec = grid if topology else None
        targets = grid.index.vertices
        assert weights._kernel(d.counts, targets, spec) == (
            den,
            [naive_weight(d.counts, u, spec) * den for u in targets],
        )

    @pytest.mark.parametrize("spec", [GridSpec(3, 2), GridSpec(3, 2, TORUS), None], ids=str)
    def test_empty_counts_and_targets(self, spec):
        """No piles weigh 0 everywhere over 1; no targets give no numerators."""
        targets = [(0, 0), (2, 1), (0, 0)]
        assert weights._kernel({}, targets, spec) == (1, [0, 0, 0])
        assert weights._kernel({(1, 1): Fraction(2, 3)}, [], spec) == (3, [])
        assert weights._kernel({}, [], spec) == (1, [])


class TestCeilings:
    def test_grid_ceiling_single_unit(self):
        d = Distribution(GridSpec(7, 7), {(3, 3): 2})
        rep = weight_report(d)
        assert rep.ceiling == covering_ratio_ceiling(d)
        assert rep.total_weight - rep.total_excess == sum(
            min(weight(d, u), Fraction(1)) for u in d.grid.vertices()
        )

    def test_infinite_ceiling_single_2unit(self):
        d = Distribution(GridSpec(3, 3), {(1, 1): 2})
        assert ceiling_infinite(d) == Fraction(17, 2)

    def test_infinite_ceiling_two_adjacent_2units(self):
        d = Distribution(GridSpec(4, 3), {(1, 1): 2, (2, 1): 2})
        assert ceiling_infinite(d) == Fraction(29, 4)

    def test_infinite_ceiling_independent_of_grid_placement(self):
        a = Distribution(GridSpec(3, 3), {(0, 0): 2})
        b = Distribution(GridSpec(9, 9), {(4, 4): 2})
        assert ceiling_infinite(a) == ceiling_infinite(b) == Fraction(17, 2)

    def test_infinite_excess_region_covers_weight_above_one(self):
        d = Distribution(GridSpec(5, 5), {(1, 1): 3, (3, 3): 3})
        region = infinite_excess_region(d)
        # outside the region W <= |D| * 2^-d <= 1 by construction; inside,
        # every support point is present
        for v in d.support:
            assert (v.col, v.row) in region

    def test_ceiling_empty_distribution_rejected(self):
        empty = Distribution(GridSpec(3, 3), {})
        for read in (covering_ratio_ceiling, ceiling_infinite, weight_report):
            with pytest.raises(GridError, match="^ceiling needs a non-empty distribution$"):
                read(empty)

    def test_ceiling_of_mass_below_one(self):
        # non-empty although |D| < 1; W = 1/3, 1/6, 1/12 on center, sides, corners
        d = ContinuousDistribution(GridSpec(3, 3), {(1, 1): Fraction(1, 3)})
        assert covering_ratio_ceiling(d) == 4
        assert ceiling_infinite(d) == 9

    def test_continuous_infinite_ceiling_in_both_entry_points(self):
        spec = GridSpec(5, 5)
        d = ContinuousDistribution(spec, {(2, 2): Fraction(5, 2), (1, 1): Fraction(1, 3)})
        dplus = Distribution(spec, {(2, 2): 3, (1, 1): 1})
        assert ceiling_infinite(d) == Fraction(135, 17)
        added = dplus.size - d.size
        assert marginal_covering_ratio_ceiling(d, dplus, infinite=True) == (
            ceiling_infinite(dplus) * dplus.size - Fraction(135, 17) * d.size
        ) / added

    def test_marginal_ceiling_modes(self):
        spec = GridSpec(7, 7)
        base = Distribution(spec, {(3, 3): 2})
        ext = base.with_pebbles((3, 4), 2)
        grid_m = marginal_covering_ratio_ceiling(base, ext)
        inf_m = marginal_covering_ratio_ceiling(base, ext, infinite=True)
        # two pebbles on a fresh vertex always add ceiling numerator
        assert grid_m > 0 and inf_m > 0
        # infinite mode: numerators are 17 and 29/2... check against fixtures
        assert inf_m == (Fraction(29, 4) * 4 - Fraction(17, 2) * 2) / 2
        # a continuous base/extension pair gives the same values in both modes
        cbase = ContinuousDistribution(spec, {(3, 3): Fraction(2)})
        cext = ContinuousDistribution(spec, {(3, 3): Fraction(2), (3, 4): Fraction(2)})
        assert marginal_covering_ratio_ceiling(cbase, cext) == grid_m
        assert marginal_covering_ratio_ceiling(cbase, cext, infinite=True) == inf_m

    @pytest.mark.parametrize(
        "grid, plus, message",
        [
            (GridSpec(5, 5), {(1, 1): 2}, "must dominate the base pointwise"),
            (GridSpec(5, 5), {(0, 0): 2}, "must add at least one pebble"),
            (GridSpec(5, 5, TORUS), {(0, 0): 3}, "cannot compare distributions on different grids"),
        ],
        ids=["not-dominating", "equal", "different-grids"],
    )
    def test_marginal_reads_reject_the_same_pairs(self, grid, plus, message):
        """The marginal covering ratio and the marginal ceiling share one
        extension check, so they raise the same GridError."""
        base = Distribution(GridSpec(5, 5), {(0, 0): 2})
        for marginal in (marginal_covering_ratio, marginal_covering_ratio_ceiling):
            with pytest.raises(GridError, match=f"{message}$"):
                marginal(base, Distribution(grid, plus))


class TestFractional:
    def test_fractional_solvable_uniform_one(self):
        spec = GridSpec(4, 4, TORUS)
        d = ContinuousDistribution(spec, {v: Fraction(1) for v in spec.vertices()})
        assert fractional_solvable(d)

    def test_fractional_solvable_at_exact_one(self):
        """Uniform 1/(s_w * s_h) on a torus, s_n the sum of 2^-d over one
        axis, has weight exactly 1 at every vertex: solvable, and not once
        one vertex loses a little of its mass."""
        for width, height in ((4, 4), (6, 4), (5, 5), (9, 9)):
            spec = GridSpec(width, height, TORUS)
            # s_w * s_h is the weight at (0, 0) of one pebble on every vertex
            q = 1 / sum(Fraction(1, 2 ** spec.distance((0, 0), v)) for v in spec.vertices())
            counts = {v: q for v in spec.vertices()}
            d = ContinuousDistribution(spec, counts)
            assert {weight(d, u) for u in spec.vertices()} == {1}
            assert fractional_solvable(d)
            counts[(0, 0)] = q * Fraction(1023, 1024)
            assert not fractional_solvable(ContinuousDistribution(spec, counts))

    def test_uniform_ninth_fails_on_finite_torus(self):
        # each wrap-around row/column sum of 2^-d stays strictly below 3,
        # so uniform 1/9 never reaches weight 1 on a finite torus
        for n in (5, 7, 9):
            spec = GridSpec(n, n, TORUS)
            d = ContinuousDistribution(spec, {v: Fraction(1, 9) for v in spec.vertices()})
            w = weight(d, (0, 0))
            assert w < 1
            assert not fractional_solvable(d)

    def test_single_pebble_weight_total(self):
        assert single_pebble_weight_total(0) == 1
        assert single_pebble_weight_total(1) == 3
        assert single_pebble_weight_total(2) == 5
        values = [single_pebble_weight_total(r) for r in range(12)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 9 for v in values)
        assert 9 - single_pebble_weight_total(30) < Fraction(1, 2**20)
        for r in range(41):
            explicit = 1 + sum((Fraction(4 * k, 2**k) for k in range(1, r + 1)), Fraction(0))
            assert single_pebble_weight_total(r) == explicit
        with pytest.raises(GridError):
            single_pebble_weight_total(-1)

    def test_bound_constants(self):
        assert UNIT_EXCESS_LOWER_BOUND == Fraction(12, 25)
        assert IFCOV_UPPER_BOUND == Fraction(213, 25)
        assert PEBBLE_TOTAL_WEIGHT == 9

    def test_ifcov_bound_report(self):
        spec = GridSpec(3, 3)
        d = Distribution(spec, {(1, 1): 9})
        rep = ifcov_bound_report(d, 3)
        assert rep.ratio == 1
        assert rep.excess_lower_bound == Fraction(12, 25) * 9
        assert not rep.violated
        assert rep.to_json()["violated"] is False


@pytest.fixture(scope="module")
def frozen_instances():
    """The instances whose answers the benchmark's weights workload freezes."""
    _, density7 = find_density7_pattern()
    row = GridSpec(23, 7)
    return {
        "diag7_42t": gen_diag7(GridSpec(42, 42, TORUS)),
        "density7_28t": density7(4),
        "diag7_21p": gen_diag7(GridSpec(21, 21)),
        "row_ones": gen_row_ones(row, 16),
        "row_ones_u2": gen_row_ones(row, 16, with_unit2=True),
    }


def frozen_reads(inst) -> list[str]:
    d, dplus = inst["row_ones"], inst["row_ones_u2"]
    return [
        str(weight_report(inst["diag7_42t"]).ceiling),
        str(covering_ratio_ceiling(inst["density7_28t"])),
        str(fractional_solvable(inst["density7_28t"])),
        str(ceiling_infinite(inst["diag7_21p"])),
        f"{marginal_covering_ratio_ceiling(d, dplus)} "
        f"{marginal_covering_ratio_ceiling(d, dplus, infinite=True)}",
    ]


class TestFrozenAnswers:
    def test_weights_workload_answers(self, frozen_instances):
        assert frozen_reads(frozen_instances) == [
            "7/2",
            "7",
            "True",
            "2870497580891251/716881581309952",
            "15991109/4194304 1376277/262144",
        ]

    def test_whole_grid_reads_make_no_per_vertex_calls(self, frozen_instances, monkeypatch):
        """Every whole-grid read takes all its weights from the packed
        kernel: none calls the one-vertex reads weight or _infinite_weight."""
        calls = []
        for name in ("weight", "_infinite_weight"):
            one_vertex = getattr(weights, name)

            def counted(*args, _read=one_vertex, _name=name):
                calls.append(_name)
                return _read(*args)

            monkeypatch.setattr(weights, name, counted)
        frozen_reads(frozen_instances)
        assert calls == []
        weights.weight(frozen_instances["row_ones"], (0, 0))
        assert calls == ["weight"]

    def test_diag7_report_totals(self, frozen_instances):
        """A carry between packed fields could leave the ceiling at 7/2 and
        still move these totals; the 1,764 weights take 8 distinct values."""
        rep = weight_report(frozen_instances["diag7_42t"]).to_json()
        assert rep["total_weight"] == "2493689993626167/549755813888"
        assert rep["total_excess"] == "1523920737927735/549755813888"
        assert len({row["w"] for row in rep["rows"]}) == 8
