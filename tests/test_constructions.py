from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from pebblekit.cli import main
from pebblekit.grid import (
    Distribution,
    GridError,
    GridSpec,
    PLANE,
    TORUS,
    Vertex,
    parse_distribution,
    serialize_distribution,
)
from pebblekit.constructions import (
    DENSITY7_BASES,
    FAMILIES,
    PatternSpec,
    _augmentation_choices,
    banded_rows_augmentation,
    density7_class_profile,
    density7_class_weights,
    find_density7_pattern,
    gen_banded_rows,
    gen_block_composition,
    gen_cascade_ones,
    gen_diag7,
    gen_row_ones,
    gen_uniform_frac,
    lattice_contains,
)
from pebblekit.reach import coverage, is_solvable, marginal_covering_ratio
from pebblekit.weights import (
    covering_ratio_ceiling,
    fractional_solvable,
    marginal_covering_ratio_ceiling,
    weight,
)


class TestDiag7:
    def test_torus_14x14(self):
        d = gen_diag7(GridSpec(14, 14, TORUS))
        assert d.size == 56
        assert all(c == 4 for c in d.counts.values())
        assert coverage(d).ratio == Fraction(7, 2)
        assert is_solvable(d)

    def test_torus_dimension_guard(self):
        with pytest.raises(GridError):
            gen_diag7(GridSpec(7, 14, TORUS))

    def test_plane_adds_border_fillers(self):
        d = gen_diag7(GridSpec(10, 10, PLANE))
        assert is_solvable(d)
        # single-pebble fillers cover what the size-4 units leave out
        assert any(c == 1 for c in d.counts.values())
        # the ratio of the bordered instance sits below the torus ratio
        assert coverage(d).ratio < Fraction(7, 2)


class TestRowOnes:
    def test_base_is_isolated_ones(self):
        d = gen_row_ones(GridSpec(10, 5), 4)
        assert d.size == 4
        assert coverage(d).cov == 4

    def test_unit2_marginal_series(self):
        # frozen regression values for the end-unit marginal covering ratio
        expected = {4: Fraction(13, 2), 8: Fraction(21, 2), 16: Fraction(37, 2)}
        for k, marg in expected.items():
            spec = GridSpec(k + 6, 5)
            base = gen_row_ones(spec, k)
            ext = gen_row_ones(spec, k, with_unit2=True)
            assert marginal_covering_ratio(base, ext) == marg

    def test_size_guard(self):
        with pytest.raises(GridError):
            gen_row_ones(GridSpec(6, 5), 4)
        with pytest.raises(GridError):
            gen_row_ones(GridSpec(10, 5), 0)


class TestCascadeOnes:
    def test_marginal_grows_linearly(self):
        values = {}
        for k in (2, 3, 4, 6):
            spec = GridSpec(2 * k + 6, 5)
            d, u = gen_cascade_ones(spec, k)
            values[k] = marginal_covering_ratio(d, d.combined(u))
        assert values == {2: 10, 3: 12, 4: 14, 6: 18}  # 2k + 6
        assert sorted(values.values()) == list(values.values())

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_closed_forms(self, k):
        """cov(D) = 6k - 1 and cov(D + U) = 8k + 5 on the (2k + 5) x 7
        plane, the values gen_cascade_ones records as computed."""
        d, u = gen_cascade_ones(GridSpec(2 * k + 5, 7), k)
        assert (coverage(d).cov, coverage(d.combined(u)).cov) == (6 * k - 1, 8 * k + 5)

    def test_cascade_unlocks_every_pile(self):
        spec = GridSpec(13, 5)
        d, u = gen_cascade_ones(spec, 5)
        before = coverage(d).reachable
        after = coverage(d.combined(u)).reachable
        # with the trigger, two steps right of the last pile becomes reachable
        assert Vertex(12, 2) in after and Vertex(12, 2) not in before

    def test_guards(self):
        with pytest.raises(GridError):
            gen_cascade_ones(GridSpec(10, 5), 1)
        with pytest.raises(GridError):
            gen_cascade_ones(GridSpec(6, 5), 2)


class TestBandedRows:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_base_coverage_and_ceiling(self, n, m):
        d = gen_banded_rows(n, m)
        rep = coverage(d)
        spec = d.grid
        assert rep.reachable == frozenset(
            v for v in spec.vertices() if v.row % 5 in (0, 1, 4)
        )
        assert rep.ratio == Fraction((3 * m + 1) * (2 * n + 1), 3 * (n + 1) * (m + 1))
        assert covering_ratio_ceiling(d) == Fraction(
            (5 * m + 1) * (2 * n + 1), 3 * (n + 1) * (m + 1)
        )

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_augmented_solvable_with_expected_ratio(self, n, m):
        d = gen_banded_rows(n, m, augmented=True)
        assert d.size == 3 * (n + 1) * (m + 1) + 4 * m
        assert is_solvable(d)
        assert coverage(d).ratio == Fraction(
            (5 * m + 1) * (2 * n + 1), 3 * (n + 1) * (m + 1) + 4 * m
        )

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
    def test_augmentation_units_have_zero_marginal_ceiling(self, n, m):
        base = gen_banded_rows(n, m)
        for v in banded_rows_augmentation(n, m):
            assert marginal_covering_ratio_ceiling(base, base.with_pebbles(v, 2)) == 0

    def test_augmentation_placements_frozen(self):
        # regression pins for the deterministic placement search
        assert sorted(banded_rows_augmentation(1, 1)) == [Vertex(1, 0), Vertex(1, 5)]
        assert sorted(banded_rows_augmentation(2, 1)) == [Vertex(2, 1), Vertex(2, 4)]
        assert sorted(banded_rows_augmentation(1, 2)) == [
            Vertex(0, 1), Vertex(1, 0), Vertex(1, 5), Vertex(1, 10)
        ]
        assert sorted(banded_rows_augmentation(2, 2)) == [
            Vertex(0, 4), Vertex(2, 1), Vertex(2, 9), Vertex(3, 4)
        ]
        assert sorted(banded_rows_augmentation(1, 3)) == [
            Vertex(0, 1), Vertex(0, 4), Vertex(1, 0), Vertex(1, 4), Vertex(1, 10), Vertex(1, 15)
        ]
        assert sorted(banded_rows_augmentation(1, 4)) == [
            Vertex(0, 1), Vertex(0, 4), Vertex(0, 9), Vertex(1, 0), Vertex(1, 4), Vertex(1, 9),
            Vertex(1, 15), Vertex(1, 20)
        ]
        assert sorted(banded_rows_augmentation(1, 5)) == [
            Vertex(0, 1), Vertex(0, 4), Vertex(0, 9), Vertex(0, 14), Vertex(1, 0), Vertex(1, 4),
            Vertex(1, 9), Vertex(1, 14), Vertex(1, 20), Vertex(1, 25)
        ]

    @pytest.mark.parametrize(
        "n,m", [(1, 1), (2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (3, 2), (1, 3)]
    )
    def test_augmentation_choices_are_the_legal_combinations(self, n, m):
        # oracle: every 2m-subset of the empty vertices near a pebbled row,
        # in combinations order, kept when no row gets more than two
        spec = GridSpec(2 * n + 1, 5 * m + 1)
        near = {
            v: r
            for v in spec.vertices()
            for r in range(0, 5 * m + 1, 5)
            if abs(v.row - r) <= 1 and not (v.row == r and v.col % 2 == 0)
        }
        cand = sorted(near, key=lambda v: (v.row, v.col))
        expected = [
            c
            for c in combinations(cand, 2 * m)
            if max(Counter(near[v] for v in c).values()) <= 2
        ]
        choices = list(_augmentation_choices(n, m))
        assert [sum(choice, ()) for choice in choices] == expected
        assert all(
            near[v] == 5 * j for choice in choices for j, units in enumerate(choice) for v in units
        )

    def test_uncertified_augmentation_raises(self):
        # no placement of 2 units certifies the 7x6 grid; an uncertified
        # placement is never returned
        with pytest.raises(GridError, match="n=3, m=1"):
            gen_banded_rows(3, 1, augmented=True)

    def test_guards(self):
        with pytest.raises(GridError):
            gen_banded_rows(0, 1)


class TestUniformFrac:
    def test_total_and_weight(self):
        spec = GridSpec(5, 5, TORUS)
        d = gen_uniform_frac(spec, Fraction(1, 9))
        assert d.size == Fraction(25, 9)
        # all vertices identical by symmetry
        w0 = weight(d, (0, 0))
        assert all(weight(d, v) == w0 for v in spec.vertices())
        assert not fractional_solvable(d)

    def test_positive_guard(self):
        with pytest.raises(GridError):
            gen_uniform_frac(GridSpec(3, 3), 0)


class TestDensity7:
    def test_bases_have_index_7(self):
        for basis in DENSITY7_BASES:
            (a, b), (c, d) = basis
            assert abs(a * d - b * c) == 7
            pts = sum(
                lattice_contains(basis, x, y) for x in range(7) for y in range(7)
            )
            assert pts == 7

    def test_selected_basis_covers(self):
        basis, gen = find_density7_pattern()
        weights = density7_class_weights(basis)
        assert min(weights.values()) >= 1
        assert basis == ((7, 0), (2, 1))

    def test_class_weight_zero_class_is_lattice_itself(self):
        basis, _ = find_density7_pattern()
        weights = density7_class_weights(basis)
        assert weights[0] > 1  # the lattice points themselves are heaviest

    def test_truncated_class_sum_exactly_one(self):
        basis, _ = find_density7_pattern()
        profile = density7_class_profile(basis, radius=5)
        sums = {
            alpha: sum(Fraction(cnt, 2**dist) for dist, cnt in shells.items())
            for alpha, shells in profile.items()
            if alpha != 0
        }
        assert min(sums.values()) == 1  # one class is tight at weight 1
        assert all(s >= 1 for s in sums.values())

    def test_torus_realization(self):
        basis, gen = find_density7_pattern()
        d = gen(2)
        assert d.grid == GridSpec(14, 14, TORUS)
        assert d.size == 14 * 14 // 7
        assert fractional_solvable(d)

    def test_early_bases_rejected(self):
        for basis in DENSITY7_BASES[:2]:
            weights = density7_class_weights(basis)
            assert min(weights.values()) < 1


class TestBlockComposition:
    def test_tiles_and_fillers(self):
        inner = Distribution(GridSpec(2, 2), {(0, 1): 1, (1, 1): 2})
        assert is_solvable(inner)
        d = gen_block_composition(5, 2, inner)
        k, r = 2, 1
        assert d.size == k * k * inner.size + r * r + 2 * r * k * 2
        assert is_solvable(d)

    def test_exact_tiling_no_fillers(self):
        inner = Distribution(GridSpec(2, 2), {(0, 1): 1, (1, 1): 2})
        d = gen_block_composition(4, 2, inner)
        assert d.size == 4 * inner.size
        assert is_solvable(d)

    def test_grid_mismatch_guard(self):
        inner = Distribution(GridSpec(3, 3), {(1, 1): 4})
        with pytest.raises(GridError):
            gen_block_composition(5, 2, inner)


#: `pebblekit gen <family>` with no flags: header line and pebble-line count
#: (block-composition reads the 2x2 inner file written by test_dispatch).
GEN_DEFAULTS = {
    "diag7": ("grid 14 14 torus", 14),
    "row_ones": ("grid 7 5 plane", 2),
    "cascade_ones": ("grid 7 5 plane", 3),
    "banded_rows": ("grid 3 6 plane", 4),
    "uniform_frac": ("grid 9 9 torus continuous", 81),
    "density7_frac": ("grid 14 14 torus", 28),
    "block_composition": ("grid 2 2 plane", 2),
}


class TestPatternSpec:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_dispatch(self, family, capsys, tmp_path):
        """`pebblekit gen` with no flags prints the registry's default
        instance, the one PatternSpec builds with no parameters."""
        argv, params = ["gen", family.replace("_", "-")], {}
        if family == "block_composition":
            inner = tmp_path / "inner.dist"
            inner.write_text(
                serialize_distribution(Distribution(GridSpec(2, 2), {(0, 1): 1, (1, 1): 2}))
            )
            argv += ["--inner", str(inner)]
            params["inner"] = parse_distribution(inner.read_text())
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == serialize_distribution(PatternSpec(family, params).generate())
        header, *pebbles = out.splitlines()
        assert (header, len(pebbles)) == GEN_DEFAULTS[family]

    def test_parameter_errors_name_the_parameter(self):
        with pytest.raises(GridError, match="diag7 takes no parameter k"):
            PatternSpec("diag7", {"k": 5})
        with pytest.raises(GridError, match="block_composition needs parameter inner"):
            PatternSpec("block_composition", {"n": 5, "m": 2})

    def test_augmented_banded_rows_is_a_parameter(self):
        with pytest.raises(GridError, match="unknown family"):
            PatternSpec("banded_rows_augmented", {"n": 1, "m": 1})
        d = PatternSpec("banded_rows", {"n": 1, "m": 1, "augmented": True}).generate()
        assert d == gen_banded_rows(1, 1, augmented=True) and d.size == 16

    def test_unknown_family_rejected(self):
        with pytest.raises(GridError):
            PatternSpec("hexagons", {})
