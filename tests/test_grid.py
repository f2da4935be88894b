import re
from fractions import Fraction

import pytest

from pebblekit.grid import (
    PLANE,
    TORUS,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    ParseError,
    Vertex,
    parse_distribution,
    serialize_distribution,
)

from conftest import oracle_neighbors

# sides of length 1 and 2 are where a torus's wrap neighbours coincide
SMALL_GRIDS = [
    pytest.param(w, h, topology, id=f"{w}x{h}-{topology}")
    for w, h in ((1, 1), (1, 5), (2, 2), (2, 5), (3, 1), (5, 4))
    for topology in (PLANE, TORUS)
]


def bfs_distance(spec: GridSpec, u: Vertex, v: Vertex) -> int:
    frontier = {u}
    seen = {u}
    d = 0
    while v not in frontier:
        frontier = {w for x in frontier for w in oracle_neighbors(spec, x)} - seen
        seen |= frontier
        d += 1
    return d


class TestGridSpec:
    def test_size_and_vertices(self):
        spec = GridSpec(3, 4)
        assert spec.size == 12
        assert len(list(spec.vertices())) == 12
        assert Vertex(2, 3) in set(spec.vertices())

    def test_invalid_dimensions(self):
        with pytest.raises(GridError):
            GridSpec(0, 3)
        with pytest.raises(GridError):
            GridSpec(3, -1)
        for width, height in ((3.0, 3), (3, "3"), (True, 2)):
            with pytest.raises(GridError, match="must be integers"):
                GridSpec(width, height)

    def test_invalid_topology(self):
        with pytest.raises(GridError):
            GridSpec(3, 3, "cylinder")

    def test_plane_distance_is_manhattan(self):
        spec = GridSpec(5, 5)
        assert spec.distance((0, 0), (4, 3)) == 7
        assert spec.distance((2, 2), (2, 2)) == 0

    def test_torus_distance_wraps(self):
        spec = GridSpec(5, 7, TORUS)
        assert spec.distance((0, 0), (4, 0)) == 1
        assert spec.distance((0, 0), (0, 6)) == 1
        assert spec.distance((0, 0), (2, 3)) == 5

    @pytest.mark.parametrize(
        "width, height, topology",
        [pytest.param(4, 5, PLANE, id=PLANE), pytest.param(4, 5, TORUS, id=TORUS)] + SMALL_GRIDS,
    )
    def test_distance_matches_bfs(self, width, height, topology):
        spec = GridSpec(width, height, topology)
        verts = list(spec.vertices())
        for u in verts:
            for v in verts:
                assert spec.distance(u, v) == bfs_distance(spec, u, v)

    @pytest.mark.parametrize("width, height, topology", SMALL_GRIDS)
    def test_neighbors_match_four_offset_rule(self, width, height, topology):
        spec = GridSpec(width, height, topology)
        for v in spec.vertices():
            assert spec.neighbors(v) == tuple(sorted(oracle_neighbors(spec, v)))

    @pytest.mark.parametrize("width, height, topology", SMALL_GRIDS)
    def test_vertex_ids_row_major(self, width, height, topology):
        spec = GridSpec(width, height, topology)
        index = spec.index
        assert index.vertices == tuple(spec.vertices())
        for v in spec.vertices():
            i = index.ids[v]
            assert i == v.row * width + v.col and index.vertices[i] == v
            assert tuple(index.vertices[j] for j in index.neighbor_ids[i]) == spec.neighbors(v)

    def test_neighbors_plane_corner(self):
        spec = GridSpec(3, 3)
        assert set(spec.neighbors((0, 0))) == {Vertex(1, 0), Vertex(0, 1)}

    def test_neighbors_torus_degree_four(self):
        spec = GridSpec(3, 3, TORUS)
        for v in spec.vertices():
            assert len(set(spec.neighbors(v))) == 4

    def test_ball_matches_distance(self):
        for topology in (PLANE, TORUS):
            spec = GridSpec(5, 4, topology)
            ball = spec.ball((1, 1), 2)
            expect = {v for v in spec.vertices() if spec.distance(v, (1, 1)) <= 2}
            assert ball == expect

    def test_check_rejects_out_of_bounds(self):
        spec = GridSpec(3, 3)
        with pytest.raises(GridError):
            spec.check((3, 0))
        with pytest.raises(GridError):
            spec.check((0, -1))

    @pytest.mark.parametrize("v", [(1, 2, 3), (1,), 5])
    def test_check_rejects_non_pairs(self, v):
        with pytest.raises(GridError, match=r"is not a \(col, row\) pair"):
            GridSpec(3, 3).check(v)

    @pytest.mark.parametrize("v", [(0.5, 0), (0, 1.0), (Fraction(1), 0), ("1", 0), (True, 0)])
    def test_non_integer_coordinates_rejected(self, v):
        spec = GridSpec(5, 5)
        named = re.escape(str(tuple(v)))
        for call in (
            lambda: spec.check(v),
            lambda: spec.distance(v, (0, 0)),
            lambda: spec.distance((0, 0), v),
            lambda: spec.neighbors(v),
            lambda: spec.ball(v, 1),
            lambda: Distribution(spec, {v: 1, (0, 0): 1}),
            lambda: ContinuousDistribution(spec, {v: Fraction(1, 2)}),
        ):
            with pytest.raises(GridError, match=named):
                call()


class TestDistribution:
    def test_basic_accessors(self):
        d = Distribution(GridSpec(4, 4), {(0, 0): 2, (1, 2): 3})
        assert d.size == 5
        assert d.support == {Vertex(0, 0), Vertex(1, 2)}
        assert d.get((1, 2)) == 3
        assert d.get((3, 3)) == 0

    def test_zero_counts_dropped(self):
        d = Distribution(GridSpec(3, 3), {(0, 0): 2, (1, 1): 0})
        assert d.support == {Vertex(0, 0)}

    def test_negative_count_rejected(self):
        with pytest.raises(GridError):
            Distribution(GridSpec(3, 3), {(0, 0): -1})

    def test_non_integer_count_rejected(self):
        with pytest.raises(GridError):
            Distribution(GridSpec(3, 3), {(0, 0): Fraction(1, 2)})

    def test_off_grid_vertex_rejected(self):
        with pytest.raises(GridError):
            Distribution(GridSpec(3, 3), {(5, 5): 1})

    def test_equality_and_hash(self):
        spec = GridSpec(3, 3)
        a = Distribution(spec, {(0, 0): 2})
        b = Distribution(spec, {Vertex(0, 0): 2})
        assert a == b and hash(a) == hash(b)
        assert a != Distribution(spec, {(0, 0): 1})

    def test_with_pebbles_add_and_remove(self):
        d = Distribution(GridSpec(3, 3), {(0, 0): 2})
        assert d.with_pebbles((1, 1), 3).get((1, 1)) == 3
        assert d.with_pebbles((0, 0), -2).support == frozenset()
        with pytest.raises(GridError):
            d.with_pebbles((0, 0), -3)

    def test_combined_and_dominates(self):
        spec = GridSpec(3, 3)
        a = Distribution(spec, {(0, 0): 2})
        b = Distribution(spec, {(0, 0): 1, (1, 1): 1})
        c = a.combined(b)
        assert c.get((0, 0)) == 3 and c.get((1, 1)) == 1
        assert c.dominates(a) and c.dominates(b)
        assert not a.dominates(b)

    def test_cross_grid_operations_rejected(self):
        a = Distribution(GridSpec(3, 3), {(0, 0): 2})
        b = Distribution(GridSpec(4, 4), {(0, 0): 2})
        with pytest.raises(GridError):
            a.combined(b)
        with pytest.raises(GridError):
            a.dominates(b)


class TestContinuousDistribution:
    def test_rational_amounts(self):
        d = ContinuousDistribution(GridSpec(3, 3), {(0, 0): Fraction(1, 9)})
        assert d.size == Fraction(1, 9)
        assert d.get((0, 0)) == Fraction(1, 9)

    def test_negative_rejected(self):
        with pytest.raises(GridError):
            ContinuousDistribution(GridSpec(3, 3), {(0, 0): Fraction(-1, 2)})


class TestSerialization:
    def test_round_trip_integer(self):
        d = Distribution(GridSpec(4, 5, TORUS), {(0, 0): 2, (3, 4): 7})
        assert parse_distribution(serialize_distribution(d)) == d

    def test_round_trip_continuous(self):
        d = ContinuousDistribution(
            GridSpec(3, 3), {(0, 0): Fraction(1, 9), (2, 2): Fraction(5, 3)}
        )
        assert parse_distribution(serialize_distribution(d)) == d

    def test_parse_comments_and_blanks(self):
        text = "# header comment\n\ngrid 3 3 plane\npebble 1 1 2  # two pebbles\n"
        d = parse_distribution(text)
        assert d == Distribution(GridSpec(3, 3), {(1, 1): 2})

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError):
            parse_distribution("")
        with pytest.raises(ParseError) as e:
            parse_distribution("grid 3 3 plane\npebble 9 9 1\n")
        assert e.value.line_no == 2
        with pytest.raises(ParseError):
            parse_distribution("grid 3 3 plane\npebble 0 0 1\npebble 0 0 2\n")
        with pytest.raises(ParseError):
            parse_distribution("grid 3 3 plane\npebble 0 0 0\n")
        with pytest.raises(ParseError):
            parse_distribution("grid 3 3 moebius\n")
        with pytest.raises(ParseError):
            parse_distribution("grid 3 3 plane\npebble 0 0 1/2\n")

    def test_continuous_flag(self):
        d = parse_distribution("grid 3 3 plane continuous\npebble 0 0 1/2\n")
        assert isinstance(d, ContinuousDistribution)
        assert d.get((0, 0)) == Fraction(1, 2)
