import re
import time
from argparse import ArgumentTypeError
from fractions import Fraction

import pytest

from pebblekit.cli import _fraction
from pebblekit.constructions import gen_uniform_frac
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
    rational,
    serialize_distribution,
)
from pebblekit.lp import LpError, LpProblem, verify_certificate

from conftest import oracle_distance, oracle_neighbors

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

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_axis_tables_and_vertices_on_every_grid_to_12x12(self, topology):
        """The rotated (torus) and sliced (plane) axis rows against
        oracle_distance, and the mapped vertex tuple against vertices()."""
        for width in range(1, 13):
            for height in range(1, 13):
                spec = GridSpec(width, height, topology)
                index = spec.index
                assert index.cols == tuple(
                    tuple(oracle_distance(spec, (a, 0), (b, 0)) for b in range(width))
                    for a in range(width)
                )
                assert index.rows == tuple(
                    tuple(oracle_distance(spec, (0, a), (0, b)) for b in range(height))
                    for a in range(height)
                )
                assert index.vertices == tuple(spec.vertices())
                assert all(type(v) is Vertex for v in index.vertices)

    @pytest.mark.parametrize("width, height, topology", SMALL_GRIDS)
    def test_vertex_ids_row_major(self, width, height, topology):
        spec = GridSpec(width, height, topology)
        index = spec.index
        assert index.vertices == tuple(spec.vertices())
        for v in spec.vertices():
            i = index.ids[v]
            assert i == v.row * width + v.col and index.vertices[i] == v
            assert tuple(index.vertices[j] for j in index.neighbor_ids[i]) == spec.neighbors(v)

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_permutations_match_vertex_images(self, topology):
        """The permutations built from per-axis images are, in order, those
        of one image() call per vertex per symmetry, on every grid of at most
        16 vertices."""
        for w in range(1, 17):
            for h in range(1, 16 // w + 1):
                index = GridSpec(w, h, topology).index
                expected = [
                    tuple(index.ids[index.image(g, v)] for v in index.vertices)
                    for g in index.symmetries()
                ]
                assert index.permutations() == expected, (w, h)

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


#: Each entry point that takes an outside amount, as a function that gives
#: back the amount it stored, and the input error it raises.
AMOUNT_ENTRY_POINTS = {
    "rational": (rational, GridError),
    "ContinuousDistribution": (
        lambda q: ContinuousDistribution(GridSpec(2, 1), {(0, 0): q}).get((0, 0)),
        GridError,
    ),
    "gen_uniform_frac": (lambda q: gen_uniform_frac(GridSpec(2, 1), q).get((1, 0)), GridError),
    "LpProblem": (lambda q: LpProblem((q,), ((q,),), (q,)).constraints[0][0], LpError),
    "cli._fraction": (_fraction, ArgumentTypeError),
}

#: min x subject to x >= 1/3: primal (q,) and dual (1,) certify it iff q = 1/3.
THIRD = LpProblem((1,), ((1,),), (Fraction(1, 3),))


class TestRational:
    """The one converter of outside amounts, at each entry point: an int, a
    Fraction or a string Fraction reads gives the exact amount, a Fraction
    kept as the same object; a float, a bool or a zero denominator raises
    the entry point's input error."""

    @pytest.mark.parametrize("entry", AMOUNT_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "value, expected",
        [(3, Fraction(3)), (Fraction(1, 3), Fraction(1, 3)), ("1/3", Fraction(1, 3))],
    )
    def test_exact_amounts(self, entry, value, expected):
        got = AMOUNT_ENTRY_POINTS[entry][0](value)
        assert type(got) is Fraction and got == expected
        assert got is value or not isinstance(value, Fraction)

    @pytest.mark.parametrize("entry", AMOUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", [0.1, True, "1/0"])
    def test_inexact_amounts_refused(self, entry, value):
        convert, error = AMOUNT_ENTRY_POINTS[entry]
        with pytest.raises(error, match=re.escape(f"not an exact rational: {value!r}")):
            convert(value)

    @pytest.mark.parametrize(
        "value, certified", [(3, False), (Fraction(1, 3), True), ("1/3", True)]
    )
    def test_verify_certificate_reads_exact_amounts(self, value, certified):
        assert verify_certificate(THIRD, [value], [1]) is certified

    @pytest.mark.parametrize("value", [0.1, True, "1/0"])
    def test_verify_certificate_refuses_inexact_amounts(self, value):
        with pytest.raises(LpError, match="not an exact rational"):
            verify_certificate(THIRD, [value], [1])
        with pytest.raises(LpError, match="not an exact rational"):
            verify_certificate(THIRD, [Fraction(1, 3)], [value])

    @pytest.mark.parametrize("entry", AMOUNT_ENTRY_POINTS)
    @pytest.mark.parametrize(
        "value",
        [
            pytest.param("1e-5000", id="denominator"),
            pytest.param("-1e4300", id="numerator"),
            pytest.param(10**4300, id="int"),
        ],
    )
    def test_amounts_too_long_to_write_refused(self, entry, value):
        """An int or string amount with a numerator or denominator of more
        digits than str() writes under the default limit (4,300) is refused
        where it comes in; one digit fewer is kept."""
        convert, error = AMOUNT_ENTRY_POINTS[entry]
        with pytest.raises(error, match="too long to write back: over 4300 digits"):
            convert(value)
        assert convert("1e-4299") == Fraction(1, 10**4299)
        assert convert(10**4299) == 10**4299

    @pytest.mark.parametrize("entry", AMOUNT_ENTRY_POINTS)
    @pytest.mark.parametrize("value", ["1e-10000000", "2.5E+10000000", "0e-10000000"])
    def test_far_exponent_refused_before_it_is_evaluated(self, entry, value):
        """10^10,000,000 takes Fraction seconds to build: the exponent alone,
        past the limit plus the string's length, refuses the string at once."""
        convert, error = AMOUNT_ENTRY_POINTS[entry]
        start = time.perf_counter()
        with pytest.raises(error, match="too long to write back: over 4300 digits"):
            convert(value)
        assert time.perf_counter() - start < 0.5

    def test_exponent_bound_keeps_every_writable_amount(self):
        """A mantissa's digits can take back part of an exponent past the
        limit: such a string is still read if its value can be written."""
        assert rational("1e-4299") == Fraction(1, 10**4299)
        assert rational("0." + "0" * 4298 + "1e0") == Fraction(1, 10**4299)
        assert rational("1" + "0" * 100 + "e-4399") == Fraction(1, 10**4299)
        assert rational("0.000" + "1" * 60 + "e4303") == int("1" * 60 + "0" * 4240)

    def test_decimal_strings_are_exact(self):
        assert rational("0.1") == Fraction(1, 10) and rational("-2.5e-1") == Fraction(-1, 4)


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

    @pytest.mark.parametrize(
        "header, count, message",
        [
            ("", "1/2", "line 2: bad integer count '1/2'"),
            ("", "x", "line 2: bad integer count 'x'"),
            (" continuous", "1/0", "line 2: bad rational count '1/0'"),
            (" continuous", "x", "line 2: bad rational count 'x'"),
        ],
    )
    def test_bad_count_names_its_kind(self, header, count, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_distribution(f"grid 3 3 plane{header}\npebble 0 0 {count}\n")

    def test_continuous_flag(self):
        d = parse_distribution("grid 3 3 plane continuous\npebble 0 0 1/2\n")
        assert isinstance(d, ContinuousDistribution)
        assert d.get((0, 0)) == Fraction(1, 2)
