from fractions import Fraction
from itertools import islice
from operator import mul

import pytest

from pebblekit import optimal
from pebblekit.grid import PLANE, TORUS, Distribution, GridError, GridSpec
from pebblekit.lp import fractional_optimal_pebbling
from pebblekit.optimal import (
    MAX_SEARCH_VERTICES,
    OptimalResult,
    SizeRow,
    _Walk,
    composition_upper_bound,
    optimal_pebbling_number,
    optimal_ratio_series,
)
from pebblekit.reach import BudgetExceeded, StateSolver, coverage, is_solvable
from pebblekit.weights import dyadic_rows, weight

from conftest import (
    naive_reachable,
    oracle_distance,
    oracle_neighbors,
    reference_orbit_count,
    reference_orbits,
)

# (grid, pi_opt, orbits counted, witness): every orbit of the sizes below
# pi_opt plus the weight-passing orbits met at pi_opt, the witness last;
# the search enumerates the same orbits in the same order as long as these
# hold
PINNED = [
    pytest.param(GridSpec(2, 2), 3, 5, {(0, 1): 1, (1, 1): 2}, id="2x2"),
    pytest.param(GridSpec(3, 3), 4, 46, {(1, 1): 4}, id="3x3"),
    pytest.param(GridSpec(3, 3, TORUS), 4, 12, {(2, 2): 4}, id="3x3-torus"),
    pytest.param(GridSpec(4, 3), 5, 504, {(1, 1): 4, (3, 1): 1}, id="4x3"),
    pytest.param(GridSpec(6, 2, TORUS), 6, 312, {(2, 1): 2, (5, 1): 4}, id="6x2-torus"),
    pytest.param(
        GridSpec(6, 2), 6, 1574, {(1, 0): 1, (1, 1): 2, (4, 0): 1, (4, 1): 2}, id="6x2"
    ),
    pytest.param(GridSpec(5, 3), 6, 4119, {(1, 1): 4, (3, 1): 1, (4, 1): 1}, id="5x3"),
    pytest.param(GridSpec(4, 4, TORUS), 6, 282, {(1, 3): 4, (3, 2): 2}, id="4x4-torus"),
    pytest.param(GridSpec(4, 4), 7, 9647, {(1, 1): 4, (1, 3): 1, (3, 2): 2}, id="4x4"),
]

# (grid, per_size rows as (orbits, weight_refuted, neighbour_refuted,
# engine_refuted), sizes 1, 2, ...): the rows below pi_opt split the same
# orbits as when every orbit was built and weighed in full; at pi_opt,
# orbits = neighbour_refuted + engine_refuted + 1 and no orbit is counted
# as weight refuted
PER_SIZE = [
    pytest.param(GridSpec(2, 2), [(1, 1, 0, 0), (3, 2, 1, 0), (1, 0, 0, 0)], id="2x2"),
    pytest.param(
        GridSpec(3, 3), [(3, 3, 0, 0), (11, 11, 0, 0), (31, 31, 0, 0), (1, 0, 0, 0)], id="3x3"
    ),
    pytest.param(
        GridSpec(3, 3, TORUS),
        [(1, 1, 0, 0), (3, 3, 0, 0), (7, 4, 2, 1), (1, 0, 0, 0)],
        id="3x3-torus",
    ),
    pytest.param(
        GridSpec(4, 3),
        [(4, 4, 0, 0), (26, 26, 0, 0), (100, 100, 0, 0), (373, 373, 0, 0), (1, 0, 0, 0)],
        id="4x3",
    ),
    pytest.param(
        GridSpec(6, 2, TORUS),
        [
            (1, 1, 0, 0), (8, 8, 0, 0), (20, 20, 0, 0), (78, 72, 6, 0), (204, 135, 68, 1),
            (1, 0, 0, 0),
        ],
        id="6x2-torus",
    ),
    pytest.param(
        GridSpec(6, 2),
        [
            (3, 3, 0, 0), (24, 24, 0, 0), (91, 91, 0, 0), (357, 357, 0, 0),
            (1092, 1072, 20, 0), (7, 0, 0, 6),
        ],
        id="6x2",
    ),
    pytest.param(
        GridSpec(5, 3),
        [
            (6, 6, 0, 0), (40, 40, 0, 0), (194, 194, 0, 0), (832, 832, 0, 0),
            (3046, 3043, 3, 0), (1, 0, 0, 0),
        ],
        id="5x3",
    ),
    pytest.param(
        GridSpec(4, 4, TORUS),
        [
            (1, 1, 0, 0), (6, 6, 0, 0), (16, 16, 0, 0), (67, 61, 6, 0), (190, 132, 58, 0),
            (2, 0, 0, 1),
        ],
        id="4x4-torus",
    ),
    pytest.param(
        GridSpec(4, 4),
        [
            (3, 3, 0, 0), (24, 24, 0, 0), (113, 113, 0, 0), (528, 528, 0, 0),
            (2003, 2003, 0, 0), (6968, 6725, 241, 2), (8, 0, 1, 6),
        ],
        id="4x4",
    ),
]

# grids past MAX_SEARCH_VERTICES, searched with the cap raised: (grid,
# pi_opt, orbits counted, witness) as in PINNED
PAST_THE_CAP = [
    pytest.param(
        GridSpec(5, 4, TORUS), 7, 3464, {(4, 2): 4, (1, 3): 1, (2, 3): 2}, id="5x4-torus"
    ),
    pytest.param(
        GridSpec(6, 3), 7, 34466, {(1, 1): 4, (3, 1): 1, (4, 1): 1, (5, 1): 1}, id="6x3"
    ),
    pytest.param(GridSpec(7, 3), 8, 299990, {(1, 1): 4, (5, 1): 4}, id="7x3"),
]

# grids past 12 vertices for the orbit oracle, by topology
WIDE_ORBIT_GRIDS = {
    PLANE: [GridSpec(5, 3), GridSpec(4, 4)],
    TORUS: [GridSpec(8, 2, TORUS), GridSpec(4, 4, TORUS)],
}


def grids_up_to(n_vertices: int, topology: str) -> list[GridSpec]:
    """Every W x H grid of the topology with at most n_vertices vertices."""
    return [
        GridSpec(w, h, topology)
        for w in range(1, n_vertices + 1)
        for h in range(1, n_vertices // w + 1)
    ]


class TestOptimalNumbers:
    def test_1x1(self):
        res = optimal_pebbling_number(GridSpec(1, 1))
        assert res.pi_opt == 1

    @pytest.mark.parametrize("spec, pi_opt, tested, witness", PINNED)
    def test_exact_search(self, spec, pi_opt, tested, witness):
        res = optimal_pebbling_number(spec)
        assert (res.pi_opt, res.candidates_tested) == (pi_opt, tested)
        assert res.witness == Distribution(spec, witness)
        assert is_solvable(res.witness)

    @pytest.mark.parametrize("spec, rows", PER_SIZE)
    def test_per_size_rows(self, spec, rows):
        res = optimal_pebbling_number(spec)
        assert res.per_size == tuple(SizeRow(s, *row) for s, row in enumerate(rows, 1))

    def test_5x4_past_the_vertex_cap(self, monkeypatch):
        """With the vertex cap raised, the 5x4 plane (20 vertices) has pi_opt
        8, and its rows below 8 split the orbits of the search that built
        and weighed every orbit in full: of the 2,232 orbits of size 7 that
        pass the weight test, the neighbour test leaves one to the solver."""
        monkeypatch.setattr(optimal, "MAX_SEARCH_VERTICES", 20)
        res = optimal_pebbling_number(GridSpec(5, 4))
        assert res.pi_opt == 8
        witness = {(1, 1): 4, (1, 3): 1, (3, 1): 1, (4, 2): 2}
        assert res.witness == Distribution(GridSpec(5, 4), witness)
        assert is_solvable(res.witness)
        assert res.per_size == (
            SizeRow(1, 6, 6, 0, 0),
            SizeRow(2, 62, 62, 0, 0),
            SizeRow(3, 398, 398, 0, 0),
            SizeRow(4, 2279, 2279, 0, 0),
            SizeRow(5, 10716, 10716, 0, 0),
            SizeRow(6, 44596, 44591, 5, 0),
            SizeRow(7, 164892, 162660, 2231, 1),
            SizeRow(8, 157, 0, 123, 33),
        )

    @pytest.mark.parametrize("spec, pi_opt, tested, witness", PAST_THE_CAP)
    def test_past_the_vertex_cap(self, spec, pi_opt, tested, witness, monkeypatch):
        monkeypatch.setattr(optimal, "MAX_SEARCH_VERTICES", spec.size)
        res = optimal_pebbling_number(spec)
        assert (res.pi_opt, res.candidates_tested) == (pi_opt, tested)
        assert res.witness == Distribution(spec, witness)
        assert is_solvable(res.witness)

    @pytest.mark.parametrize(
        "spec, entries",
        [
            pytest.param(GridSpec(6, 2), 21, id="6x2"),
            pytest.param(GridSpec(6, 2, TORUS), 18, id="6x2-torus"),
        ],
    )
    def test_solver_memo_entries(self, spec, entries, monkeypatch):
        """The solver makes no move onto a vertex of weight below 2 in the
        current state, so after the whole search its memo holds exactly
        these entries; making every legal move, it held 79 and 54."""
        solvers = []

        class Recorded(StateSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                solvers.append(self)

        monkeypatch.setattr(optimal, "StateSolver", Recorded)
        optimal_pebbling_number(spec)
        assert [len(solver.memo) for solver in solvers] == [entries]

    def test_solver_rejects_bad_states(self):
        """A state of the wrong length, or one whose counts do not fit the
        memo's byte keys, raises GridError before any search."""
        solver = StateSolver(GridSpec(6, 5))
        with pytest.raises(GridError, match="one count per vertex: 30, not 29"):
            solver.reach((1,) * 29)
        for state in ((300,) + (0,) * 29, (-1,) + (0,) * 29, (1.0,) + (0,) * 29):
            with pytest.raises(GridError, match="summing to at most 255"):
                solver.reach(state)
        assert solver.memo == {}

    def test_weight_refuted_orbits_cost_no_budget(self):
        # every 3x3 orbit below 4 pebbles has a vertex of weight < 1, so the
        # search never asks the solver, and a node cap of 1 cannot overflow
        assert optimal_pebbling_number(GridSpec(3, 3), node_cap=1).pi_opt == 4

    def test_solver_budget_fails_loudly(self):
        """A node cap too small for the solver's memo stops the search with
        the size it was at: every smaller size was exhausted, so the bound
        is that size, above ceil(32/9) = 4 from the fractional optimum.  The
        neighbour test refutes every size-5 orbit of 6x2 that passes the
        weight test, so the solver is first asked at size 6."""
        with pytest.raises(BudgetExceeded) as e:
            optimal_pebbling_number(GridSpec(6, 2), node_cap=1)
        assert (e.value.lower, e.value.size, e.value.node_cap) == (6, 6, 1)
        assert str(e.value) == (
            "optimal search on 6x2 plane stopped at size 6: the solver memo reached the"
            " node cap of 1 entries; known bounds: 6 <= pi_opt"
        )

    def test_per_size_certificate(self):
        """One row per size up to pi_opt; every 3x3 orbit below 4 pebbles is
        refuted by weight, and the last orbit of size 4 is the witness."""
        res = optimal_pebbling_number(GridSpec(3, 3))
        assert [row.size for row in res.per_size] == [1, 2, 3, 4]
        assert res.candidates_tested == sum(row.orbits for row in res.per_size) == 46
        for row in res.per_size[:-1]:
            assert row.weight_refuted == row.orbits
            assert row.neighbour_refuted == row.engine_refuted == 0
        last = res.per_size[-1]
        assert isinstance(last, SizeRow)
        assert last.weight_refuted == 0
        assert last.neighbour_refuted + last.engine_refuted == last.orbits - 1

    def test_2x3(self):
        assert optimal_pebbling_number(GridSpec(2, 3)).pi_opt == 3

    def test_witness_minimality_by_exhaustion(self):
        # candidates_tested counts every orbit representative of the
        # smaller sizes, certifying minimality
        res = optimal_pebbling_number(GridSpec(2, 2))
        assert res.candidates_tested > 1

    @pytest.mark.parametrize(
        "width, height, topology, order",
        [
            (1, 1, PLANE, 1),
            (2, 2, PLANE, 8),
            (3, 3, PLANE, 8),
            (4, 3, PLANE, 4),
            (6, 2, PLANE, 4),
            (2, 5, TORUS, 20),
            (3, 3, TORUS, 72),
            (6, 2, TORUS, 24),
            (4, 4, TORUS, 128),
        ],
    )
    def test_symmetries_are_distance_preserving_permutations(self, width, height, topology, order):
        """Each symmetry is a vertex-id permutation that keeps every distance.
        order counts the distinct maps among the reflections of the rectangle,
        the axis swap of a square grid and, on a torus, the translations
        (maps coincide on a side of length 1 or 2)."""
        spec = GridSpec(width, height, topology)
        verts = list(spec.vertices())
        perms = spec.index.permutations()
        assert len(set(perms)) == len(perms) == order
        for p in perms:
            assert sorted(p) == list(range(spec.size))
            for i, u in enumerate(verts):
                for j, v in enumerate(verts):
                    assert spec.distance(verts[p[i]], verts[p[j]]) == spec.distance(u, v)

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_orbits_match_seen_set_reference(self, topology):
        """The walk with no weight rows yields one vector per orbit, in grid
        ids.  On a torus it keeps the grid's id order and yields the same
        lex-least representatives, in the same order, as the first-met
        enumeration with a global seen set.  On a plane it walks border
        first with conjugated symmetries; on every plane grid of <= 16
        vertices it yields Burnside's count of vectors, no two in one orbit,
        and on the grids of the reference, the reference's orbits."""

        def orbit(vec, perms):
            return min(tuple(map(vec.__getitem__, p)) for p in perms)

        referenced = grids_up_to(12, topology) + WIDE_ORBIT_GRIDS[topology]
        for spec in referenced if topology == TORUS else grids_up_to(16, PLANE):
            perms = spec.index.permutations()
            walk = _Walk(spec)
            for s in range(1, 6 if topology == TORUS else 7):
                got = list(walk.of_size(s))
                if topology == TORUS:
                    assert got == list(reference_orbits(spec, s, perms)), (spec, s)
                    continue
                orbits = [orbit(vec, perms) for vec in got]
                assert len(orbits) == len(set(orbits)) == walk.orbit_count(s), (spec, s)
                if spec in referenced:
                    # the reference yields the lex-least member of each orbit
                    assert set(orbits) == set(reference_orbits(spec, s, perms)), (spec, s)

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_weight_cut_keeps_exactly_the_weight_passing_orbits(self, topology):
        """At every size s <= n, the walk that cuts prefixes by weight yields
        the vectors of the unpruned walk (no rows) under which every vertex
        has weight >= 1, in the same order."""
        for spec in grids_up_to(12, topology) + WIDE_ORBIT_GRIDS[topology]:
            one, rows = dyadic_rows(spec)
            plain, weighed = _Walk(spec), _Walk(spec, one, rows)
            for s in range(1, min(6, spec.size) + 1):
                heavy = [
                    vec
                    for vec in plain.of_size(s)
                    if all(sum(map(mul, vec, row)) >= one for row in rows)
                ]
                assert list(weighed.of_size(s)) == heavy, (spec, s)

    def test_weighed_walk_holds_sizes_up_to_n(self):
        """The packed weight fields of a walk with rows hold the sizes s <= n,
        as pi_opt <= n: at s = n + 1 a field could carry into the next, and
        the walk raises GridError.  A walk with no rows packs no fields and
        walks any size."""
        for spec in (GridSpec(1, 1), GridSpec(3, 1), GridSpec(2, 2), GridSpec(3, 3, TORUS)):
            one, rows = dyadic_rows(spec)
            n = spec.size
            assert list(_Walk(spec, one, rows).of_size(n)), spec
            with pytest.raises(GridError, match=f"sizes up to {n}, not {n + 1}"):
                _Walk(spec, one, rows).of_size(n + 1)
            plain = _Walk(spec)
            assert len(list(plain.of_size(n + 1))) == plain.orbit_count(n + 1), spec

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_orbit_counts_match_burnside(self, topology):
        """The enumeration yields exactly as many vectors as Burnside's lemma
        counts orbits, at sizes beyond the seen-set reference."""
        for spec in WIDE_ORBIT_GRIDS[topology]:
            walk = _Walk(spec)
            for s in range(1, 8):
                got = sum(1 for _ in walk.of_size(s))
                assert got == walk.orbit_count(s), (spec, s)

    def test_pruning_cuts_leaf_tests(self, monkeypatch):
        """Prefixes no completion of which is lex-least are cut before they
        are completed: on the 6x2 torus, sizes 1-6, far fewer vectors reach
        the leaf test than the 18,563 placements of those sizes."""
        calls = 0
        leaf_test = optimal._canonical

        def counted(vec, live):
            nonlocal calls
            calls += 1
            return leaf_test(vec, live)

        monkeypatch.setattr(optimal, "_canonical", counted)
        walk = _Walk(GridSpec(6, 2, TORUS))
        orbits = sum(len(list(walk.of_size(s))) for s in range(1, 7))
        assert orbits == 899
        assert calls == 2197 < 18563

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_burnside_counts_from_cycle_types(self, topology):
        """Burnside's count from the cycle types of the walk's symmetries,
        conjugated on a plane and found once per walk, equals the count that
        finds each of the grid's permutations' cycles afresh."""
        for spec in grids_up_to(16, topology):
            walk, perms = _Walk(spec), spec.index.permutations()
            for s in range(1, 13):
                assert walk.orbit_count(s) == reference_orbit_count(perms, s), (spec, s)

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_neighbour_test_drops_only_unsolvable_orbits(self, topology):
        """At every size up to pi_opt, the neighbour test drops a
        weight-passing orbit exactly when some empty vertex has no
        neighbour of weight >= 2, counts each one it drops, and the naive
        BFS oracle reaches none of those vertices."""
        dropped = 0
        for spec in grids_up_to(12, topology):
            verts, n = list(spec.vertices()), spec.size
            one, rows = dyadic_rows(spec)
            walk, weighed = _Walk(spec, one, rows, spec.index.neighbor_ids), _Walk(spec, one, rows)
            for s in range(1, optimal_pebbling_number(spec).pi_opt + 1):
                kept = list(walk.of_size(s))
                heavy = list(weighed.of_size(s))
                assert kept == [vec for vec in heavy if vec in kept]
                assert walk.neighbour_refuted == len(heavy) - len(kept), (spec, s)
                for vec in heavy:
                    counts = {verts[i]: k for i, k in enumerate(vec) if k}
                    # W(u) >= 2 over the denominator 2^n: every distance is < n
                    two = {
                        u
                        for u in verts
                        if sum(c << n - oracle_distance(spec, u, v) for v, c in counts.items())
                        >= 2 << n
                    }
                    cut = {
                        t
                        for t in verts
                        if t not in counts and two.isdisjoint(oracle_neighbors(spec, t))
                    }
                    assert (vec not in kept) == bool(cut), (spec, vec)
                    if cut:
                        dropped += 1
                        assert not cut & naive_reachable(Distribution(spec, counts)), (spec, vec)
        assert dropped > 0

    def test_neighbour_test_refutes_6x2_size_5(self):
        """All 20 orbits of size 5 on the 6x2 plane that pass the weight test
        have an empty vertex with no neighbour of weight >= 2."""
        spec = GridSpec(6, 2)
        one, rows = dyadic_rows(spec)
        assert len(list(_Walk(spec, one, rows).of_size(5))) == 20
        walk = _Walk(spec, one, rows, spec.index.neighbor_ids)
        assert list(walk.of_size(5)) == []
        assert walk.neighbour_refuted == 20

    @pytest.mark.parametrize("topology", [PLANE, TORUS])
    def test_weight_filter_drops_only_unsolvable_orbits(self, topology):
        """At every size s <= n, the weight cut drops an orbit of the unpruned
        walk exactly when some vertex has weight below 1, and the naive BFS
        oracle reaches none of those vertices."""
        dropped = 0
        for spec in grids_up_to(9, topology):
            verts = list(spec.vertices())
            one, rows = dyadic_rows(spec)
            plain, weighed = _Walk(spec), _Walk(spec, one, rows)
            for s in range(1, min(6, spec.size) + 1):
                kept = set(weighed.of_size(s))
                for vec in plain.of_size(s):
                    d = Distribution(spec, {verts[i]: k for i, k in enumerate(vec) if k})
                    light = {v for v in verts if weight(d, v) < 1}
                    assert (vec not in kept) == bool(light), d
                    if light:
                        dropped += 1
                        assert not light & naive_reachable(d), d
        assert dropped > 0

    @pytest.mark.parametrize("spec, pi_opt, tested, witness", PINNED)
    def test_engine_matches_oracle_on_searched_orbits(self, spec, pi_opt, tested, witness):
        """Differential check of the state solver, the reachability engine and
        the naive BFS oracle on every orbit that passes the weight filter, at
        every size up to pi_opt: the instances the search hands to the
        solver.  One solver serves them all, as in the search."""
        verts = list(spec.vertices())
        one, rows = dyadic_rows(spec)
        walk = _Walk(spec, one, rows)
        solver = StateSolver(spec)
        checked = 0
        for s in range(1, pi_opt + 1):
            for vec in walk.of_size(s):
                d = Distribution(spec, {verts[i]: k for i, k in enumerate(vec) if k})
                mask = solver.reach(vec)
                reached = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
                assert reached == coverage(d).reachable == naive_reachable(d), d
                checked += 1
        assert checked > 0

    def test_engine_matches_oracle_on_5x4_sample(self):
        """The same differential check on a fixed sample past the search's
        vertex cap: the first 160 weight-passing orbits of sizes 7 and 8 on
        the 5x4 plane (pi_opt 8), with one solver built directly.  In the
        walk's border-first order the 157th of size 8 is the search's
        witness, the first solvable one."""
        spec = GridSpec(5, 4)
        assert spec.size > MAX_SEARCH_VERTICES
        verts = list(spec.vertices())
        one, rows = dyadic_rows(spec)
        walk = _Walk(spec, one, rows)
        solver = StateSolver(spec)
        solved = 0
        for s in (7, 8):
            sample = list(islice(walk.of_size(s), 160))
            assert len(sample) == 160
            for vec in sample:
                d = Distribution(spec, {verts[i]: k for i, k in enumerate(vec) if k})
                mask = solver.reach(vec)
                reached = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
                assert reached == coverage(d).reachable == naive_reachable(d), d
                solved += mask == solver.full
        assert solved > 0

    def test_scale_guard(self):
        with pytest.raises(BudgetExceeded, match="known bounds: 6 <= pi_opt$") as e:
            optimal_pebbling_number(GridSpec(5, 5))
        assert e.value.lower == 6  # ceil(49/9), the fractional optimum
        assert GridSpec(4, 4).size == MAX_SEARCH_VERTICES  # 4x4 is the edge
        # the bound of a refused search costs O(W + H): no distance table
        for spec, lower in ((GridSpec(2000, 1), 668), (GridSpec(2000, 1, TORUS), 667)):
            with pytest.raises(BudgetExceeded, match=f"known bounds: {lower} <= pi_opt$"):
                optimal_pebbling_number(spec)
            assert "index" not in spec.__dict__


class TestSeriesAndBounds:
    def test_ratio_series(self):
        series = optimal_ratio_series(3)
        assert [(n, p) for n, p, _ in series] == [(1, 1), (2, 3), (3, 4)]
        assert series[2][2] == Fraction(4, 9)

    def test_ratio_series_guard(self):
        with pytest.raises(GridError):
            optimal_ratio_series(0)

    def test_composition_upper_bound(self):
        # n = km + r tiling bound: k^2 pi_m + r^2 + 2rkm
        assert composition_upper_bound(4, 2, 3) == 12
        assert composition_upper_bound(5, 2, 3) == 21
        assert composition_upper_bound(3, 3, 4) == 4

    def test_composition_bound_guard(self):
        with pytest.raises(GridError):
            composition_upper_bound(2, 3, 4)

    def test_pi_opt_respects_bounds(self):
        pi = {n: optimal_pebbling_number(GridSpec(n, n)).pi_opt for n in (1, 2, 3)}
        for n in (2, 3):
            # fractional optimum is a lower bound, tiling bound an upper bound
            frac, _ = fractional_optimal_pebbling(GridSpec(n, n))
            assert frac <= pi[n]
            for m in range(1, n):
                assert pi[n] <= composition_upper_bound(n, m, pi[m])
