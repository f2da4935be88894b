from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import pebblekit
from pebblekit import constructions
from pebblekit.grid import (
    TORUS,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    Symmetry,
    Vertex,
)
from pebblekit.optimal import optimal_pebbling_number
from pebblekit.reach import (
    DEFAULT_NODE_CAP,
    BudgetExceeded,
    _Engine,
    _Search,
    apply_move,
    boundary_vertices,
    can_move_k,
    coverage,
    interaction_vertices,
    is_reachable,
    is_solvable,
    lonely_units,
    marginal_covering_ratio,
)

from conftest import ReferenceSearch, naive_max_at, naive_reachable, per_target_coverage

IDENTITY = Symmetry((1, 0), (1, 0), False)


def cascade5(plus: bool) -> Distribution:
    d, u = constructions.gen_cascade_ones(GridSpec(15, 7), 5)
    return d.combined(u) if plus else d


class TestApplyMove:
    def test_legal_move(self):
        d = Distribution(GridSpec(3, 3), {(0, 0): 2})
        d2 = apply_move(d, (0, 0), (1, 0))
        assert d2.get((0, 0)) == 0 and d2.get((1, 0)) == 1

    def test_needs_two_pebbles(self):
        d = Distribution(GridSpec(3, 3), {(0, 0): 1})
        with pytest.raises(GridError):
            apply_move(d, (0, 0), (1, 0))

    def test_needs_adjacency(self):
        d = Distribution(GridSpec(3, 3), {(0, 0): 2})
        with pytest.raises(GridError):
            apply_move(d, (0, 0), (2, 0))


class TestFixtures:
    def test_single_2unit_coverage(self):
        d = Distribution(GridSpec(7, 7), {(3, 3): 2})
        rep = coverage(d)
        assert rep.cov == 5
        assert rep.ratio == Fraction(5, 2)
        assert rep.reachable == frozenset(
            {Vertex(3, 3), Vertex(2, 3), Vertex(4, 3), Vertex(3, 2), Vertex(3, 4)}
        )

    def test_two_adjacent_2units_coverage(self):
        d = Distribution(GridSpec(8, 7), {(3, 3): 2, (4, 3): 2})
        rep = coverage(d)
        assert rep.cov == 8
        assert rep.ratio == Fraction(2)

    def test_four_pebbles_reach_distance_two(self):
        d = Distribution(GridSpec(7, 7), {(3, 3): 4})
        assert is_reachable(d, (5, 3))
        assert not is_reachable(d, (6, 3))
        assert can_move_k(d, (4, 3), 2)
        assert not can_move_k(d, (4, 3), 3)


class TestAgainstNaiveOracle:
    def all_small_distributions(self, spec, max_size):
        verts = list(spec.vertices())
        for size in range(1, max_size + 1):
            for combo in combinations_with_replacement(verts, size):
                counts = {}
                for v in combo:
                    counts[v] = counts.get(v, 0) + 1
                yield Distribution(spec, counts)

    @pytest.mark.parametrize("topology", ["plane", TORUS])
    def test_reachable_set_matches_naive(self, topology):
        spec = GridSpec(3, 3, topology)
        # spot-check a deterministic sample; the acceptance suite runs the
        # exhaustive |D| <= 5 sweep
        for i, d in enumerate(self.all_small_distributions(spec, 4)):
            if i % 17:
                continue
            assert coverage(d).reachable == naive_reachable(d), d.counts

    def test_can_move_k_matches_naive(self):
        spec = GridSpec(3, 3)
        cases = [
            {(0, 0): 4},
            {(0, 0): 4, (1, 1): 2},
            {(0, 0): 3, (2, 0): 3},
            {(1, 1): 5},
            {(0, 0): 2, (0, 2): 2, (2, 0): 2},
        ]
        for counts in cases:
            d = Distribution(spec, counts)
            for t in spec.vertices():
                top = naive_max_at(d, t)
                for k in range(1, top + 1):
                    assert can_move_k(d, t, k), (counts, tuple(t), k)
                assert not can_move_k(d, t, top + 1), (counts, tuple(t))


class TestQueries:
    def test_is_solvable(self):
        spec = GridSpec(2, 2)
        assert is_solvable(Distribution(spec, {(0, 1): 1, (1, 1): 2}))
        assert not is_solvable(Distribution(spec, {(0, 0): 2}))
        assert not is_solvable(Distribution(spec, {}))

    @pytest.mark.parametrize(
        "query",
        [is_solvable, coverage, lambda d: can_move_k(d, (1, 1), 2), lambda d: is_reachable(d, (1, 1))],
        ids=["is_solvable", "coverage", "can_move_k", "is_reachable"],
    )
    def test_continuous_distribution_rejected(self, query):
        # a size below 1 is refused for its kind too, not for its size
        for amount in (Fraction(5, 2), Fraction(1, 2)):
            d = ContinuousDistribution(GridSpec(3, 3), {(0, 0): amount})
            with pytest.raises(GridError, match="^reachability needs an integer distribution$"):
                query(d)

    def test_boundary_vertices(self):
        d = Distribution(GridSpec(7, 7), {(3, 3): 2})
        b = boundary_vertices(d)
        # the four arm vertices touch unreachable ground; the center does not
        assert b == coverage(d).reachable - {Vertex(3, 3)}

    def test_boundary_empty_when_solvable(self):
        d = Distribution(GridSpec(2, 2), {(0, 1): 1, (1, 1): 2})
        assert boundary_vertices(d) == frozenset()

    def test_interaction_vertices(self):
        spec = GridSpec(9, 5)
        a = Distribution(spec, {(2, 2): 2})
        b = Distribution(spec, {(4, 2): 2})
        assert interaction_vertices(a, b) == frozenset({Vertex(3, 2)})
        far = Distribution(spec, {(7, 2): 2})
        assert interaction_vertices(a, far) == frozenset()

    def test_lonely_units(self):
        spec = GridSpec(9, 5)
        d = Distribution(spec, {(1, 2): 2, (7, 2): 2})
        assert lonely_units(d) == frozenset({Vertex(1, 2), Vertex(7, 2)})
        d2 = Distribution(spec, {(2, 2): 2, (4, 2): 2})
        assert lonely_units(d2) == frozenset()

    def test_marginal_covering_ratio(self):
        spec = GridSpec(7, 7)
        base = Distribution(spec, {(3, 3): 2})
        ext = base.with_pebbles((3, 4), 2)
        # coverage goes 5 -> 8, adding 2 pebbles
        assert marginal_covering_ratio(base, ext) == Fraction(3, 2)
        with pytest.raises(GridError):
            marginal_covering_ratio(ext, base)
        with pytest.raises(GridError):
            marginal_covering_ratio(base, base)

    @pytest.mark.parametrize(
        "run, fields, message",
        [
            pytest.param(
                lambda: coverage(
                    Distribution(GridSpec(4, 4), {(0, 0): 3, (0, 2): 3, (2, 0): 3}), node_cap=1
                ),
                ("cluster coverage", 1, Vertex(1, 1), None, None),
                "search budget of 1 states exceeded for target (1, 1) during cluster coverage",
                id="cluster-coverage",
            ),
            pytest.param(
                # the cluster coverage fits the cap, so the k = 3 query overflows
                lambda: can_move_k(
                    Distribution(GridSpec(5, 5), {(0, 4): 2, (2, 3): 5}), (1, 3), 3, node_cap=5
                ),
                ("query", 5, Vertex(1, 3), None, None),
                "search budget of 5 states exceeded for target (1, 3) during query",
                id="query",
            ),
            pytest.param(
                # TestPackedSearch.test_deep_pile_overflows_depth
                lambda: can_move_k(
                    Distribution(GridSpec(3, 1), {(0, 0): 2001, (2, 0): 1}), (1, 0), 1001
                ),
                ("query", DEFAULT_NODE_CAP, Vertex(1, 0), None, None),
                "search depth exceeded Python's recursion limit for target (1, 0) during query",
                id="query-depth",
            ),
            pytest.param(
                lambda: optimal_pebbling_number(GridSpec(6, 2), node_cap=1),
                ("optimal search", 1, None, 6, 6),
                "optimal search on 6x2 plane stopped at size 6: the solver memo reached the"
                " node cap of 1 entries; known bounds: 6 <= pi_opt",
                id="optimal-memo",
            ),
            pytest.param(
                lambda: optimal_pebbling_number(GridSpec(5, 5)),
                ("optimal search", DEFAULT_NODE_CAP, None, None, 6),
                "optimal search not supported on 5x5 plane; known bounds: 6 <= pi_opt",
                id="optimal-vertex-cap",
            ),
        ],
    )
    def test_budget_exceeded(self, run, fields, message):
        """Every search that runs out raises the one error the package
        exports, and its stage says which of target, size and lower it sets."""
        with pytest.raises(pebblekit.BudgetExceeded) as info:
            run()
        e = info.value
        assert (e.stage, e.node_cap, e.target, e.size, e.lower) == fields
        assert str(e) == message

    def test_interaction_engine_merges_clusters(self):
        # (1,1) needs one pebble from each pile pooled at (1,0): neither
        # pile reaches it alone
        spec = GridSpec(3, 2)
        d = Distribution(spec, {(0, 0): 3, (2, 0): 3})
        rep = coverage(d)
        assert Vertex(1, 1) in rep.reachable
        for counts in ({(0, 0): 3}, {(2, 0): 3}):
            assert Vertex(1, 1) not in coverage(Distribution(spec, counts)).reachable


class TestClusterOrbits:
    @pytest.mark.parametrize(
        "d, expected",
        [
            # the row reflection only: the piles sit on the middle row, off centre
            (cascade5(False), {IDENTITY, Symmetry((1, 0), (-1, 6), False)}),
            (cascade5(True), {IDENTITY, Symmetry((1, 0), (-1, 6), False)}),
            # the test_budget_exceeded instance: the axis swap only
            (
                Distribution(GridSpec(4, 4), {(0, 0): 3, (0, 2): 3, (2, 0): 3}),
                {IDENTITY, Symmetry((1, 0), (1, 0), True)},
            ),
            (Distribution(GridSpec(5, 4), {(0, 0): 3, (1, 0): 1, (3, 2): 2}), {IDENTITY}),
        ],
        ids=["cascade5-base", "cascade5-plus", "budget-instance", "asymmetric"],
    )
    def test_stabiliser(self, d, expected):
        got = d.grid.index.stabiliser(d.counts)
        assert len(got) == len(expected) and set(got) == expected

    def test_stabiliser_matches_brute_force(self):
        """diag7 on the 14x14 torus: the stabiliser has as many elements as
        there are permutations from the grid's symmetries that keep its count
        vector, and each of them keeps every pile's count."""
        d = constructions.gen_diag7(GridSpec(14, 14, TORUS))
        index = d.grid.index
        vec = [d.get(v) for v in d.grid.vertices()]
        fixed = [p for p in index.permutations() if all(vec[j] == c for j, c in zip(p, vec))]
        got = index.stabiliser(d.counts)
        assert len(got) == len(set(got)) == len(fixed) == 28
        for g in got:
            assert all(d.get(index.image(g, v)) == c for v, c in d.items())

    @pytest.mark.parametrize(
        "d",
        [cascade5(False), cascade5(True), constructions.gen_diag7(GridSpec(14, 14, TORUS))],
        ids=["cascade5-base", "cascade5-plus", "diag7-14-torus"],
    )
    def test_cluster_coverage_matches_per_target_walk(self, d):
        """Each cluster's coverage, decided once per orbit of its stabiliser,
        equals its region vertices accepted one by one."""
        engine = _Engine(d)
        clusters = engine._clusters
        assert any(len(counts) > 1 for counts, _ in clusters)
        for counts, cov in clusters:
            assert cov == per_target_coverage(engine, counts), counts

    @pytest.mark.parametrize("plus, queries", [(False, 38), (True, 47)], ids=["base", "plus"])
    def test_walk_covers_the_lemma_region_in_order(self, monkeypatch, plus, queries):
        """The coverage of cascade_ones k=5 on 15x7 queries only targets
        within T.bit_length() - 1 of a pile of their cluster, T its pebbles
        (the region lemma), each cluster's in (distance to the nearest
        pile, vertex) order."""
        walks: dict[frozenset, list] = {}
        query = _Engine._cluster_can_k

        def spy(engine, counts, t, k):
            walks.setdefault(frozenset(counts.items()), []).append(t)
            return query(engine, counts, t, k)

        monkeypatch.setattr(_Engine, "_cluster_can_k", spy)
        d = cascade5(plus)
        coverage(d)
        index = d.grid.index
        for key, targets in walks.items():
            counts = dict(key)
            radius = sum(counts.values()).bit_length() - 1
            order = [(min(index.distances(t, counts).values()), t) for t in targets]
            assert all(r <= radius for r, _ in order), counts
            assert order == sorted(set(order)), counts
        assert sum(map(len, walks.values())) == queries

    @pytest.mark.parametrize(
        "d, walks",
        [
            (cascade5(False), 1),
            (cascade5(True), 1),
            (constructions.gen_diag7(GridSpec(14, 14, TORUS)), 2),
            (constructions.gen_diag7(GridSpec(28, 28, TORUS)), 4),
            (constructions.gen_diag7(GridSpec(21, 21)), 5),
        ],
        ids=["cascade5-base", "cascade5-plus", "diag7-14-torus", "diag7-28-torus", "diag7-21-plane"],
    )
    def test_clusters_walk_once_per_joined_group(self, monkeypatch, d, walks):
        """Each round of the clustering walks the coverage of each group of
        two or more clusters it joins, and nothing else."""
        calls = []
        walk = _Engine._cluster_coverage

        def spy(engine, counts):
            calls.append(counts)
            return walk(engine, counts)

        monkeypatch.setattr(_Engine, "_cluster_coverage", spy)
        _Engine(d)
        assert len(calls) == walks


@pytest.fixture
def checked_runs(monkeypatch) -> list[tuple[int, int]]:
    """Runs a ReferenceSearch next to every packed _Search, the DFS of every
    engine stage, asserts that both give the same answer, node count and
    table size, and records (nodes, table size) in the list returned."""
    runs = []
    run = _Search.run

    def checked(search, counts):
        ref = ReferenceSearch(search.grid, search.t, search.k)
        found = run(search, counts)
        assert found == ref.run(counts), (counts, tuple(search.t), search.k)
        assert (search.nodes, len(search.failed)) == (ref.nodes, len(ref.failed))
        runs.append((search.nodes, len(search.failed)))
        return found

    monkeypatch.setattr(_Search, "run", checked)
    return runs


def picture(rows: list[str]) -> frozenset[Vertex]:
    """The vertices marked # in rows, row 0 first."""
    return frozenset(Vertex(c, r) for r, line in enumerate(rows) for c, ch in enumerate(line) if ch == "#")


class TestPackedSearch:
    @pytest.mark.parametrize(
        "plus, nodes, peak, reachable",
        [
            (
                False,
                858,
                300,
                [
                    "...............",
                    "...............",
                    "..#########....",
                    ".###########...",
                    "..#########....",
                    "...............",
                    "...............",
                ],
            ),
            (
                True,
                3696,
                2478,
                [
                    "...............",
                    "..#.#.#.#.#....",
                    ".###########...",
                    "#############..",
                    ".###########...",
                    "..#.#.#.#.#....",
                    "...............",
                ],
            ),
        ],
        ids=["cascade5-base", "cascade5-plus"],
    )
    def test_cascade5_matches_reference(self, plus, nodes, peak, reachable, checked_runs):
        """Every DFS of the coverage of cascade_ones k=5 on 15x7 agrees with
        the dict search.  The clusters are built in rounds, and the first
        round joins every pile, so the totals are those of the walk of the
        final cluster alone."""
        assert _Engine(cascade5(plus)).reachable_set() == picture(reachable)
        assert sum(n for n, _ in checked_runs) == nodes
        assert max(p for _, p in checked_runs) == peak

    @pytest.mark.parametrize(
        "plus, cov, nodes, peak", [(False, 35, 7619, 2144), (True, 53, 25017, 17346)], ids=["base", "plus"]
    )
    def test_cascade6_node_totals(self, monkeypatch, plus, cov, nodes, peak):
        """A regression pin of the DFS work in the coverage of cascade_ones
        k=6 on 17x7: the nodes over every search, and the largest table."""
        runs = []
        run = _Search.run

        def spy(search, counts):
            try:
                return run(search, counts)
            finally:
                runs.append((search.nodes, len(search.failed)))

        monkeypatch.setattr(_Search, "run", spy)
        d, u = constructions.gen_cascade_ones(GridSpec(17, 7), 6)
        assert coverage(d.combined(u) if plus else d).cov == cov
        assert sum(n for n, _ in runs) == nodes
        assert max(p for _, p in runs) == peak

    def test_wide_counts_refuted(self, checked_runs):
        """257 pebbles beside t and 1 on its other side, k = 129: the weight
        at t is exactly 129, so only moves onto t keep it, and each leaves
        the pile beside t odd; its last pebble never moves, so at most 128
        reach t.  The search holds T = 258 pebbles, so each id gets a field
        of 9 bits."""
        spec = GridSpec(3, 1)
        d = Distribution(spec, {(0, 0): 257, (2, 0): 1})
        t = Vertex(1, 0)
        assert naive_max_at(d, t) == 128
        engine = _Engine(d)
        assert engine.can_move_k(t, 128)  # the single pile: 257 >> 1
        assert checked_runs == []
        assert not engine.can_move_k(t, 129)
        assert checked_runs == [(129, 129)]  # greedy gives 128, so the DFS decides
        search = _Search(spec, t, 129, 10**6)
        assert not search.run(d.counts)
        assert (search.shift, search.mask) == ([0, 9, 18], (1 << 9) - 1)
        assert (search.nodes, len(search.failed)) == (129, 129)

    @pytest.mark.parametrize("m", [4, 8])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize(
        "spec, t, singles",
        [
            (GridSpec(3, 1), Vertex(1, 0), ()),
            (GridSpec(3, 1), Vertex(1, 0), (Vertex(2, 0),)),
            (GridSpec(2, 2), Vertex(1, 1), ()),
            (GridSpec(2, 2), Vertex(1, 1), (Vertex(1, 0), Vertex(0, 1))),
        ],
        ids=["path", "path+1", "square", "square+2"],
    )
    def test_field_boundaries(self, spec, t, singles, m, extra, checked_runs):
        """One pile of 2^m - 1, 2^m or 2^m + 1 pebbles at (0, 0), alone or
        with singles: alone, 2^m - 1 fills its field of m bits and 2^m
        needs m + 1, so a field one bit short would carry into its
        neighbour.  The dict search agrees on every answer, node count and
        table size, at k on both sides of what the pile can deliver."""
        c = (1 << m) + extra
        counts = {Vertex(0, 0): c, **{v: 1 for v in singles}}
        total = c + len(singles)
        for k in sorted({c >> 2, (c >> 2) + 1, c >> 1, (c >> 1) + 1, (total + 1) >> 1}):
            search = _Search(spec, t, k, 10**6)
            search.run(counts)
            assert search.mask == (1 << total.bit_length()) - 1
        assert len(checked_runs) >= 4
        assert any(nodes for nodes, _ in checked_runs)

    def test_wide_counts_reached(self, checked_runs):
        """Two pebbles reach the far corner t of a 2x2 grid from the piles
        2, 1 and 2 on its other corners: (1,0)->(1,1), (0,0)->(0,1), then
        (0,1)->(1,1).  Greedy sends (0,0)'s pebble to (1,0) and delivers 1.
        With 256 more pebbles idle on t, only the DFS finds k = 258."""
        spec = GridSpec(2, 2)
        counts = {(0, 0): 2, (0, 1): 1, (1, 0): 2}
        t = Vertex(1, 1)
        assert naive_max_at(Distribution(spec, counts), t) == 2
        d = Distribution(spec, {**counts, t: 256})
        engine = _Engine(d)
        assert engine.can_move_k(t, 258)
        assert len(checked_runs) == 1
        assert not engine.can_move_k(t, 259)  # the weight at t is 258
        assert len(checked_runs) == 1

    def test_deep_pile_overflows_depth(self):
        """2001 pebbles beside t and 1 on its other side, k = 1001: by the
        parity argument of test_wide_counts_refuted at most 1000 reach t,
        but the refuting DFS would go about 1000 moves deep, past Python's
        recursion limit.  The search reports that as a BudgetExceeded naming
        the depth, well within its node cap."""
        spec = GridSpec(3, 1)
        t = Vertex(1, 0)
        search = _Search(spec, t, 1001, 10**6)
        with pytest.raises(BudgetExceeded, match="^search depth exceeded") as info:
            search.run({Vertex(0, 0): 2001, Vertex(2, 0): 1})
        assert (info.value.stage, info.value.target, info.value.node_cap) == ("query", t, 10**6)
        assert search.nodes < search.node_cap
