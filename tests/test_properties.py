import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pebblekit.grid import (
    ContinuousDistribution,
    Distribution,
    GridSpec,
    PLANE,
    TORUS,
    Vertex,
    parse_distribution,
    serialize_distribution,
)
from pebblekit.reach import (
    StateSolver,
    _Engine,
    _Search,
    apply_move,
    can_move_k,
    coverage,
    lonely_units,
)
from pebblekit.weights import (
    _infinite_weight,
    _kernel,
    ceiling_infinite,
    covering_ratio_ceiling,
    dyadic_rows,
    excess,
    fractional_solvable,
    grid_weights,
    infinite_excess_region,
    marginal_covering_ratio_ceiling,
    weight,
    weight_report,
)
import pebblekit.weights as weights_module

from conftest import _naive_states, naive_reachable, naive_weight, oracle_distance, reference_clusters


def grid_specs(max_side=5):
    return st.builds(
        GridSpec,
        st.integers(1, max_side),
        st.integers(1, max_side),
        st.sampled_from([PLANE, TORUS]),
    )


@st.composite
def distributions(draw, max_side=4, max_pebbles=6, min_pebbles=1, specs=None):
    spec = draw(grid_specs(max_side) if specs is None else specs)
    verts = list(spec.vertices())
    n = draw(st.integers(min_pebbles, max_pebbles))
    counts: dict = {}
    for _ in range(n):
        v = draw(st.sampled_from(verts))
        counts[v] = counts.get(v, 0) + 1
    return Distribution(spec, counts)


@st.composite
def continuous_distributions(draw, max_side=4):
    spec = draw(grid_specs(max_side))
    verts = list(spec.vertices())
    n = draw(st.integers(1, 5))
    counts: dict = {}
    for _ in range(n):
        v = draw(st.sampled_from(verts))
        q = Fraction(draw(st.integers(1, 16)), draw(st.integers(1, 16)))
        counts[v] = counts.get(v, Fraction(0)) + q
    return ContinuousDistribution(spec, counts)


class TestWeightProperties:
    @given(distributions(), distributions())
    @settings(max_examples=60, deadline=None)
    def test_weight_additive_in_distribution(self, a, b):
        if a.grid != b.grid:
            return
        c = a.combined(b)
        for u in a.grid.vertices():
            assert weight(c, u) == weight(a, u) + weight(b, u)

    @given(distributions(), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_weight_scales_linearly(self, d, k):
        scaled = Distribution(d.grid, {v: k * c for v, c in d.items()})
        for u in d.grid.vertices():
            assert weight(scaled, u) == k * weight(d, u)

    @given(distributions())
    @settings(max_examples=60, deadline=None)
    def test_move_weight_monotone_at_target(self, d):
        """A move toward u never increases the weight gap at u: moving two
        pebbles one step closer keeps W(u) equal; any other move lowers it."""
        grid = d.grid
        for v, c in list(d.items()):
            if c < 2:
                continue
            for nb in grid.neighbors(v):
                moved = apply_move(d, v, nb)
                for u in grid.vertices():
                    before, after = weight(d, u), weight(moved, u)
                    if grid.distance(nb, u) < grid.distance(v, u):
                        assert after == before
                    else:
                        assert after < before

    @given(distributions())
    @settings(max_examples=40, deadline=None)
    def test_ceiling_bounds_ratio(self, d):
        rep = coverage(d)
        assert covering_ratio_ceiling(d) >= rep.ratio

    @given(continuous_distributions())
    @settings(max_examples=40, deadline=None)
    def test_weight_positive_on_support(self, d):
        for v in d.support:
            assert weight(d, v) >= d.get(v) > 0


def any_distributions():
    return st.one_of(distributions(), continuous_distributions())


def reference_infinite_ceiling(d) -> Fraction:
    """(9|D| - excess) / |D| with the excess summed over every vertex of the
    unbounded grid within a box of radius ceil(|D|) around the support,
    wider than the region the package sums over."""
    radius = math.ceil(d.size)
    box = {
        (v.col + dc, v.row + dr)
        for v in d.support
        for dc in range(-radius, radius + 1)
        for dr in range(-radius, radius + 1)
    }
    total_excess = sum((max(naive_weight(d.counts, u) - 1, 0) for u in box), Fraction(0))
    return (9 * d.size - total_excess) / d.size


@st.composite
def extensions(draw, base):
    """An integer distribution dominating base with at least one more pebble."""
    counts = {v: math.ceil(c) for v, c in base.items()}
    verts = list(base.grid.vertices())
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.sampled_from(verts))
        counts[v] = counts.get(v, 0) + 1
    return Distribution(base.grid, counts)


def kernel_distributions():
    """Integer or rational counts on grids of sides 1..5, both topologies."""
    return st.one_of(distributions(max_side=5), continuous_distributions(max_side=5))


ALL_GRIDS = [GridSpec(w, h, t) for t in (PLANE, TORUS) for w in range(1, 6) for h in range(1, 6)]


class TestWeightKernelAgainstReference:
    """The packed kernel behind every weight, against naive_weight, one
    Fraction per pile over conftest's own distances; weight and
    _infinite_weight are the kernel on one target, so they are checked
    here too, not used as references."""

    @pytest.mark.parametrize("spec", ALL_GRIDS, ids=str)
    def test_every_grid_shape(self, spec):
        """1 x n and n x 1 included: an integer pile at one corner, and
        rational piles at the far corner and the middle."""
        far, mid = (spec.width - 1, spec.height - 1), (spec.width // 2, spec.height // 2)
        counts = {far: Fraction(5, 3)}
        counts[mid] = counts.get(mid, 0) + Fraction(1, 7)
        for d in (Distribution(spec, {(0, 0): 3}), ContinuousDistribution(spec, counts)):
            expected = {u: naive_weight(d.counts, u, spec) for u in spec.vertices()}
            assert grid_weights(d) == expected == {u: weight(d, u) for u in spec.vertices()}

    @given(kernel_distributions(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_kernel_on_any_target_list(self, d, data):
        """Grid mode on the vertices shuffled and on a sample with repeats;
        infinite mode on points of Z^2 around and beyond the grid, negative
        coordinates included.  den is the lcm of the count denominators
        times 2^(Ec + Er), the largest axis distances from a target to a
        pile."""
        verts = list(d.grid.vertices())
        lcm = math.lcm(*(c.denominator for c in d.counts.values()))
        shuffled = data.draw(st.permutations(verts))
        sample = data.draw(st.lists(st.sampled_from(verts), max_size=12))
        points = data.draw(st.lists(st.tuples(st.integers(-7, 11), st.integers(-7, 11)), max_size=12))
        for targets, spec in ((shuffled, d.grid), (sample, d.grid), (points, None)):
            den, nums = _kernel(d.counts, targets, spec)
            assert [Fraction(n, den) for n in nums] == [naive_weight(d.counts, u, spec) for u in targets]

            def dist(u, v):  # oracle_distance, or Manhattan on Z^2 when spec is None
                return abs(u[0] - v[0]) + abs(u[1] - v[1]) if spec is None else oracle_distance(spec, u, v)

            ec = max((dist((u[0], 0), (v[0], 0)) for u in targets for v in d.counts), default=0)
            er = max((dist((0, u[1]), (0, v[1])) for u in targets for v in d.counts), default=0)
            assert den == lcm << (ec + er)

    @given(kernel_distributions())
    @settings(max_examples=60, deadline=None)
    def test_weight_report_field_by_field(self, d):
        rep = weight_report(d)
        verts = list(d.grid.vertices())
        naive = {u: naive_weight(d.counts, u, d.grid) for u in verts}
        assert rep.weights == naive
        assert rep.excess == {u: max(w - 1, 0) for u, w in naive.items()} == {
            u: excess(d, u) for u in verts
        }
        assert rep.total_weight == sum(rep.weights.values())
        assert rep.total_excess == sum(rep.excess.values())
        assert rep.ceiling == sum((min(w, 1) for w in naive.values()), Fraction(0)) / d.size
        assert rep.ceiling == covering_ratio_ceiling(d)

    @given(kernel_distributions())
    @settings(max_examples=60, deadline=None)
    def test_infinite_ceiling_is_region_sum(self, d):
        region = infinite_excess_region(d)
        naive = {u: naive_weight(d.counts, u) for u in region}
        assert naive == {u: _infinite_weight(d.counts, u) for u in region}
        total = sum((max(w - 1, 0) for w in naive.values()), Fraction(0))
        assert ceiling_infinite(d) == (9 * d.size - total) / d.size

    @pytest.mark.parametrize("spec", ALL_GRIDS, ids=str)
    def test_dyadic_rows_are_shifted_distances(self, spec):
        """rows[t][i] is the one shift 2^(D - d(t, i)), D the largest distance."""
        verts = spec.index.vertices
        top = max(oracle_distance(spec, t, v) for t in verts for v in verts)
        expected = [tuple(1 << (top - oracle_distance(spec, t, v)) for v in verts) for t in verts]
        assert dyadic_rows(spec) == (1 << top, expected)

    def test_empty_and_single_vertex_edges(self):
        """The empty-ceiling errors are pinned in test_weights."""
        assert fractional_solvable(Distribution(GridSpec(3, 3), {})) is False
        assert fractional_solvable(ContinuousDistribution(GridSpec(2, 1, TORUS), {})) is False
        single = Distribution(GridSpec(1, 1), {(0, 0): 1})
        assert ceiling_infinite(single) == 9
        assert weight_report(single).weights == {(0, 0): 1}

    def test_far_apart_piles_weigh_only_the_region(self, monkeypatch):
        """Infinite mode hands the kernel the region's vertices and no
        others, however far apart the piles are."""
        d = Distribution(GridSpec(400, 400), {(0, 0): 1, (399, 399): 1, (0, 399): 2})
        seen = []
        kernel = weights_module._kernel

        def counting(counts, targets, spec=None):
            seen.append(len(targets))
            return kernel(counts, targets, spec)

        monkeypatch.setattr(weights_module, "_kernel", counting)
        ceiling_infinite(d)
        assert seen == [len(infinite_excess_region(d))] == [3 * 13]

    @given(any_distributions())
    @settings(max_examples=60, deadline=None)
    def test_weight_is_dyadic_sum(self, d):
        for u in d.grid.vertices():
            assert weight(d, u) == naive_weight(d.counts, u, d.grid)

    @given(kernel_distributions())
    @settings(max_examples=40, deadline=None)
    def test_fractional_solvable_is_every_weight_at_least_one(self, d):
        """On d, on d scaled so that its lightest vertex has weight exactly 1
        and on that scaled just below 1."""
        verts = list(d.grid.vertices())
        up = 1 / min(naive_weight(d.counts, u, d.grid) for u in verts)
        for q in (1, up, up * Fraction(1023, 1024)):
            dq = ContinuousDistribution(d.grid, {v: c * q for v, c in d.items()})
            assert fractional_solvable(dq) == all(
                naive_weight(dq.counts, u, d.grid) >= 1 for u in verts
            )

    @given(any_distributions())
    @settings(max_examples=40, deadline=None)
    def test_infinite_ceiling_matches_wider_region(self, d):
        assert ceiling_infinite(d) == reference_infinite_ceiling(d)

    @given(any_distributions(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_marginal_ceiling_is_difference_of_ceilings(self, d, data):
        """In both modes, continuous bases included: the public ceiling and
        the marginal ceiling reach the same numerator."""
        dplus = data.draw(extensions(d))
        added = dplus.size - d.size
        for infinite, ceiling in ((False, covering_ratio_ceiling), (True, ceiling_infinite)):
            expected = (ceiling(dplus) * dplus.size - ceiling(d) * d.size) / added
            assert marginal_covering_ratio_ceiling(d, dplus, infinite=infinite) == expected


class TestEngineProperties:
    @given(distributions(max_side=3, max_pebbles=5))
    @settings(max_examples=50, deadline=None)
    def test_engine_matches_naive(self, d):
        assert coverage(d).reachable == naive_reachable(d)

    @given(distributions(max_pebbles=12))
    @settings(max_examples=60, deadline=None)
    def test_search_matches_naive(self, d):
        """The DFS alone, without the single-pile, weight, greedy and
        restricted stages that settle most small queries, answers every
        (t, k <= 3) as the naive walk does: its dead-end and reversal rules
        keep every answer."""
        top = {}
        for state in _naive_states(d):
            for v, c in state.items():
                top[v] = max(top.get(v, 0), c)
        for t in d.grid.vertices():
            for k in (1, 2, 3):
                found = _Search(d.grid, t, k, 10**6).run(d.counts)
                assert found == (top.get(t, 0) >= k), (d.counts, tuple(t), k)

    @given(distributions(max_side=6, max_pebbles=12))
    @settings(max_examples=60, deadline=None)
    def test_search_live_set_is_weight_at_least_two(self, d):
        """The vertices _Search numbers besides t are exactly those u != t
        of naive start weight >= 2 (the dead-end lemma), although it weighs
        only the vertices near the piles.  k = |D| + 1 is above every
        weight, so run refutes each target before any DFS node."""
        verts = list(d.grid.vertices())
        live = {u for u in verts if naive_weight(d.counts, u, d.grid) >= 2}
        for t in verts:
            search = _Search(d.grid, t, d.size + 1, 10**6)
            assert not search.run(d.counts) and search.nodes == 0
            assert set(search.region) - {t} == live - {t}, (d.counts, tuple(t))

    @given(
        st.integers(1, 12).flatmap(
            lambda w: st.builds(
                GridSpec, st.just(w), st.integers(1, 12 // w), st.sampled_from([PLANE, TORUS])
            )
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_state_solver_matches_naive(self, spec, data):
        """StateSolver.reach, which makes no move onto a vertex of weight
        below 2 in the current state, equals the naive walk on random
        distributions of up to 8 pebbles on grids of at most 12 vertices:
        states the pi_opt search never hands it, as they are not lex-least
        or fail the weight test.  One solver answers all the draws on a
        grid, so the memo the earlier ones fill serves the later ones."""
        solver = StateSolver(spec)
        verts = spec.index.vertices
        for _ in range(data.draw(st.integers(1, 3))):
            d = data.draw(distributions(max_pebbles=8, specs=st.just(spec)))
            mask = solver.reach(tuple(d.get(v) for v in verts))
            reached = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            assert reached == naive_reachable(d), d.counts

    @given(distributions(), st.sampled_from(range(4)))
    @settings(max_examples=40, deadline=None)
    def test_coverage_monotone_under_extra_pebble(self, d, seed):
        verts = sorted(d.grid.vertices())
        v = verts[seed % len(verts)]
        bigger = d.with_pebbles(v, 1)
        assert coverage(bigger).reachable >= coverage(d).reachable


# grids of at most 4x4 or 5x3, both topologies
SYMMETRY_GRIDS = [
    GridSpec(w, h, topology)
    for topology in (PLANE, TORUS)
    for w in range(1, 6)
    for h in range(1, 6)
    if w * h <= 16
]


def transported(g, d: Distribution) -> Distribution:
    """g·d: the pebbles of d moved by the grid symmetry g."""
    return Distribution(d.grid, {d.grid.index.image(g, v): c for v, c in d.items()})


def symmetry_order(g, spec: GridSpec) -> int:
    """The least k >= 1 with g^k the identity."""
    verts = list(spec.vertices())
    k, images = 1, [spec.index.image(g, v) for v in verts]
    while images != verts:
        k, images = k + 1, [spec.index.image(g, v) for v in images]
    return k


@st.composite
def symmetric_distributions(draw, max_pebbles=6):
    """(g, d): a grid symmetry g other than the identity, of order at most
    max_pebbles, and a distribution d with g·d = d, the sum of g^i·d0 over
    the g-orbit of a small random d0, of size at most max_pebbles."""
    spec = draw(st.sampled_from([s for s in SYMMETRY_GRIDS if s.size > 1]))
    syms = [g for g in spec.index.symmetries() if 1 < symmetry_order(g, spec) <= max_pebbles]
    g = draw(st.sampled_from(syms))
    verts = list(spec.vertices())
    counts: dict = {}
    for _ in range(draw(st.integers(1, max_pebbles // symmetry_order(g, spec)))):
        v = draw(st.sampled_from(verts))
        counts[v] = counts.get(v, 0) + 1
    d0 = Distribution(spec, counts)
    total, d = d0, transported(g, d0)
    while d != d0:
        total, d = total.combined(d), transported(g, d)
    return g, total


class TestSymmetricInputs:
    @given(symmetric_distributions(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_engine_matches_naive_on_symmetric_input(self, gd, data):
        """On a distribution that a symmetry g keeps, the orbit walk of the
        cluster coverage still gives the oracle's reachable set, and moving
        the distribution by any symmetry h moves its reachable set."""
        g, d = gd
        reachable = coverage(d).reachable
        assert reachable == naive_reachable(d)
        h = data.draw(st.sampled_from(list(d.grid.index.symmetries())))
        image = d.grid.index.image
        assert coverage(transported(h, d)).reachable == {image(h, v) for v in reachable}
        assert {image(g, v) for v in reachable} == reachable


class TestClusterProperties:
    @given(distributions(specs=st.sampled_from(SYMMETRY_GRIDS)))
    @settings(max_examples=80, deadline=None)
    def test_clusters_match_pair_at_a_time_reference(self, d):
        """Joining whole groups per round reaches the clusters of the
        pair-at-a-time fixed point, each with the oracle's coverage, and a
        pile is a cluster of its own iff it is a lonely unit."""
        got = {frozenset(counts): cov for counts, cov in _Engine(d)._clusters}
        expected = {frozenset(counts): cov for counts, cov in reference_clusters(d)}
        assert set(got) == set(expected)
        for piles, cov in got.items():
            assert cov == expected[piles], piles
        assert {v for piles in got if len(piles) == 1 for v in piles} == lonely_units(d)


@st.composite
def piles_and_singles(draw):
    """Up to two piles of 2-4 pebbles and one to five single pebbles on a
    grid of at most 4x4 or 5x3: many vertices of start weight just below
    or just above 2."""
    spec = draw(st.sampled_from(SYMMETRY_GRIDS))
    verts = list(spec.vertices())
    counts: dict = {}
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(verts))
        counts[v] = counts.get(v, 0) + draw(st.integers(2, 4))
    for v in draw(st.lists(st.sampled_from(verts), min_size=1, max_size=5, unique=True)):
        counts[v] = counts.get(v, 0) + 1
    return Distribution(spec, counts)


class TestDeadEnds:
    @given(piles_and_singles())
    @settings(max_examples=100, deadline=None)
    def test_dead_ends_never_hold_two_and_queries_match_naive(self, d):
        """The dead-end lemma of the reach docstring: no state the naive
        walk reaches puts two pebbles on a vertex whose start weight,
        summed as Fractions, is below 2.  can_move_k, whose searches drop
        the moves onto such vertices, matches the walk for k = 1..3."""
        grid = d.grid
        dead = {
            u
            for u in grid.vertices()
            if sum(Fraction(c, 2 ** oracle_distance(grid, u, v)) for v, c in d.items()) < 2
        }
        most = dict.fromkeys(grid.vertices(), 0)
        for state in _naive_states(d):
            for v, c in state.items():
                most[v] = max(most[v], c)
        assert all(most[u] <= 1 for u in dead)
        for t in grid.vertices():
            for k in (1, 2, 3):
                assert can_move_k(d, t, k) == (most[t] >= k), (tuple(t), k)


class TestSerializationProperties:
    @given(distributions(max_side=5, max_pebbles=8))
    @settings(max_examples=80, deadline=None)
    def test_integer_round_trip(self, d):
        assert parse_distribution(serialize_distribution(d)) == d

    @given(continuous_distributions())
    @settings(max_examples=60, deadline=None)
    def test_continuous_round_trip(self, d):
        assert parse_distribution(serialize_distribution(d)) == d


class TestDistanceProperties:
    @given(grid_specs(5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, spec, data):
        verts = list(spec.vertices())
        u = data.draw(st.sampled_from(verts))
        v = data.draw(st.sampled_from(verts))
        w = data.draw(st.sampled_from(verts))
        assert spec.distance(u, v) == spec.distance(v, u)
        assert (spec.distance(u, v) == 0) == (u == v)
        assert spec.distance(u, w) <= spec.distance(u, v) + spec.distance(v, w)

    @given(grid_specs(4), st.data())
    @settings(max_examples=40, deadline=None)
    def test_neighbors_are_distance_one(self, spec, data):
        v = data.draw(st.sampled_from(list(spec.vertices())))
        for nb in spec.neighbors(v):
            assert spec.distance(v, nb) == 1
