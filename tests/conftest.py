"""Shared helpers: a naive full-state-space reachability oracle used to
cross-check the production engine on small instances, the grid adjacency
written out for it, the interaction clusters joined one pair at a time
with the oracle's coverages, a cluster's coverage decided one region
vertex at a time with no symmetry used, the engine's depth-first search over
{vertex: count} states, its dead ends weighed on their own, used to
cross-check the packed one, a reference simplex over Fraction used to
cross-check the integer one, a reference orbit enumerator with a
global seen set, used to cross-check the lex-least enumeration, Burnside's
orbit count with each permutation's cycles found afresh, used to
cross-check the count from cycle types found once, the orbit walk
with one list of live pairs read whole at every position, used to
cross-check the walk that reads only the pairs that wake there, and the
fractional optimal pebbling program solved by the simplex, written out
densely (one variable per vertex) and per axis (the path or cycle of one
side), used to cross-check the closed-form optimum, and the weight
W(u) summed one Fraction per pile, used to cross-check the weight kernel."""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations

from pebblekit.grid import TORUS, ContinuousDistribution, Distribution, GridSpec, Vertex
from pebblekit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, LpSolution, solve


def oracle_neighbors(grid: GridSpec, v) -> list[Vertex]:
    """The four-offset neighbour rule, independent of pebblekit's grid
    index: wrap each axis on a torus, clip at the border on a plane, and
    drop self-loops and duplicates (a torus side of length 1 or 2)."""
    out = []
    for dc, dr in ((0, -1), (-1, 0), (1, 0), (0, 1)):
        c, r = v[0] + dc, v[1] + dr
        if grid.topology == TORUS:
            c, r = c % grid.width, r % grid.height
        elif not (0 <= c < grid.width and 0 <= r < grid.height):
            continue
        u = Vertex(c, r)
        if u != v and u not in out:
            out.append(u)
    return out


def _naive_states(d: Distribution):
    """Breadth-first walk over the whole distribution states reachable from
    d by pebbling moves, d's own first; each state is a {vertex: count}
    dict."""
    start = frozenset(d.counts.items())
    seen = {start}
    queue = deque([start])
    while queue:
        state = dict(queue.popleft())
        yield state
        for v, c in list(state.items()):
            if c < 2:
                continue
            for u in oracle_neighbors(d.grid, v):
                nxt = dict(state)
                nxt[v] -= 2
                if nxt[v] == 0:
                    del nxt[v]
                nxt[u] = nxt.get(u, 0) + 1
                key = frozenset(nxt.items())
                if key not in seen:
                    seen.add(key)
                    queue.append(key)


def naive_reachable(d: Distribution) -> frozenset[Vertex]:
    """A vertex is reachable iff it holds a pebble in some reachable state."""
    return frozenset().union(*_naive_states(d))


def reference_clusters(d: Distribution) -> list[tuple[dict, frozenset[Vertex]]]:
    """The interaction clusters of d as (counts, coverage) pairs, by the
    pair-at-a-time fixed point: start with one cluster per pile, join the
    first pair of clusters whose coverages meet, and repeat until none
    do.  Each coverage is naive_reachable of the cluster's pebbles."""

    def cluster(counts: dict) -> tuple[dict, frozenset[Vertex]]:
        return counts, naive_reachable(Distribution(d.grid, counts))

    clusters = [cluster({v: c}) for v, c in d.items()]
    while True:
        pairs = combinations(range(len(clusters)), 2)
        pair = next((p for p in pairs if clusters[p[0]][1] & clusters[p[1]][1]), None)
        if pair is None:
            return clusters
        i, j = pair
        counts = {**clusters[i][0], **clusters[j][0]}
        del clusters[j], clusters[i]
        clusters.append(cluster(counts))


def per_target_coverage(engine, counts: dict) -> frozenset[Vertex]:
    """The coverage of one cluster of a reach._Engine, with every vertex of
    its region queried on its own by _cluster_can_k(counts, t, 1): the
    walk of _Engine._cluster_coverage without the orbits of its stabiliser.
    The region is one ring wider than the walk's, so the region lemma in
    the reach docstring is checked too."""
    index = engine.grid.index
    total = sum(counts.values())
    region = frozenset().union(*(index.ball(v, total.bit_length()) for v in counts))
    return frozenset(t for t in region if t in counts or engine._cluster_can_k(counts, t, 1))


class ReferenceSearch:
    """The depth-first search of reach._Search on {vertex: count} dicts,
    with Fraction weights, the four-offset neighbour rule and a
    transposition table of frozenset(state.items()) keys: the same moves in
    the same order, so the same answer, node count and table size.

    It drops the same moves onto dead ends: vertices other than t whose
    start weight, summed as Fractions over every grid vertex, is below 2.
    Their counts stay in the dict states.  Nor does it make the reverse of
    the move that entered a state, and it tests each child for a hit and
    in the table before it recurses, so a _dfs call is one node."""

    def __init__(self, grid: GridSpec, t: Vertex, k: int):
        self.grid, self.t, self.k = grid, t, k
        self.dist = {v: oracle_distance(grid, t, v) for v in grid.vertices()}
        self.nodes = 0
        self.failed: set[frozenset] = set()

    def run(self, counts: dict) -> bool:
        self.dead = {
            u for u in self.grid.vertices() if u != self.t and naive_weight(counts, u, self.grid) < 2
        }
        w = sum(Fraction(c, 2 ** self.dist[v]) for v, c in counts.items())
        if counts.get(self.t, 0) >= self.k:
            return True
        return w >= self.k and self._dfs(dict(counts), w, None)

    def _dfs(self, state: dict, w: Fraction, back) -> bool:
        """state is neither a hit nor refuted; back is the move (from, to)
        that undoes the one into state, None at the root."""
        self.nodes += 1
        dist = self.dist
        moves = []
        for v, c in state.items():
            if c < 2:
                continue
            for u in oracle_neighbors(self.grid, v):
                nw = w - Fraction(2, 2 ** dist[v]) + Fraction(1, 2 ** dist[u])
                if nw >= self.k and u not in self.dead and (v, u) != back:
                    # toward the target first, then larger piles, then (from, to)
                    moves.append((dist[u] >= dist[v], -c, v, u, nw))
        moves.sort()
        for _, _, v, u, nw in moves:
            nxt = dict(state)
            nxt[v] -= 2
            if nxt[v] == 0:
                del nxt[v]
            nxt[u] = nxt.get(u, 0) + 1
            if u == self.t and nxt[u] >= self.k:
                return True
            if frozenset(nxt.items()) not in self.failed and self._dfs(nxt, nw, (u, v)):
                return True
        self.failed.add(frozenset(state.items()))
        return False


def naive_max_at(d: Distribution, t: Vertex) -> int:
    """Largest pebble count achievable at t over all reachable states."""
    return max(state.get(t, 0) for state in _naive_states(d))


def reference_orbits(spec: GridSpec, s: int, perms):
    """Count vectors of total size s, one per symmetry orbit: the first
    member of each orbit met by the recursion.  Meeting it puts every image
    of its sorted (vertex id, count) tuple in a global seen set, so the
    later members of its orbit are recognised by lookup."""
    n = spec.size
    seen = set()

    def rec(idx: int, remaining: int, placed: list):
        if remaining == 0:
            key = tuple(placed)
            if key not in seen:
                seen.update(tuple(sorted((p[i], k) for i, k in key)) for p in perms)
                vec = [0] * n
                for i, k in placed:
                    vec[i] = k
                yield tuple(vec)
            return
        if idx == n:
            return
        # leave vertex idx empty, or put 1..remaining pebbles on it
        yield from rec(idx + 1, remaining, placed)
        for k in range(1, remaining + 1):
            placed.append((idx, k))
            yield from rec(idx + 1, remaining - k, placed)
            placed.pop()

    yield from rec(0, s, [])


def reference_advance(vec, idx: int, live: list):
    """The pairs-list prefix step of the orbit walk: every live pair is read
    at every position, and the survivors are copied into a new list."""
    kept = []
    for p, j in live:
        while j <= idx and p[j] <= idx:
            image, own = vec[p[j]], vec[j]
            if image < own:
                return None
            if image > own:
                break
            j += 1
        else:
            kept.append((p, j))
    return kept


def reference_walk(walk, s: int):
    """optimal._Walk.of_size with one list of live pairs per prefix, read
    whole by reference_advance at each position: the same cuts, tests and
    order, written as the walk was before its pairs were bucketed by wake
    position."""
    n, vec, pos = walk.n, [0] * walk.n, walk.pos
    lift, flags, lift2 = walk.lift, walk.flags, walk.lift2
    cols, best, near = walk.cols, walk.best, walk.near

    def rec(idx: int, remaining: int, live: list, partial: int, empty: tuple):
        if remaining == 0:
            if reference_advance(vec, n - 1, live) is not None:
                has = ((partial + lift2) & flags).__and__
                if all(map(has, empty)) and all(map(has, near[idx:])):
                    yield tuple(map(vec.__getitem__, pos))
            return
        if idx == n:
            return
        col, most = cols[idx], best[idx + 1]
        emptier = empty + (near[idx],) if near else ()
        for k in range(remaining + 1):
            weights = partial + k * col
            left = remaining - k
            bound = weights + left * most
            if (bound + lift) & flags != flags:
                continue
            decided = empty if k else emptier
            if left and decided and not all(map(((bound + lift2) & flags).__and__, decided)):
                continue
            vec[idx] = k
            kept = reference_advance(vec, idx, live)
            if kept is not None:
                yield from rec(idx + 1, left, kept, weights, decided)
        vec[idx] = 0

    return rec(0, s, [(p, 0) for p in walk.perms], 0, ())


def reference_orbit_count(perms, s: int) -> int:
    """Orbits of count vectors of total size s under the group perms, by
    Burnside's lemma, finding the cycles of each permutation afresh: a
    vector fixed by p is constant on each cycle, so a cycle of length L
    holding c pebbles per vertex adds c * L to the size."""
    total = 0
    for p in perms:
        fixed = [1] + [0] * s  # fixed[k]: vectors fixed by p of size k
        seen = set()
        for start in range(len(p)):
            if start in seen:
                continue
            length, v = 0, start
            while v not in seen:
                seen.add(v)
                v, length = p[v], length + 1
            for k in range(length, s + 1):
                fixed[k] += fixed[k - length]
        total += fixed[s]
    assert total % len(perms) == 0
    return total // len(perms)


class _FractionTableau:
    """Dense simplex tableau over Fraction, Bland's rule; counts pivots."""

    def __init__(self, rows, rhs, n_total):
        self.rows = rows
        self.rhs = rhs
        self.n = n_total
        self.basis = [None] * len(rows)
        self.pivots = 0

    def pivot(self, r, col):
        self.pivots += 1
        row = self.rows[r]
        inv = 1 / row[col]
        self.rows[r] = [v * inv for v in row]
        self.rhs[r] *= inv
        for i in range(len(self.rows)):
            if i == r:
                continue
            f = self.rows[i][col]
            if f:
                ri, rr = self.rows[i], self.rows[r]
                self.rows[i] = [a - f * b for a, b in zip(ri, rr)]
                self.rhs[i] -= f * self.rhs[r]
        self.basis[r] = col

    def solve_phase(self, cost, allowed):
        """Minimize cost over allowed columns from the current basis.
        Returns ('optimal', reduced_costs) or ('unbounded', entering_col)."""
        m = len(self.rows)
        while True:
            # reduced costs: c_j - c_B . column_j, rebuilt every iteration
            cb = [cost[self.basis[i]] for i in range(m)]
            reduced = list(cost)
            for i in range(m):
                if cb[i]:
                    ci, row = cb[i], self.rows[i]
                    reduced = [a - ci * b for a, b in zip(reduced, row)]
            entering = None
            for j in range(self.n):
                if allowed[j] and reduced[j] < 0:
                    entering = j
                    break
            if entering is None:
                return OPTIMAL, reduced
            leaving = None
            best = None
            for i in range(m):
                a = self.rows[i][entering]
                if a > 0:
                    ratio = self.rhs[i] / a
                    if best is None or ratio < best or (ratio == best and self.basis[i] < self.basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving is None:
                return UNBOUNDED, entering
            self.pivot(leaving, entering)


def reference_lp_solve(p: LpProblem) -> tuple[LpSolution, int]:
    """The two-phase Bland simplex of pebblekit.lp written over Fraction
    entries: the solution and the number of pivots it took."""
    m = len(p.constraints)
    n = len(p.objective)
    n_total = n + m + m
    rows = []
    rhs = []
    flipped = []
    for i in range(m):
        row = list(p.constraints[i]) + [Fraction(0)] * (2 * m)
        row[n + i] = Fraction(-1)
        b = p.bounds[i]
        flip = b < 0
        if flip:
            row = [-v for v in row]
            b = -b
        row[n + m + i] = Fraction(1)
        rows.append(row)
        rhs.append(b)
        flipped.append(flip)
    tab = _FractionTableau(rows, rhs, n_total)
    for i in range(m):
        tab.basis[i] = n + m + i

    phase1_cost = [Fraction(0)] * (n + m) + [Fraction(1)] * m
    allowed = [True] * n_total
    status, _ = tab.solve_phase(phase1_cost, allowed)
    assert status == OPTIMAL
    infeas = sum((tab.rhs[i] for i in range(m) if tab.basis[i] >= n + m), Fraction(0))
    if infeas > 0:
        cb = [phase1_cost[tab.basis[i]] for i in range(m)]
        y = []
        for i in range(m):
            yi = sum((cb[r] * tab.rows[r][n + m + i] for r in range(m)), Fraction(0))
            y.append(-yi if flipped[i] else yi)
        return LpSolution(status=INFEASIBLE, ray=tuple(y)), tab.pivots

    for i in range(m):
        if tab.basis[i] >= n + m:
            for j in range(n + m):
                if tab.rows[i][j] != 0:
                    tab.pivot(i, j)
                    break
    for j in range(n + m, n_total):
        allowed[j] = False

    phase2_cost = list(p.objective) + [Fraction(0)] * (2 * m)
    status, reduced = tab.solve_phase(phase2_cost, allowed)
    if status == UNBOUNDED:
        entering = reduced
        ray = [Fraction(0)] * n
        if entering < n:
            ray[entering] = Fraction(1)
        for i in range(m):
            if tab.basis[i] < n:
                ray[tab.basis[i]] = -tab.rows[i][entering]
        return LpSolution(status=UNBOUNDED, ray=tuple(ray)), tab.pivots

    primal = [Fraction(0)] * n
    for i in range(m):
        if tab.basis[i] < n:
            primal[tab.basis[i]] = tab.rhs[i]
    dual = []
    for i in range(m):
        yi = -reduced[n + m + i]
        dual.append(-yi if flipped[i] else yi)
    value = sum((c * x for c, x in zip(p.objective, primal)), Fraction(0))
    solution = LpSolution(status=OPTIMAL, primal=tuple(primal), dual=tuple(dual), objective_value=value)
    return solution, tab.pivots


def oracle_distance(grid: GridSpec, u, v) -> int:
    """Manhattan distance, each axis wrapping on a torus, independent of
    pebblekit's grid index."""
    out = 0
    for a, b, n in ((u[0], v[0], grid.width), (u[1], v[1], grid.height)):
        d = abs(a - b)
        out += min(d, n - d) if grid.topology == TORUS else d
    return out


def naive_weight(counts, u, grid: GridSpec | None = None) -> Fraction:
    """W(u) = sum_v counts[v] * 2^-d(u, v), one Fraction per pile, with d
    from oracle_distance on grid, or Manhattan distance on Z^2 when grid
    is None: the reference for pebblekit's weight kernel."""

    def dist(v) -> int:
        return abs(u[0] - v[0]) + abs(u[1] - v[1]) if grid is None else oracle_distance(grid, u, v)

    return sum((Fraction(c, 2 ** dist(v)) for v, c in counts.items()), Fraction(0))


def window_vertices(tcols, trows) -> list[tuple[int, int]]:
    """The vertices of the window tcols x trows in the order of the weight
    kernel's numerators: row by row, each row in the order of tcols."""
    return [(c, r) for r in trows for c in tcols]


def reference_fractional_problem(spec: GridSpec) -> LpProblem:
    """The fractional optimal pebbling program of the grid as one dense LP:
    a variable and a row per vertex, entries 2^-d(u, v), |V|^2 of them."""
    verts = list(spec.vertices())
    ones = (Fraction(1),) * len(verts)
    rows = tuple(
        tuple(Fraction(1, 1 << oracle_distance(spec, u, v)) for v in verts) for u in verts
    )
    return LpProblem(objective=ones, constraints=rows, bounds=ones)


def reference_fractional_optimum(spec: GridSpec) -> tuple[Fraction, ContinuousDistribution]:
    """(value, witness) of the dense program, solved by pebblekit.lp.solve."""
    sol = solve(reference_fractional_problem(spec))
    assert sol.status == OPTIMAL
    counts = {v: x for v, x in zip(spec.vertices(), sol.primal) if x}
    return sol.objective_value, ContinuousDistribution(spec, counts)


def reference_axis_optimum(n: int, topology: str) -> LpSolution:
    """The fractional program of one n-vertex axis, the path P_n on a plane
    and the cycle C_n on a torus, solved by pebblekit.lp.solve: the n x n
    matrix 2^-d, a row and a variable per position."""
    return solve(reference_fractional_problem(GridSpec(n, 1, topology)))
