"""Exact pebbling-move semantics, reachability, and coverage.

Reachability is decided in three layers:

* Interaction clustering.  Pebbles from two groups of units can only ever
  combine at a vertex both groups reach on their own, so the distribution
  splits into clusters whose standalone coverages are pairwise disjoint.
  They are built in rounds from one cluster per unit, whose coverage is a
  ball (stage 1 below).  A round joins each connected group of clusters
  whose coverages meet, then walks each new cluster's coverage; every join
  is forced, as coverage is monotone in the pebbles.  The rounds end at the
  finest partition with disjoint coverages: a target has at most one cluster.

* Orbits.  A cluster's coverage walks the region of the region lemma
  below in (distance to the nearest pile, vertex) order.  A grid symmetry
  g that maps each pile onto a pile of the same count maps move sequences
  to move sequences, so t is reachable iff g(t) is: the answer for the
  first target of an orbit of the cluster's stabiliser
  (GridIndex.stabiliser) is recorded for the whole orbit, and no orbit
  mate is queried.  An asymmetric cluster has a stabiliser of one element.

* Per-target stages.  Each (target, k) query is decided on its own, by
  the first of these stages that settles it:

  1. single pile: a pile of c pebbles at distance d has c >> d >= k;
  2. weight bound: a target weight sum(c * 2^-d) below k refutes it;
  3. greedy: moving the farthest splittable pile one step toward the
     target delivers k (a legal sequence);
  4. restricted DFS: the search below on the piles within radius 2, 3,
     then 5, each with a twentieth of the node cap; dropping pebbles only
     turns answers from true to false, so a hit is a certificate, and the
     search's weight test refutes a light sub-cluster before any node;
  5. full DFS: the search below on the whole cluster.

  The search is depth-first over distribution states with a
  transposition table.  A move never increases the target weight, and
  moves toward the target preserve it, so states whose weight drops
  below k are pruned without losing exactness.  The weight is kept as an
  integer numerator over 2^D, D the largest distance to the target, so a
  move updates it with two table reads.

  Region lemma: a pile set of T pebbles never puts a pebble on a vertex
  at distance r > T.bit_length() - 1 from every pile.  A move never raises
  the weight W(u) = sum(c * 2^-d(u, .)) at any vertex u (two pebbles at
  distance d leave, one arrives at distance >= d - 1), a vertex holding c
  pebbles has W >= c, and at such a vertex W <= T * 2^-r < 1.  This
  bounds the region a cluster's coverage walks.

  Dead-end lemma: a vertex u != t whose start weight W(u) is below 2 is a
  dead end.  As W(u) never rises and a pile of c has W >= c, u starts with
  0 or 1 pebbles and never holds two, so no move leaves it and a pebble
  moved onto it stays.  Delete a move onto u from a sequence that puts k
  pebbles on t: its source keeps two more pebbles, u one fewer, and no
  later move leaves u, so every later move stays legal and t, not u, ends
  with as many pebbles.  Deleting them one by one, some sequence that
  makes no move onto a dead end puts k pebbles on t whenever any does, so
  the search drops those moves and keeps every answer.  Then each dead end
  keeps its start count, and the search numbers only t and the live
  vertices, those of W >= 2: they lie within T.bit_length() - 2 of a pile,
  as W <= T * 2^-r.  A state is one int, a field of T.bit_length() bits an
  id, which no count overflows, and keys the transposition table itself.
  Pebbles on dead ends still count in the target weight.

  Reversal lemma: after x -> y and then y -> x the state is A - e_x - e_y
  <= A, A the state before the pair.  Extra pebbles keep every move legal,
  so the rest of a winning sequence wins from A: a winning sequence of
  least length makes no such pair, and by the dead-end lemma no move onto
  a dead end (W never rises, so a dead end of the start is one of every
  later state).  The search never makes the reverse b_Z of the move that
  entered a state Z; the root has none.

  The table stays sound.  Each move spends a pebble and a refuted state is
  never entered again, so a state is entered at most once.  Suppose the
  root R wins but the search refutes it: every state it entered is in the
  table.  Among those that win, take Z with the shortest winning sequence
  sigma.  If sigma starts with a move other than b_Z, Z tried that move,
  as sigma keeps the target weight >= k and makes no dead-end move; the
  child was no hit, so it is in the table, and it wins in |sigma| - 1
  moves.  If sigma starts with b_Z, then Z b_Z <= P, P the parent that
  entered Z, so P wins in |sigma| - 1 moves.  Both contradict the choice
  of Z.

The engine above serves coverage, can_move_k and large distributions,
whose state space is far beyond a whole-state search.  StateSolver is the
path for the exhaustive pi_opt search, which asks about many thousands of
distributions of a few pebbles on one small grid: it walks whole states,
not targets, and one memo of their reach sets serves every query.

Whole-state dead ends: call j dead in a state A when W_A(j) < 2.  Then
reach(A) is the support of A, the ball each pile of A covers alone, and
the reach sets of the successors of A by moves i -> j onto live j.  For t
in reach(A) outside the support, the dead-end lemma with A as the start
and t as the target gives a sequence that puts a pebble on t and makes no
move onto a dead end u != t.  Its first move i -> j lands on a live j,
and t is in the reach set of the successor it makes; or it lands on t
itself, so t is next to a pile of >= 2 and lies in that pile's ball.  So
StateSolver drops the moves onto dead ends.  The rule reads A alone, so a
memoised reach set is exact for its key whichever query stored it.  The
reversal lemma reads the state before A as well, and a memo entry made
under it would hold the reach set of A less what the skipped move gives,
so StateSolver does not use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import weights
from .grid import Distribution, GridError, GridSpec, Vertex

# Each DFS node adds at most one transposition-table entry, an int of
# T.bit_length() bits per live vertex and t: 77-86 bytes with its set slot
# at 24 and 36 of them on cascade_ones k=7 on 19x7 (tracemalloc), so a
# search that fills the default cap holds ~0.8 GB there, and a full
# StateSolver memo ~1.5 GB (~150 bytes an entry).
DEFAULT_NODE_CAP = 10**7

# Radii of the restricted DFS stages (stage 4 in the module docstring).
_RESTRICT_STAGES = (2, 3, 5)


class BudgetExceeded(RuntimeError):
    """A search ran out of its budget, node_cap.  stage names the search
    and the fields it sets:

    * "cluster coverage" (an interaction cluster's reachable set) and
      "query" (a k >= 2 can_move_k) set target: its DFS went over node_cap
      nodes, or over Python's recursion limit, one frame a move.
    * "optimal search" (optimal.optimal_pebbling_number) sets lower, the
      known bound on pi_opt, and size: at size the StateSolver memo reached
      node_cap entries (a StateSolver raises with neither set), or size is
      None and the grid is past optimal.MAX_SEARCH_VERTICES.

    The clusters are built in rounds, so the target named is one of the
    first cluster whose walk overflows: the first target of that walk,
    nearest first and one per orbit of the cluster's stabiliser, whose
    search overflows.  Reusing an answer for the rest of an orbit can make
    an overflow disappear (an orbit mate's search might have overflowed
    where the queried target's did not), never make one appear."""

    def __init__(self, message: str, node_cap: int, target=None, stage=None, size=None, lower=None):
        super().__init__(message)
        self.node_cap = node_cap
        self.target = target
        self.stage = stage
        self.size = size
        self.lower = lower


@dataclass(frozen=True)
class CoverageReport:
    """Reachable set, its size, the covering ratio, and boundary vertices."""

    reachable: frozenset[Vertex]
    cov: int
    ratio: Fraction
    boundary: frozenset[Vertex]


def apply_move(d: Distribution, frm, to) -> Distribution:
    """One pebbling move: remove two pebbles at frm, add one at to."""
    if d.grid.distance(frm, to) != 1:
        raise GridError(f"{tuple(frm)} and {tuple(to)} are not adjacent")
    if d.get(frm) < 2:
        raise GridError(f"need at least 2 pebbles at {tuple(frm)}, have {d.get(frm)}")
    return d.with_pebbles(frm, -2).with_pebbles(to, 1)


class _Search:
    """DFS over distribution states for one (target, k) query.

    run(counts) weighs the vertices within T.bit_length() - 2 of a pile in
    one weights._kernel call, numbers t and the live ones (the dead-end
    lemma of the module docstring) in sorted (col, row) order as region,
    and packs the state into one int, count i at bit shift[i]; it makes no
    move onto any other vertex, nor the reverse of the move just made (the
    reversal lemma), and failed holds the refuted states.  A move adds one
    precomputed delta to the state.  Moves are tried toward the target
    first, then from larger piles, then by (from, to) id, so ties break as
    on the vertices themselves and the node counts are those of a search
    over {vertex: count} states that drops the same moves."""

    def __init__(self, grid: GridSpec, t: Vertex, k: int, node_cap: int):
        self.grid = grid
        self.t = t
        self.k = k
        self.node_cap = node_cap
        self.nodes = 0
        self.failed: set[int] = set()

    def run(self, counts: dict) -> bool:
        index = self.grid.index
        total = sum(counts.values())
        # live vertices have start weight >= 2, so lie within T.bit_length() - 2 of a pile
        near = list(set().union(*(index.ball(v, total.bit_length() - 2) for v in counts)))
        den, nums = weights._kernel(counts, near, self.grid)
        live = [u for u, n in zip(near, nums) if n >= 2 * den]
        self.region = region = sorted({self.t, *live})
        ids = {v: i for i, v in enumerate(region)}
        dist = index.distances(self.t, {*region, *counts})
        top = max(dist.values())
        # a pebble on id i adds gain[i] to the target weight, kept times 2^top
        gain = [1 << (top - dist[v]) for v in region]
        self.need = self.k << top
        self.tid = ids[self.t]
        # one field of f bits an id: no count exceeds total < 2^f, so no field carries
        f = total.bit_length()
        self.shift, self.mask = [i * f for i in range(len(region))], (1 << f) - 1
        # steps[a][i]: (j, the weight change and the state delta of i -> j) for each
        # neighbour j of i in the region, toward the target for a = 0, else a = 1;
        # neighbors is sorted, so j ascends
        self.steps = [[[] for _ in region], [[] for _ in region]]
        for i, v in enumerate(region):
            for j in (ids[u] for u in index.neighbors[v] if u in ids):
                step = (j, gain[j] - 2 * gain[i], (1 << f * j) - (2 << f * i))
                self.steps[dist[region[j]] >= dist[v]][i].append(step)
        state = sum(c << f * ids[v] for v, c in counts.items() if v in ids)
        piles = [ids[v] for v, c in counts.items() if c >= 2 and v in ids]
        # pebbles on dead vertices never move, but count toward the target weight
        w = sum(c << (top - dist[v]) for v, c in counts.items())
        if counts.get(self.t, 0) >= self.k:
            return True
        try:
            return w >= self.need and self._dfs(state, piles, w, -1, -1)
        except RecursionError:
            raise self._overflow("depth exceeded Python's recursion limit") from None

    def _overflow(self, what: str) -> BudgetExceeded:
        """The error for this search running out of what.  Only a cluster's
        coverage searches for one pebble: can_move_k answers k = 1 from it."""
        stage = "cluster coverage" if self.k == 1 else "query"
        message = f"search {what} for target {tuple(self.t)} during {stage}"
        return BudgetExceeded(message, self.node_cap, self.t, stage)

    def _dfs(self, state: int, piles: list, w: int, bv: int, bu: int) -> bool:
        """Whether state, neither a hit nor refuted, puts k pebbles on t.
        piles lists every id holding >= 2 pebbles, and maybe bu, w is the
        target weight times 2^top, and bv -> bu undoes the move into state
        (-1 -> -1 at the root): it is not tried (the reversal lemma of the
        module docstring).  Each child is tested here, so a call is one node."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise self._overflow(f"budget of {self.node_cap} states exceeded")
        shift, mask, need, tid, k = self.shift, self.mask, self.need, self.tid, self.k
        failed = self.failed
        # moves toward the target first, then from larger piles, then by (from, to) id
        order, live = [], []
        for v in piles:
            c = state >> shift[v] & mask
            if c >= 2:
                order.append((-c, v))
                live.append(v)
        order.sort()
        for steps in self.steps:
            for _, v in order:
                for u, dw, delta in steps[v]:
                    nw = w + dw
                    if nw < need or u == bu and v == bv:
                        continue
                    child = state + delta
                    # a hit is never entered, so never refuted
                    if child in failed:
                        continue
                    cu = child >> shift[u] & mask
                    if u == tid and cu >= k:
                        return True
                    # u becomes a pile at 2; the child drops v if it fell below 2
                    if self._dfs(child, live + [u] if cu == 2 else live, nw, u, v):
                        return True
        failed.add(state)
        return False


def _greedy_deliverable(grid: GridSpec, counts: dict, t: Vertex) -> int:
    """Pebbles placed on t by repeatedly moving the farthest splittable pile
    one step toward t.  A legal sequence, hence a lower bound; cascades
    through intermediate accumulations are followed."""
    ct, rt = grid.index.cols[t[0]], grid.index.rows[t[1]]
    neighbors = grid.index.neighbors
    state = dict(counts)
    while True:
        piles = [(ct[v[0]] + rt[v[1]], v) for v, c in state.items() if c >= 2 and v != t]
        if not piles:
            return state.get(t, 0)
        d, best = max(piles)
        c = state[best]
        toward = [u for u in neighbors[best] if ct[u[0]] + rt[u[1]] < d]
        u = max(toward, key=lambda u: (state.get(u, 0), u))
        state[u] = state.get(u, 0) + c // 2
        state[best] = c % 2


class _Engine:
    """Reachability context for one distribution: interaction clusters,
    built when the engine is made, plus per-target searches within them."""

    def __init__(self, d: Distribution, node_cap: int = DEFAULT_NODE_CAP):
        if not isinstance(d, Distribution):
            raise GridError("reachability needs an integer distribution")
        self.d = d
        self.grid = d.grid
        self.node_cap = node_cap
        self._build_clusters()

    # -- clustering ------------------------------------------------------

    def _build_clusters(self):
        index = self.grid.index
        # a single pile of c pebbles delivers floor(c / 2^d) to distance d
        clusters = [({v: c}, index.ball(v, c.bit_length() - 1)) for v, c in self.d.counts.items()]
        while True:
            # each group of clusters whose coverages meet: (counts, their union, clusters joined)
            groups: list[tuple[dict, frozenset, int]] = []
            for counts, cov in clusters:
                n, apart = 1, []
                for group in groups:
                    if cov.isdisjoint(group[1]):
                        apart.append(group)
                    else:
                        # supports are disjoint, so the joined counts are the sum
                        counts, cov, n = {**counts, **group[0]}, cov | group[1], n + group[2]
                groups = apart + [(counts, cov, n)]
            if len(groups) == len(clusters):
                break
            clusters = [(c, cov if n == 1 else self._cluster_coverage(c)) for c, cov, n in groups]
        self._clusters = clusters

    def _cluster_coverage(self, counts: dict) -> frozenset[Vertex]:
        index = self.grid.index
        radius = sum(counts.values()).bit_length() - 1
        region = set().union(*(index.ball(v, radius) for v in counts))
        # a symmetry that keeps the counts maps move sequences to move
        # sequences, so one answer decides the target's whole orbit
        stabiliser = index.stabiliser(counts)
        reachable, decided = set(counts), set(counts)
        # nearest first: a budget overflow names the nearest target that overflows
        for t in sorted(region, key=lambda t: (min(index.distances(t, counts).values()), t)):
            if t in decided:
                continue
            orbit = {index.image(g, t) for g in stabiliser}
            decided |= orbit
            if self._cluster_can_k(counts, t, 1):
                reachable |= orbit
        return frozenset(reachable)

    # -- per-cluster search ---------------------------------------------

    def _cluster_can_k(self, counts: dict, t: Vertex, k: int) -> bool:
        """Whether the cluster puts k pebbles on t, by the stages of the module docstring."""
        grid = self.grid
        dist = grid.index.distances(t, counts)
        if any(c >> dist[v] >= k for v, c in counts.items()):
            return True
        top = max(dist.values())
        if sum(c << (top - dist[v]) for v, c in counts.items()) < k << top:
            return False
        if _greedy_deliverable(grid, counts, t) >= k:
            return True
        tried = None
        for radius in _RESTRICT_STAGES:
            sub = {v: c for v, c in counts.items() if dist[v] <= radius}
            if not sub or sub == tried or len(sub) == len(counts):
                continue
            tried = sub
            try:
                if _Search(grid, t, k, max(self.node_cap // 20, 1000)).run(sub):
                    return True
            except BudgetExceeded:
                pass
        return _Search(grid, t, k, self.node_cap).run(counts)

    # -- queries ---------------------------------------------------------

    def can_move_k(self, t: Vertex, k: int) -> bool:
        for counts, cov in self._clusters:
            if t in cov:
                return k == 1 or self._cluster_can_k(counts, t, k)
        return False

    def reachable_set(self) -> frozenset[Vertex]:
        out: set[Vertex] = set()
        for _, cov in self._clusters:
            out |= cov
        return frozenset(out)


class StateSolver:
    """Memoised reach sets of whole distribution states on one small grid,
    for the many tiny distributions of an exhaustive search.

    A state is a tuple of pebble counts indexed by vertex id (the order of
    GridIndex.vertices), and a reach set is an int bitmask over the same ids.
    The reach set of a state A is its support, the ball covered by each
    single pile, and the reach set of each successor A' by a move i -> j
    onto a live vertex j, one of weight W_A(j) >= 2; the walk stops as soon
    as the mask is full.  Moves onto a dead end j, W_A(j) < 2, are never
    made (whole-state dead ends in the module docstring): some sequence
    that puts a pebble on a reachable t makes no move onto a dead end
    other than t, so its first move makes a successor walked here, or
    lands on t from a pile whose ball holds t.  The rule reads A alone,
    never the state it came from, so every memo entry is the exact reach
    set of its key, whichever query made it.  The weights are integers
    over 2^D, one and rows from weights.dyadic_rows, so a test is one
    integer compare; the balls are read from the same table.

    Every state the piles alone do not decide is memoised, and the memo
    serves every query on the solver: a successor of a size-s state is a
    size-(s-1) state that other queries meet again.  Recursion depth is at
    most the state's size.  The memo keys are the states as bytes, and no
    count ever exceeds the state's size, so a state holds at most 255
    pebbles; reach raises GridError for a state of the wrong length or
    counts outside that.  A query that would hold more than node_cap
    entries raises BudgetExceeded.  An entry costs ~150 bytes, so the
    default cap allows ~1.5 GB: measured on the 6x4 plane pi_opt search
    when the solver was handed every orbit that passes the weight test
    (829,043 entries, 141 MB VmHWM).  Behind the search's neighbour test
    the memo stays far smaller: the 5x5 plane search ends with 2,561
    entries after 1.1 s at 16.6 MB ru_maxrss, the 6x4 plane with 42,469
    after 2.3 s at 21.6 MB (2-core x86, Python 3.11)."""

    def __init__(self, grid: GridSpec, node_cap: int = DEFAULT_NODE_CAP):
        self.one, self.rows = weights.dyadic_rows(grid)
        self.full = (1 << grid.size) - 1
        self.node_cap = node_cap
        self.memo: dict[bytes, int] = {}
        self._neighbors = grid.index.neighbor_ids
        self._top = top = self.one.bit_length() - 1
        # _balls[i][r]: the vertices within distance r of vertex i, where
        # rows[i][j] = 2^(top - d(i, j))
        self._balls = []
        for row in self.rows:
            balls = [0] * (top + 1)
            for j, w in enumerate(row):
                balls[top + 1 - w.bit_length()] |= 1 << j
            for r in range(1, len(balls)):
                balls[r] |= balls[r - 1]
            self._balls.append(balls)

    def reach(self, state: tuple[int, ...]) -> int:
        """The reach set of state, as a bitmask over vertex ids."""
        n = len(self.rows)
        if len(state) != n:
            raise GridError(f"a state has one count per vertex: {n}, not {len(state)}")
        try:
            # bytes() rejects a count that is not an int in range(256)
            fits = sum(bytes(state)) <= 255
        except (TypeError, ValueError):
            fits = False
        if not fits:
            raise GridError("a state's counts must be ints >= 0 summing to at most 255")
        return self._reach(tuple(state))

    def _reach(self, state: tuple[int, ...]) -> int:
        mask = 0
        for i, c in enumerate(state):
            if c:
                # a pile of c pebbles delivers floor(c / 2^d) to distance d
                mask |= self._balls[i][min(c.bit_length() - 1, self._top)]
        if mask == self.full:
            return mask
        key = bytes(state)
        known = self.memo.get(key)
        if known is not None:
            return known
        if len(self.memo) >= self.node_cap:
            cap = f"state memo budget of {self.node_cap} entries exceeded"
            raise BudgetExceeded(cap, self.node_cap, stage="optimal search")
        rows, two = self.rows, 2 * self.one
        for i, c in enumerate(state):
            if c < 2:
                continue
            for j in self._neighbors[i]:
                if sum(map(mul, rows[j], state)) < two:
                    continue
                nxt = list(state)
                nxt[i] -= 2
                nxt[j] += 1
                mask |= self._reach(tuple(nxt))
            if mask == self.full:
                break
        self.memo[key] = mask
        return mask


def can_move_k(d: Distribution, t, k: int, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff some move sequence accumulates >= k pebbles on t simultaneously."""
    t = d.grid.check(t)
    if k < 1:
        raise GridError("k must be >= 1")
    return _Engine(d, node_cap).can_move_k(t, k)


def is_reachable(d: Distribution, t, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff t holds a pebble or some move sequence places one on it."""
    return can_move_k(d, t, 1, node_cap)


def coverage(d: Distribution, node_cap: int = DEFAULT_NODE_CAP) -> CoverageReport:
    """Reachable set, Cov(D), exact covering ratio, and boundary vertices."""
    engine = _Engine(d, node_cap)
    if d.size < 1:
        raise GridError("coverage needs a non-empty distribution")
    reachable = engine.reachable_set()
    # the boundary: reachable vertices with a neighbour that is not
    boundary = frozenset(v for v in reachable if any(u not in reachable for u in d.grid.neighbors(v)))
    return CoverageReport(
        reachable=reachable,
        cov=len(reachable),
        ratio=Fraction(len(reachable), d.size),
        boundary=boundary,
    )


def is_solvable(d: Distribution, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff every grid vertex is reachable."""
    engine = _Engine(d, node_cap)
    return d.size >= 1 and len(engine.reachable_set()) == d.grid.size


def boundary_vertices(d: Distribution, node_cap: int = DEFAULT_NODE_CAP) -> frozenset[Vertex]:
    return coverage(d, node_cap).boundary


def interaction_vertices(
    d1: Distribution, d2: Distribution, node_cap: int = DEFAULT_NODE_CAP
) -> frozenset[Vertex]:
    """Vertices reachable under both distributions."""
    if d1.grid != d2.grid:
        raise GridError("distributions live on different grids")
    return _Engine(d1, node_cap).reachable_set() & _Engine(d2, node_cap).reachable_set()


def lonely_units(d: Distribution, node_cap: int = DEFAULT_NODE_CAP) -> frozenset[Vertex]:
    """Units whose singleton coverage is disjoint from the rest's coverage."""
    out = set()
    for v in d.support:
        alone = Distribution(d.grid, {v: d.counts[v]})
        rest = d.without_unit(v)
        rest_cov = _Engine(rest, node_cap).reachable_set() if rest.counts else frozenset()
        if not (_Engine(alone, node_cap).reachable_set() & rest_cov):
            out.add(v)
    return frozenset(out)


def marginal_covering_ratio(
    d: Distribution, dplus: Distribution, node_cap: int = DEFAULT_NODE_CAP
) -> Fraction:
    """(Cov(D') - Cov(D)) / (|D'| - |D|) for D' pointwise >= D."""
    added = dplus.added_over(d)
    cov_base = coverage(d, node_cap).cov
    cov_plus = coverage(dplus, node_cap).cov
    assert cov_plus >= cov_base, "coverage must be monotone under adding pebbles"
    return Fraction(cov_plus - cov_base, added)
