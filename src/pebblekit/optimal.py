"""Exact optimal pebbling numbers for small grids by exhaustive search.

The search runs size-first iterative deepening: for s = 1, 2, ... it
enumerates the pebble distributions of total size s as count vectors
(c_0, ..., c_{n-1}), c_i the pebbles on vertex id i, in ascending
lexicographic order.  The symmetry group of the grid (rotations and
reflections of the rectangle, plus the translations of a torus, each a
permutation of vertex ids from GridIndex.permutations) splits them into
orbits, and the first member of an orbit met in that order is its
lex-least vector: a vector is kept iff no symmetry maps it to a smaller
one, so each orbit is tested once, with no record of the orbits already
seen.

The test is made on prefixes, as in canonical augmentation: the vector
is built one vertex at a time, and each symmetry p is compared with it
over the positions j where both vec[j] and vec[p[j]] are decided.  A
smaller image there cuts the whole subtree, since no completion can be
lex-least; a larger one drops p from the subtree, since it can never
refute a completion.  A complete vector, 0 past its last pebble, is tested
by the same walk run to the last position (Read's orderly generation).

The live pairs are filed by wake position.  A pair (p, j) says that the
image under p, whose position j holds vec[p[j]], equals vec before
position j, and its next comparison, vec[p[j]] against vec[j], is decided
once both are placed: at its wake w = max(j, p[j]).  A pair stops only
while one of j, p[j] is undecided, so once position idx - 1 is done every
live pair has w >= idx, and the pairs that compare at idx are exactly
those with w = idx: read in one whole list, every other pair was read
only to be copied.  In fact w = p[j]: every m < j was compared, so
p[m] <= idx - 1; if j < idx, w >= idx forces p[j] >= idx > j, and if
j = idx, p maps 0..idx - 1 onto itself, so p[j] >= idx = j.  So each size
keeps one bucket of pairs per position, wake[w], made afresh.  Placing a
count at idx reads wake[idx] alone and appends each pair that neither
cuts nor is dropped to the bucket of its new wake p[j] > idx;
backtracking pops those appends, and a cut pops them before it returns.
So at a prefix ending at idx the buckets from idx on hold exactly its
live pairs, and those below hold stale entries that no node below it
reads.  A pair whose image matches vec at every position wakes at n,
where nothing reads it, as it can refute nothing.  Each pair read at idx
makes the comparisons it made when the whole list was read at every
position.  Only which pairs are read before a cut depends on the order,
not whether some pair cuts, so the walk cuts the same prefixes, drops
the same pairs and yields the same vectors in the same order.  The leaf
test reads the live pairs of every bucket from idx on, as it read the
whole list.

An orbit with some vertex of dyadic weight below 1 is refuted without
a reachability search: a move never raises the weight at any vertex, so
that vertex can never be reached.  The weights are integer sums over one
power-of-two denominator 2^D, read from the table (weights.dyadic_rows)
that the search's state solver builds, and the bound is applied to
prefixes too.  Let the counts at ids < idx be decided, with partial
weight P_t at vertex t, and let r pebbles remain.  Each of them lands on
an id j >= idx and adds 2^(D - d(t, j)) at t, at most B_t(idx), the
largest such entry at ids >= idx, so every completion has weight at most
P_t + r * B_t(idx) at t.  If that is below 2^D for
some t, no completion reaches t and the subtree is cut; at r = 0 this is
the weight test of the complete vector.  The cut drops no vector that
passes the weight test, and the lex-least test does not look at weights,
so the walk yields exactly the lex-least vectors that pass it, in the
same order as the unpruned walk.

A vertex t that starts empty is reached only if some neighbour u of t
has start weight W(u) >= 2 (the neighbour lemma).  The first pebble on t
arrives by a move u -> t, which takes two pebbles from u, so just before
it u holds 2 pebbles and has weight at least 2, its own pebbles counting
1 each; a move never raises the weight at any vertex, so W(u) >= 2 at the
start.  An orbit with an empty vertex whose neighbours all weigh below 2
is therefore unsolvable.  The lemma is stronger than the weight test: on a
path, 1 + 0 + 1 gives the middle vertex weight 1, but no neighbour of it
weight 2.

The walk applies the lemma to prefixes too.  Let the counts at ids <= idx
be decided, r >= 1 pebbles remain, and let t be an id <= idx holding 0.
Every completion leaves t empty, and weighs at most P_u + r * B_u(idx + 1)
at each u, as in the weight cut.  If that bound is below 2 at every
neighbour u of t, no completion gives t a neighbour of weight >= 2, the
lemma refutes every one of them, and the subtree is cut.  The leaf test
checks every empty vertex of a complete vector with its exact weights.  So
the cut drops only subtrees whose every leaf the leaf test rejects, the
walk yields the same vectors in the same order, and it never builds the
leaves it would throw away.

The weights are packed in fields of f + 1 bits, f the bit length of
n * one on n vertices, one = 2^D.  A field holds at most s * one, since
one pebble adds at most 2^D at any vertex, and no search walks a size
s > n, since pi_opt <= n: one pebble on every vertex reaches every vertex.
So the packed layout is built once per search, the walk refuses a size
s > n, where a field could carry, and 2^f >= 2 * one, which
lets a second lift of 2^f - 2 * one per field mark the vertices of weight
>= 2 by the fields' top bits.

On a plane the walk relabels its ids border first: its id k is the
grid's id order[k], the ids sorted by distance from the centre,
descending, ties by id, which made the prefix weight cut bite earlier on
every plane grid measured.  It walks a grid vector v as v'[k] =
v[order[k]] and conjugates a symmetry p to p'[k] = pos[p[order[k]]], pos
the inverse of order.  The image of v' under p' is then the relabelled
image of v under p: v'[p'[k]] = v'[pos[p[order[k]]]] = v[p[order[k]]].
So the relabelling maps each orbit of the grid's group onto one orbit of
the conjugated group, which has the grid group's cycle types, and the
walk meets one member of each of those.  The weight rows and the
neighbour ids are relabelled the same way, so each vertex keeps its
weight and its neighbours, and both tests keep their verdicts.  The walk
maps each vector it yields back, v[i] = v'[pos[i]]: one member of each
grid orbit, in grid ids, so no caller sees the walk's ids.  On a torus no
vertex is on a border, and the ids stay in order.

The survivors go to one reach.StateSolver held for the whole search,
whose memo of whole-state reach sets every orbit and size shares.  The
first size with a solvable distribution is the optimal pebbling number,
and exhaustion of the smaller sizes, counted per size in
OptimalResult.per_size, is the minimality certificate.  The orbits the
walk refutes are mostly never built, so below pi_opt a row counts its
orbits by Burnside's lemma from the cycle types of the walk's symmetries,
found once per search: the walk refuted orbits are that count less the
orbits handed to the solver, which refutes the rest.  The row at pi_opt
counts the orbits handed to the solver, the witness last; the orbits of
that size the walk refuted before the witness are not counted.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import ceil
from typing import NamedTuple, Sequence

from .grid import TORUS, Distribution, GridError, GridSpec
from .lp import fractional_optimum
from .reach import DEFAULT_NODE_CAP, BudgetExceeded, StateSolver

#: Largest vertex count attempted by the exhaustive search.
MAX_SEARCH_VERTICES = 16


def _stopped(spec: GridSpec, node_cap: int, lower: int, size: int | None = None):
    """The BudgetExceeded that stops the search at size, or before it starts
    (size None); lower is the bound on pi_opt known then."""
    grid = f"{spec.width}x{spec.height} {spec.topology}"
    if size is None:
        head = f"optimal search not supported on {grid}"
    else:
        memo = f"the solver memo reached the node cap of {node_cap} entries"
        head = f"optimal search on {grid} stopped at size {size}: {memo}"
    message = f"{head}; known bounds: {lower} <= pi_opt"
    return BudgetExceeded(message, node_cap, stage="optimal search", size=size, lower=lower)


class SizeRow(NamedTuple):
    """The orbits of one size and how each was decided.  Below pi_opt,
    orbits is every orbit of the size (Burnside's count), each refuted by
    the walk (walk_refuted: a vertex of weight below 1, or an empty vertex
    with no neighbour of weight >= 2) or by the state solver
    (engine_refuted, the orbits handed to it).  At pi_opt, orbits counts
    the orbits handed to the solver up to and including the witness, which
    is counted in no refuted column, and walk_refuted is 0."""

    size: int
    orbits: int
    walk_refuted: int
    engine_refuted: int


@dataclass(frozen=True)
class OptimalResult:
    """Exact optimal pebbling number with a witness and, per size, the
    orbits that certify its minimality (see SizeRow)."""

    spec: GridSpec
    pi_opt: int
    witness: Distribution
    per_size: tuple[SizeRow, ...]

    @property
    def candidates_tested(self) -> int:
        """Every orbit of the sizes below pi_opt, plus the orbits handed to
        the solver at pi_opt, the witness last."""
        return sum(row.orbits for row in self.per_size)


def _canonical(vec: Sequence[int], live: list) -> bool:
    """Whether the complete vector vec is lex-least: _advance at the last
    position, where every comparison of the live pairs is decided."""
    n = len(vec)
    return _advance(vec, n - 1, {n - 1: live, n: []}) is not None


def _advance(vec: Sequence[int], idx: int, wake):
    """Compare the live pairs that wake at position idx, wake[idx] (wake
    maps each position to its bucket), once a count is placed there, and
    append each survivor to the bucket of its next wake.  Returns the
    buckets appended to, one entry per append, for the caller to pop on
    backtrack, or None (having appended nothing) when no completion of vec
    can be lex-least.  A pair (p, j)
    says that the image of vec under p, whose position j holds vec[p[j]],
    equals vec before position j; it wakes at p[j] (module docstring).  A
    smaller image cuts the subtree, a larger one drops p for good, and a
    pair whose image equals vec up to the end wakes at p[n] = n, where no
    position reads it."""
    woken = []
    for p, j in wake[idx]:
        image, own = vec[p[j]], vec[j]
        while image == own:
            j += 1
            i = p[j]
            if i > idx:
                bucket = wake[i]
                bucket.append((p, j))
                woken.append(bucket)
                break
            image, own = vec[i], vec[j]
        else:
            if image < own:
                for bucket in woken:
                    bucket.pop()
                return None
    return woken


class _Walk:
    """The orbit walk of one search, over the grid's symmetries and, if
    given, its weight rows (from weights.dyadic_rows) and neighbour ids, all
    in grid ids.  On a plane it walks the ids border first and yields grid ids
    (module docstring).  With rows, the packed weight layout holds every
    size s <= n, so it is built once."""

    def __init__(self, spec: GridSpec, one: int = 0, rows=(), neighbours=()):
        self.n = n = spec.size
        order = list(range(n))
        if spec.topology != TORUS:
            verts, w, h = spec.index.vertices, spec.width, spec.height
            # twice the distance, an integer when the centre falls between vertices
            order.sort(key=lambda i: -abs(2 * verts[i].col - w + 1) - abs(2 * verts[i].row - h + 1))
        # pos, the inverse of order: the walk's id of grid id i is pos[i]
        self.pos = pos = [0] * n
        for k, i in enumerate(order):
            pos[i] = k
        perms = [tuple(pos[p[i]] for i in order) for p in spec.index.permutations()]
        # conjugation keeps cycle types, so these are the grid group's
        self.types = _cycle_types(perms)
        identity = tuple(range(n))
        # each carries p[n] = n, where _advance parks a pair that has matched every position
        self.perms = [p + (n,) for p in perms if p != identity]
        # The weights at all targets are packed in one integer, target t in
        # the field of f + 1 bits at bit t * (f + 1).  A field never holds
        # more than s * one <= n * one < 2^f, so adding 2^f - c * one to each
        # (c = 1 or 2, as 2 * one <= 2^f) sets the field's top bit iff its
        # weight is >= c * one, and never carries into the next field.
        f = (n * one).bit_length()
        shifts = range(0, len(rows) * (f + 1), f + 1)

        def pack(values) -> int:
            return sum(v << b for v, b in zip(values, shifts))

        self.lift, self.flags = pack([(1 << f) - one] * n), pack([1 << f] * n)
        self.lift2 = pack([(1 << f) - 2 * one] * n)
        # cols[k]: what one pebble on id k adds at each target; best[k]: the
        # most one pebble on an id >= k adds there, 0 past the last id
        rows = [[rows[t][i] for i in order] for t in order] if rows else ()
        self.cols = [pack(row[k] for row in rows) for k in range(n)]
        self.best = [pack(max(row[k:]) for row in rows) for k in range(n)] + [0]
        # near[k]: the top bits of the fields of the neighbours of id k
        neighbours = [[pos[u] for u in neighbours[i]] for i in order] if neighbours else ()
        self.near = [sum(1 << (u * (f + 1) + f) for u in ids) for ids in neighbours]

    def of_size(self, s: int):
        """Count vectors of total size s, in grid ids, one per symmetry
        orbit, under which every vertex has weight at least 1 and, with
        neighbours given, every empty vertex a neighbour of weight at least
        2.  Each is the lex-least member of its orbit in the walk's ids, met
        in ascending lexicographic order of those.  Each prefix carries the
        symmetries that may still map it to a smaller vector, the partial
        weight at every vertex and, with neighbours, the decided-empty ids,
        and is cut before it is completed when no completion of it has
        weight >= one at every vertex, none gives every decided-empty id a
        neighbour of weight >= 2, or none is lex-least.  A complete vector
        passes the lex-least test first, then the neighbour test on every
        empty vertex.  With rows, a size s > n raises GridError."""
        n, vec, pos = self.n, [0] * self.n, self.pos
        if self.flags and s > n:
            raise GridError(f"a weighed walk holds sizes up to {n}, not {s}")
        lift, flags, lift2 = self.lift, self.flags, self.lift2
        cols, best, near = self.cols, self.best, self.near
        # wake[w]: the live pairs (p, j) of _advance that wake at w = p[j];
        # those of the prefix at idx are in wake[idx:], and those below are stale
        wake = [[] for _ in range(n + 1)]
        for p in self.perms:
            wake[p[0]].append((p, 0))

        def rec(idx: int, remaining: int, partial: int, empty: tuple):
            # empty: the near masks of the ids < idx that hold no pebble
            if remaining == 0:
                if _canonical(vec, [*chain.from_iterable(wake[idx:n])]):
                    # the ids >= idx are empty too
                    has = ((partial + lift2) & flags).__and__
                    if all(map(has, empty)) and all(map(has, near[idx:])):
                        yield tuple(map(vec.__getitem__, pos))
                return
            if idx == n:
                return
            col, most = cols[idx], best[idx + 1]
            emptier = empty + (near[idx],) if near else ()
            # leave vertex idx empty, or put 1..remaining pebbles on it
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
                woken = _advance(vec, idx, wake)
                if woken is not None:
                    yield from rec(idx + 1, left, weights, decided)
                    for bucket in woken:
                        bucket.pop()
            vec[idx] = 0

        return rec(0, s, 0, ())

    def orbit_count(self, s: int) -> int:
        """The orbits of count vectors of total size s, by Burnside's lemma:
        (1/|G|) sum_g [x^s] prod_{cycles of g} 1/(1 - x^L).  A vector fixed
        by g is constant on each cycle of g, so a cycle of length L holding
        c pebbles per vertex adds c * L to the size."""
        total = 0
        for lengths, count in self.types.items():
            fixed = [1] + [0] * s  # fixed[k]: vectors of size k fixed by the type
            for length in lengths:
                for k in range(length, s + 1):
                    fixed[k] += fixed[k - length]
            total += count * fixed[s]
        order = sum(self.types.values())
        assert total % order == 0
        return total // order


def _cycle_types(perms) -> Counter:
    """How many of the permutations have each cycle type, the sorted lengths of their cycles."""
    types = Counter()
    for p in perms:
        seen, lengths = set(), []
        for start in range(len(p)):
            if start in seen:
                continue
            length, v = 0, start
            while v not in seen:
                seen.add(v)
                v, length = p[v], length + 1
            lengths.append(length)
        types[tuple(sorted(lengths))] += 1
    return types


def optimal_pebbling_number(
    spec: GridSpec, node_cap: int = DEFAULT_NODE_CAP
) -> OptimalResult:
    """Exact optimal pebbling number of the grid, by exhaustion.  node_cap
    bounds the entries of the solver's memo; going over it, or a grid past
    MAX_SEARCH_VERTICES, raises reach.BudgetExceeded."""
    if spec.size > MAX_SEARCH_VERTICES:
        # every vertex of a solvable distribution has weight >= 1, so its
        # size is at least the fractional optimum
        raise _stopped(spec, node_cap, ceil(fractional_optimum(spec)))
    solver = StateSolver(spec, node_cap)
    walk = _Walk(spec, solver.one, solver.rows, spec.index.neighbor_ids)
    per_size = []
    s = 0
    while True:
        s += 1
        tested = 0
        for vec in walk.of_size(s):
            tested += 1
            try:
                solved = solver.reach(vec) == solver.full
            except BudgetExceeded:
                # every smaller size was exhausted, so pi_opt >= s
                lower = max(ceil(fractional_optimum(spec)), s)
                raise _stopped(spec, node_cap, lower, s) from None
            if solved:
                verts = spec.index.vertices
                d = Distribution(spec, {verts[i]: k for i, k in enumerate(vec) if k})
                per_size.append(SizeRow(s, tested, 0, tested - 1))
                return OptimalResult(spec=spec, pi_opt=s, witness=d, per_size=tuple(per_size))
        orbits = walk.orbit_count(s)
        per_size.append(SizeRow(s, orbits, orbits - tested, tested))


def composition_upper_bound(n: int, m: int, pi_m: int) -> int:
    """pi_opt(n x n) <= k^2 * pi_opt(m x m) + r^2 + 2rkm for n = km + r."""
    if n < m or m < 1:
        raise GridError("need n >= m >= 1")
    k, r = divmod(n, m)
    return k * k * pi_m + r * r + 2 * r * k * m
