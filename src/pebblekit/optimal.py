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

The survivors go to one reach.StateSolver held for the whole search,
whose memo of whole-state reach sets every orbit and size shares.  The
first size with a solvable distribution is the optimal pebbling number,
and exhaustion of the smaller sizes, counted per size in
OptimalResult.per_size, is the minimality certificate.  The orbits cut by
weight are never built, so below pi_opt a row counts its orbits by
Burnside's lemma from the cycle types of the symmetries: the weight
refuted orbits are that count less the survivors, and every survivor is
refuted by the solver.  The row at pi_opt counts the survivors tested, the
witness last; the orbits of that size the walk cut by weight before the
witness are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import NamedTuple, Sequence

from .grid import Distribution, GridError, GridSpec
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
    the weight bound or by the state solver (engine_refuted, the orbits
    that pass the weight bound).  At pi_opt, orbits counts the
    weight-passing orbits tested up to and including the witness, which is
    counted in neither refuted column, and weight_refuted is 0."""

    size: int
    orbits: int
    weight_refuted: int
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
        """Every orbit of the sizes below pi_opt, plus the weight-passing
        orbits tested at pi_opt."""
        return sum(row.orbits for row in self.per_size)


def _canonical(vec: Sequence[int], live) -> bool:
    """Whether the complete vector vec is lex-least: _advance's prefix walk to its end."""
    return _advance(vec, len(vec) - 1, live) is not None


def _advance(vec: Sequence[int], idx: int, live: list):
    """The live pairs after a count is placed at position idx, or None when
    no completion of vec can be lex-least.  A pair (p, j) says that the
    image of vec under p, whose position j holds vec[p[j]], equals vec
    before position j; j moves on while both j and p[j] are decided.  A
    smaller image cuts the subtree, a larger one drops p for good."""
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


def _distributions_of_size(spec: GridSpec, s: int, perms, one: int = 0, rows=()):
    """Count vectors of total size s, one per symmetry orbit (its lex-least
    member), in ascending lexicographic order, under which every vertex has
    weight at least 1 (rows and one from weights.dyadic_rows).  Each prefix
    carries the symmetries that may still map it to a smaller vector and the
    partial weight at every vertex, and is cut before it is completed when
    no completion of it is lex-least, or none has weight >= one at every
    vertex.  With rows empty no prefix is cut by weight, and the walk yields
    every orbit."""
    n = spec.size
    identity = tuple(range(n))
    vec = [0] * n
    # The weights at all targets are packed in one integer, target t in the
    # field of f + 1 bits at bit t * (f + 1).  A field never holds more than
    # s * one < 2^f, so adding 2^f - one to each sets the field's top bit
    # iff its weight is >= one, and never carries into the next field.
    f = (s * one).bit_length()
    shifts = range(0, len(rows) * (f + 1), f + 1)

    def pack(values) -> int:
        return sum(v << b for v, b in zip(values, shifts))

    lift, flags = pack([(1 << f) - one] * n), pack([1 << f] * n)
    # cols[i]: what one pebble on id i adds at each target; best[i]: the
    # most one pebble on an id >= i adds there, 0 past the last id
    cols = [pack(row[i] for row in rows) for i in range(n)]
    best = [pack(max(row[i:]) for row in rows) for i in range(n)] + [0]

    def rec(idx: int, remaining: int, live: list, partial: int):
        if remaining == 0:
            if _canonical(vec, live):
                yield tuple(vec)
            return
        if idx == n:
            return
        col, most = cols[idx], best[idx + 1]
        # leave vertex idx empty, or put 1..remaining pebbles on it
        for k in range(remaining + 1):
            weights = partial + k * col
            left = remaining - k
            if (weights + left * most + lift) & flags != flags:
                continue
            vec[idx] = k
            kept = _advance(vec, idx, live)
            if kept is not None:
                yield from rec(idx + 1, left, kept, weights)
        vec[idx] = 0

    yield from rec(0, s, [(p, 0) for p in perms if p != identity], 0)


def burnside_orbit_count(perms, s: int) -> int:
    """Orbits of count vectors of total size s under the group perms, by
    Burnside's lemma: (1/|G|) sum_g [x^s] prod_{cycles of g} 1/(1 - x^L).
    A vector fixed by g is constant on each cycle of g, so a cycle of length
    L holding c pebbles per vertex adds c * L to the size."""
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
    perms = spec.index.permutations()
    solver = StateSolver(spec, node_cap)
    per_size = []
    s = 0
    while True:
        s += 1
        tested = 0
        for vec in _distributions_of_size(spec, s, perms, solver.one, solver.rows):
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
        orbits = burnside_orbit_count(perms, s)
        per_size.append(SizeRow(s, orbits, orbits - tested, tested))


def optimal_ratio_series(
    max_n: int, node_cap: int = DEFAULT_NODE_CAP
) -> list[tuple[int, int, Fraction]]:
    """(n, pi_opt(n x n), pi_opt / n^2) for n = 1..max_n on plane grids."""
    if max_n < 1:
        raise GridError("max_n must be >= 1")
    out = []
    for n in range(1, max_n + 1):
        result = optimal_pebbling_number(GridSpec(n, n), node_cap)
        out.append((n, result.pi_opt, Fraction(result.pi_opt, n * n)))
    return out


def composition_upper_bound(n: int, m: int, pi_m: int) -> int:
    """pi_opt(n x n) <= k^2 * pi_opt(m x m) + r^2 + 2rkm for n = km + r."""
    if n < m or m < 1:
        raise GridError("need n >= m >= 1")
    k, r = divmod(n, m)
    return k * k * pi_m + r * r + 2 * r * k * m
