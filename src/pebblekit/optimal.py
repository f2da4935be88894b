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
power-of-two denominator, read from a table built once per grid.  The
rest go to one reach.StateSolver held for the whole search, whose memo of
whole-state reach sets every orbit and size shares.  The first size with
a solvable distribution is the optimal pebbling number, and exhaustion of
the smaller sizes, counted per size in OptimalResult.per_size, is the
minimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from operator import mul
from typing import NamedTuple, Sequence

from .grid import Distribution, GridError, GridSpec
from .lp import fractional_optimum
from .reach import DEFAULT_NODE_CAP, BudgetExceeded, StateSolver
from .weights import dyadic_rows

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
    """The orbits of one size tested by the search, and how each was
    decided.  Below pi_opt every orbit is refuted; at pi_opt the last orbit
    is the witness, counted in neither refuted column.  engine_refuted
    counts the orbits that passed the weight bound and that the state
    solver found unsolvable."""

    size: int
    orbits: int
    weight_refuted: int
    engine_refuted: int


@dataclass(frozen=True)
class OptimalResult:
    """Exact optimal pebbling number with a witness and, per size, the
    orbits that certify its minimality."""

    spec: GridSpec
    pi_opt: int
    witness: Distribution
    per_size: tuple[SizeRow, ...]

    @property
    def candidates_tested(self) -> int:
        """Orbit representatives tested over all sizes."""
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


def _distributions_of_size(spec: GridSpec, s: int, perms):
    """Count vectors of total size s, one per symmetry orbit (its lex-least
    member), in ascending lexicographic order.  Each prefix carries the
    symmetries that may still map it to a smaller vector, so a prefix no
    completion of which is lex-least is cut before it is completed."""
    n = spec.size
    identity = tuple(range(n))
    vec = [0] * n

    def rec(idx: int, remaining: int, live: list):
        if remaining == 0:
            if _canonical(vec, live):
                yield tuple(vec)
            return
        if idx == n:
            return
        # leave vertex idx empty, or put 1..remaining pebbles on it
        for k in range(remaining + 1):
            vec[idx] = k
            kept = _advance(vec, idx, live)
            if kept is not None:
                yield from rec(idx + 1, remaining - k, kept)
        vec[idx] = 0

    yield from rec(0, s, [(p, 0) for p in perms if p != identity])


def _out_of_reach(vec: tuple, rows, one: int) -> bool:
    """Whether some vertex has weight below 1 under the count vector vec,
    with rows and one from weights.dyadic_rows."""
    for row in rows:
        if sum(map(mul, vec, row)) < one:
            return True
    return False


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
    one, rows = dyadic_rows(spec)
    solver = StateSolver(spec, node_cap)
    per_size = []
    s = 0
    while True:
        s += 1
        orbits = light = 0
        for vec in _distributions_of_size(spec, s, perms):
            orbits += 1
            if _out_of_reach(vec, rows, one):
                light += 1
                continue
            try:
                solved = solver.reach(vec) == solver.full
            except BudgetExceeded:
                # every smaller size was exhausted, so pi_opt >= s
                lower = max(ceil(fractional_optimum(spec)), s)
                raise _stopped(spec, node_cap, lower, s) from None
            if solved:
                verts = spec.index.vertices
                d = Distribution(spec, {verts[i]: k for i, k in enumerate(vec) if k})
                per_size.append(SizeRow(s, orbits, light, orbits - light - 1))
                return OptimalResult(spec=spec, pi_opt=s, witness=d, per_size=tuple(per_size))
        per_size.append(SizeRow(s, orbits, light, orbits - light))


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
