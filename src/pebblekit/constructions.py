"""Parametric generators for the distribution families the toolkit studies.

Families
--------
``FAMILIES`` is the one list of families: it maps each family name to a
generator whose keyword parameters and defaults are the family's.
``PatternSpec`` and ``pebblekit gen`` both read it.

* ``diag7``: size-4 units on every other vertex of every 7th diagonal;
  density 1 unit per 7 vertices, covering ratio 7/2 on compatible tori.
* ``row_ones``: k size-1 units in a row, optionally with a size-2 unit
  next to one end (the marginal-covering-ratio counterexample family).
* ``cascade_ones``: a row of size-3 piles one move short of cascading,
  plus a separate size-1 unit that completes the cascade; the size-1
  unit's marginal covering ratio grows without bound in k.
* ``banded_rows``: size-3 units on every other vertex of every 5th row
  of a (2n+1) x (5m+1) plane grid; the augmented variant
  (``augmented=True``) adds 4m pebbles in size-2 units near the ends of
  the pebbled rows.
* ``uniform_frac``: the same rational amount on every vertex.
* ``density7_frac``: one pebble on each point of an index-7 sublattice of
  the integer grid, realized on 7k x 7k tori.
* ``block_composition``: tile an n x n grid with copies of a solvable
  m x m distribution plus one pebble on each leftover vertex.

Banded-rows augmentation placement: the 2m size-2 units go on empty
vertices at row-distance at most 1 from a pebbled row, at most two units
per pebbled row (more than two never helps a row fire and only starves
the others).  Candidate subsets are tried in lexicographic (row, col)
order.  Each pebbled row with its own units is one exact reachability
engine.  A placement is certified when the union of the row coverages
reaches every gap vertex (the base covers the other rows, so it is then
solvable).  The first certified placement that also lets every pebbled
row move 4 pebbles onto each of its own vertices wins, else the first
certified placement at all.  If none is certified, ``GridError`` is
raised (n = 3 and n = 4 with m = 1); a search budget overflow propagates
as ``BudgetExceeded``.  (For n = 1 a single unit next to a row's middle
vertex fires the whole row; for n >= 2 firing a row needs two units, 2m
units cannot serve all m+1 rows, and the winning placements instead put
units on interior columns of the rows adjacent to the pebbled rows.)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

from .grid import (
    PLANE,
    TORUS,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    Vertex,
    rational,
)
from .reach import _Engine, coverage


# -- diag7 ----------------------------------------------------------------


def _diag7_units(width: int, height: int) -> dict:
    return {
        Vertex(c, r): 4
        for r in range(height)
        for c in range(0, width, 2)
        if (c + r) % 7 == 0
    }


def gen_diag7(spec: GridSpec) -> Distribution:
    """Size-4 units at even columns of the diagonals col+row ≡ 0 (mod 7).

    The pattern has period vectors (14, 0) and (0, 14), so torus
    dimensions must be multiples of 14.  On plane grids one pebble is
    added to each vertex the bare pattern does not cover (a border
    effect), keeping the instance solvable.
    """
    if spec.topology == TORUS:
        if spec.width % 14 or spec.height % 14:
            raise GridError(
                f"diag7 needs torus dimensions divisible by 14, got {spec.width}x{spec.height}"
            )
        return Distribution(spec, _diag7_units(spec.width, spec.height))
    counts = _diag7_units(spec.width, spec.height)
    if not counts:
        raise GridError("diag7 pattern is empty on this grid")
    report = coverage(Distribution(spec, counts))
    for v in spec.vertices():
        if v not in report.reachable:
            counts[v] = 1
    return Distribution(spec, counts)


# -- row_ones and cascade_ones -------------------------------------------


def gen_row_ones(spec: GridSpec, k: int, with_unit2: bool = False) -> Distribution:
    """k size-1 units in a horizontal row; optionally a size-2 unit on the
    vertex adjacent to the row's left end."""
    if k < 1:
        raise GridError("k must be >= 1")
    y = spec.height // 2
    if spec.topology == PLANE:
        if spec.width < k + 5 or spec.height < 5:
            raise GridError(
                f"row of {k} ones needs at least a {k + 5}x5 plane grid, "
                f"got {spec.width}x{spec.height}"
            )
    counts = {Vertex(3 + i, y): 1 for i in range(k)}
    if with_unit2:
        counts[Vertex(2, y)] = 2
    return Distribution(spec, counts)


def gen_cascade_ones(spec: GridSpec, k: int) -> tuple[Distribution, Distribution]:
    """A chain of k size-3 piles at every other vertex of a row (one move
    short of cascading) and a separate size-1 unit that completes it.

    Returns (D, U).  Without U no pile can reach 4 pebbles, so D covers
    only a bounded neighborhood of each pile.  U sits between the first
    two piles: the first pile pushes one pebble next to U, the pair moves
    one pebble onto the second (still intact) pile, and the resulting 4
    cascades down the row -- 4 on a pile delivers 1 two steps to the
    right, making 4 again -- unlocking new vertices at every pile, so U's
    marginal covering ratio grows linearly in k.

    On the (2k + 5) x 7 plane, coverage gives cov(D) = 6k - 1 and
    cov(D + U) = 8k + 5, a marginal ratio of 2k + 6, for each k = 5..8.
    These are computed values, not proved for every k.
    """
    if k < 2:
        raise GridError("k must be >= 2 (the cascade needs a feeder pile)")
    y = spec.height // 2
    if spec.topology == PLANE:
        if spec.width < 2 * k + 3 or spec.height < 5:
            raise GridError(
                f"cascade of {k} piles needs at least a {2 * k + 3}x5 plane grid, "
                f"got {spec.width}x{spec.height}"
            )
    d = Distribution(spec, {Vertex(2 * (i + 1), y): 3 for i in range(k)})
    u = Distribution(spec, {Vertex(3, y): 1})
    return d, u


# -- banded_rows ----------------------------------------------------------


def _banded_rows_grid(n: int, m: int) -> tuple[GridSpec, dict]:
    if n < 1 or m < 1:
        raise GridError("banded_rows needs n >= 1 and m >= 1")
    spec = GridSpec(2 * n + 1, 5 * m + 1)
    counts = {
        Vertex(c, 5 * j): 3 for j in range(m + 1) for c in range(0, 2 * n + 1, 2)
    }
    return spec, counts


def _augmentation_choices(n: int, m: int):
    """Every placement of the 2m units with at most two near each pebbled
    row, as one tuple of units per pebbled row.  Laid end to end, the
    placements come in the lexicographic (row, col) order that
    ``combinations`` gives them."""
    spec, base = _banded_rows_grid(n, m)
    # rows are 5 apart, so each empty vertex is near at most one of them
    groups = [
        [v for v in spec.vertices() if v not in base and abs(v.row - 5 * j) <= 1]
        for j in range(m + 1)
    ]

    def row_choices(vs):
        # (a, b) before (a,), and () last: the order of the concatenations
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                yield (a, b)
            yield (a,)
        yield ()

    def rec(j: int, left: int):
        if j == len(groups):
            yield ()
            return
        room = 2 * (len(groups) - j - 1)  # what the later rows can still take
        for units in row_choices(groups[j]):
            if 0 <= left - len(units) <= room:
                for rest in rec(j + 1, left - len(units)):
                    yield (units,) + rest

    return rec(0, 2 * m)


@lru_cache(maxsize=None)
def banded_rows_augmentation(n: int, m: int) -> tuple:
    """The 2m size-2 unit positions for the augmented banded-rows instance
    (see the module docstring for the placement rule)."""
    spec, base = _banded_rows_grid(n, m)
    rows = [5 * j for j in range(m + 1)]
    gaps = frozenset(v for v in spec.vertices() if v.row % 5 in (2, 3))

    @lru_cache(maxsize=None)
    def row_engine(j: int, subset: tuple) -> _Engine:
        """The row-j piles plus a subset of augmentation units near row j."""
        counts = {Vertex(c, j): 3 for c in range(0, 2 * n + 1, 2)}
        counts.update(dict.fromkeys(subset, 2))
        return _Engine(Distribution(spec, counts))

    certified = None
    for choice in _augmentation_choices(n, m):
        engines = {j: row_engine(j, units) for j, units in zip(rows, choice)}
        if not gaps <= frozenset().union(*(e.reachable_set() for e in engines.values())):
            continue
        combo = sum(choice, ())
        if all(
            e.can_move_k(Vertex(c, j), 4) for j, e in engines.items() for c in range(2 * n + 1)
        ):
            return combo
        certified = certified or combo
    if certified is None:
        raise GridError(f"no augmentation of banded_rows n={n}, m={m} is certified solvable")
    return certified


def gen_banded_rows(n: int = 1, m: int = 1, augmented: bool = False) -> Distribution:
    """Size-3 units at even columns of rows 0, 5, ..., 5m on a
    (2n+1) x (5m+1) plane grid (3(n+1)(m+1) pebbles); the augmented
    variant adds 4m pebbles as 2m size-2 units near the row ends."""
    spec, counts = _banded_rows_grid(n, m)
    if augmented:
        for v in banded_rows_augmentation(n, m):
            counts[v] = 2
    return Distribution(spec, counts)


# -- uniform_frac ---------------------------------------------------------


def gen_uniform_frac(spec: GridSpec, q) -> ContinuousDistribution:
    """The same rational amount q > 0 on every vertex."""
    q = rational(q)
    if q <= 0:
        raise GridError("uniform amount must be positive")
    return ContinuousDistribution(spec, {v: q for v in spec.vertices()})


# -- density7_frac --------------------------------------------------------

#: Index-7 sublattices of the integer grid in Hermite normal form:
#: basis ((7, 0), (s, 1)) means membership x ≡ s·y (mod 7); the final
#: basis ((1, 0), (0, 7)) is the degenerate stripe lattice.
DENSITY7_BASES = tuple(((7, 0), (s, 1)) for s in range(7)) + (((1, 0), (0, 7)),)


def lattice_contains(basis: tuple, x: int, y: int) -> bool:
    (a, b), (c, d) = basis
    det = a * d - b * c
    return (d * x - c * y) % det == 0 and (a * y - b * x) % det == 0


def density7_class_weights(basis: tuple) -> dict[int, Fraction]:
    """Exact infinite-grid weight of one pebble per lattice point, at a
    representative of each of the 7 cosets, keyed by x − s·y (mod 7) for
    the HNF bases (and by y mod 7 for the stripe basis)."""
    # T(a) = sum over x ≡ a (mod 7) of 2^{-|x|}
    t = {a: (Fraction(128, 2**a) + Fraction(2**a)) / 127 for a in range(1, 7)}
    t[0] = Fraction(129, 127)
    (a1, b1), (c1, d1) = basis
    if (a1, b1) == (1, 0):  # stripe: every x, y ≡ 0 (mod 7)
        return {beta: 3 * t[beta] for beta in range(7)}
    s = c1
    return {
        alpha: sum(t[r] * t[(alpha - s * r) % 7] for r in range(7))
        for alpha in range(7)
    }


def density7_class_profile(basis: tuple, radius: int = 5) -> dict[int, dict[int, int]]:
    """Per coset: how many lattice pebbles sit at each distance <= radius
    from a non-lattice vertex of that coset (the truncated shell counts
    behind the per-class weight lower bounds)."""
    (a1, b1), (c1, d1) = basis
    out: dict[int, dict[int, int]] = {}
    for alpha in range(7):
        rep = (alpha, 0)  # for HNF bases x − s·0 = alpha; for stripe unused below
        if (a1, b1) == (1, 0):
            rep = (0, alpha)
        shells: dict[int, int] = {}
        r = radius + 1
        for dx in range(-2 * r, 2 * r + 1):
            for dy in range(-2 * r, 2 * r + 1):
                d = abs(dx) + abs(dy)
                if 1 <= d <= radius and lattice_contains(basis, rep[0] + dx, rep[1] + dy):
                    shells[d] = shells.get(d, 0) + 1
        out[alpha] = dict(sorted(shells.items()))
    return out


def find_density7_pattern() -> tuple[tuple, Callable[[int], Distribution]]:
    """First index-7 sublattice (in DENSITY7_BASES order) whose periodic
    single-pebble pattern has weight >= 1 at every vertex of the infinite
    grid, plus a generator realizing it on 7k x 7k tori."""
    for basis in DENSITY7_BASES:
        weights = density7_class_weights(basis)
        if min(weights.values()) >= 1:

            def gen(k: int, _basis=basis) -> Distribution:
                if k < 1:
                    raise GridError("torus scale k must be >= 1")
                spec = GridSpec(7 * k, 7 * k, TORUS)
                counts = {
                    v: 1 for v in spec.vertices() if lattice_contains(_basis, v.col, v.row)
                }
                return Distribution(spec, counts)

            return basis, gen
    raise GridError("no index-7 sublattice covers the grid in the fractional sense")


# -- block_composition ----------------------------------------------------


def gen_block_composition(n: int, m: int, inner: Distribution) -> Distribution:
    """Tile the n x n plane grid with k^2 translated copies of inner
    (n = km + r) and one pebble on each of the r^2 + 2rkm leftover
    vertices.  If inner is solvable on the m x m grid, the result is
    solvable on the n x n grid."""
    if inner.grid != GridSpec(m, m, PLANE):
        raise GridError(f"inner distribution must live on the {m}x{m} plane grid")
    if n < m:
        raise GridError("n must be >= m")
    k, r = divmod(n, m)
    spec = GridSpec(n, n, PLANE)
    counts: dict = {}
    for bi in range(k):
        for bj in range(k):
            for v, c in inner.items():
                counts[Vertex(v.col + bi * m, v.row + bj * m)] = (
                    counts.get(Vertex(v.col + bi * m, v.row + bj * m), 0) + c
                )
    for v in spec.vertices():
        if v.col >= k * m or v.row >= k * m:
            counts[v] = counts.get(v, 0) + 1
    return Distribution(spec, counts)


# -- the family registry --------------------------------------------------


def _diag7(width=14, height=14, topology=TORUS) -> Distribution:
    return gen_diag7(GridSpec(width, height, topology))


def _row_ones(k=2, width=None, height=5, topology=PLANE, with_unit2=False) -> Distribution:
    width = k + 5 if width is None else width
    return gen_row_ones(GridSpec(width, height, topology), k, with_unit2)


def _cascade_ones(k=2, width=None, height=5, topology=PLANE) -> Distribution:
    width = 2 * k + 3 if width is None else width
    d, u = gen_cascade_ones(GridSpec(width, height, topology), k)
    return d.combined(u)


def _uniform_frac(width=9, height=9, topology=TORUS, q=Fraction(1, 9)) -> ContinuousDistribution:
    return gen_uniform_frac(GridSpec(width, height, topology), q)


def _density7_frac(k=2) -> Distribution:
    _, gen = find_density7_pattern()
    return gen(k)


def _block_composition(inner, n=None, m=None) -> Distribution:
    """m defaults to the side of the inner grid, n to m."""
    m = inner.grid.width if m is None else m
    return gen_block_composition(m if n is None else n, m, inner)


#: The one list of families: family name -> generator.
FAMILIES: dict[str, Callable] = {
    "diag7": _diag7,
    "row_ones": _row_ones,
    "cascade_ones": _cascade_ones,
    "banded_rows": gen_banded_rows,
    "uniform_frac": _uniform_frac,
    "density7_frac": _density7_frac,
    "block_composition": _block_composition,
}


@dataclass(frozen=True)
class PatternSpec:
    """A family name from FAMILIES plus keyword parameters for its
    generator; a parameter left out takes the family's default."""

    family: str
    params: Mapping

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise GridError(f"unknown family {self.family!r}; known: {', '.join(FAMILIES)}")
        params = dict(self.params)
        accepted = inspect.signature(FAMILIES[self.family]).parameters
        unknown = sorted(params.keys() - accepted.keys())
        if unknown:
            raise GridError(
                f"{self.family} takes no parameter {', '.join(unknown)}; "
                f"it takes {', '.join(accepted)}"
            )
        missing = [p for p, a in accepted.items() if a.default is a.empty and p not in params]
        if missing:
            raise GridError(f"{self.family} needs parameter {', '.join(missing)}")
        object.__setattr__(self, "params", params)

    def generate(self):
        return FAMILIES[self.family](**self.params)
