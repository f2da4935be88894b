"""Exact-rational weight function, excess weight, and ceiling accounting.

The weight of a vertex u under a distribution D is sum_v D(v) * 2^-d(u,v):
the fractional pebble mass movable to u.  Excess is max(W - 1, 0).

Note on the excess definition: an alternative piecewise convention returns
W itself when W <= 1.  That convention is inconsistent with the ceiling
fixtures this package reproduces (a single pile of 2 pebbles must have
ceiling 17/2, two adjacent piles of 2 must have 29/4), so max(W - 1, 0) is
used throughout and the ceiling numerator is equivalently sum_v min(W(v), 1).

Two evaluation modes exist and are never mixed:

* grid mode evaluates weights on the distribution's own finite grid
  (plane or torus distances);
* infinite mode reads the support coordinates as points of the unbounded
  square grid, where a single pebble's weight contribution over all
  vertices totals exactly 9 (the self-term 2^0 included), so the ceiling
  numerator is 9|D| minus the total excess over the finite region where
  W can exceed 1.

Both modes weigh with one kernel, _kernel.  On both topologies a distance
is a column distance plus a row distance (|dcol| + |drow| on Z^2 and the
plane; on a torus the sum of the two cycle distances, GridIndex.cols and
.rows), so 2^-d(u,v) = 2^-dcol * 2^-drow, the Kronecker structure of
lp.fractional_optimal_pebbling.  With the counts scaled by the lcm L of
their denominators, a column pass sums each support row's piles times
2^(Ec - dcol) at each target column and a row pass sums those times
2^(Er - drow) at each target: integer numerators over L * 2^(Ec+Er), Ec
and Er the largest axis distances, in O(C*S + T*R) for C target columns,
S piles, T targets and R support rows, where one sum over the piles per
target costs O(T*S).  With one pile per row (R = S) the row pass costs
that too, but as integer products, not a Fraction per target.

Region lemma: with r = ceil(log2 |D|), a vertex farther than r from every
pile has W <= |D| * 2^-(r+1) <= 1/2, so infinite mode weighs only
infinite_excess_region, the vertices within r of the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .grid import AnyDistribution, ContinuousDistribution, Distribution, GridError, GridSpec, Vertex

#: Total weight contribution of one pebble to the whole unbounded grid,
#: self-term included: 1 + sum_{k>=1} 4k * 2^-k = 9.
PEBBLE_TOTAL_WEIGHT = Fraction(9)


@dataclass(frozen=True)
class WeightReport:
    """Per-vertex weights and the ceiling aggregates for one distribution."""

    weights: dict[Vertex, Fraction]
    excess: dict[Vertex, Fraction]
    total_weight: Fraction
    total_excess: Fraction
    ceiling: Fraction

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "vertex": [v.col, v.row],
                    "w": str(self.weights[v]),
                    "excess": str(self.excess[v]),
                }
                for v in sorted(self.weights, key=lambda v: (v.row, v.col))
            ],
            "total_weight": str(self.total_weight),
            "total_excess": str(self.total_excess),
            "ceiling": str(self.ceiling),
        }


def dyadic_weight(terms) -> Fraction:
    """Exact sum of c * 2^-d over (count, distance) pairs.

    The sum is kept as one numerator over 2^D, D the largest distance, so
    each term costs a shift; counts may be ints or Fractions.  dyadic_rows
    and the gains of reach._Search are integer forms of the same sum."""
    terms = list(terms)
    top = max((dist for _, dist in terms), default=0)
    return Fraction(sum(c * (1 << (top - dist)) for c, dist in terms), 1 << top)


def _powers(table, targets, sources) -> tuple[int, dict]:
    """One axis's factors: (e, p) with p[a][b] = 2^(e - dist(a, b)) for a in
    targets and b in sources, e the largest such dist; dist(a, b) is
    table[a][b], or |a - b| on Z when table is None."""
    dist = {a: {b: abs(a - b) if table is None else table[a][b] for b in sources} for a in targets}
    e = max((x for row in dist.values() for x in row.values()), default=0)
    return e, {a: {b: 1 << (e - x) for b, x in row.items()} for a, row in dist.items()}


def _kernel(counts: dict, targets, spec: GridSpec | None = None) -> tuple[int, list[int]]:
    """The weights at targets of the piles in counts, by the two passes of
    the module docstring on the axis distances of spec (GridIndex.cols and
    .rows), or of Z^2 when spec is None: (den, nums) with W(targets[i]) =
    nums[i] / den."""
    scale = math.lcm(*(c.denominator for c in counts.values()))
    by_row: dict[int, list] = {}
    for (c, r), k in counts.items():
        by_row.setdefault(r, []).append((c, k.numerator * (scale // k.denominator)))
    cols, rows = (spec.index.cols, spec.index.rows) if spec else (None, None)
    ec, cp = _powers(cols, {u[0] for u in targets}, {v[0] for v in counts})
    er, rp = _powers(rows, {u[1] for u in targets}, by_row)
    part = {a: [sum(k * p[c] for c, k in row) for row in by_row.values()] for a, p in cp.items()}
    # rp[r] holds its factors in by_row's order, as each part[c] does
    return scale << (ec + er), [sum(map(mul, rp[r].values(), part[c])) for c, r in targets]


def dyadic_rows(spec: GridSpec) -> tuple[int, list[tuple[int, ...]]]:
    """The grid's weights as integers over one denominator 2^D, D its
    largest distance: (2^D, rows) with rows[t][i] = 2^(D - d(t, i)) over
    vertex ids (GridIndex.vertices), so the weight at vertex id t under the
    count vector c is sum_i c[i] * rows[t][i] / 2^D."""
    verts = spec.index.vertices
    dists = [list(spec.index.distances(t, verts).values()) for t in verts]
    top = max(map(max, dists))
    return 1 << top, [tuple(1 << (top - d) for d in row) for row in dists]


def weight(d: AnyDistribution, u) -> Fraction:
    """sum_v D(v) * 2^-d(u,v) on the distribution's grid."""
    u = d.grid.check(u)
    ct, rt = d.grid.index.cols[u[0]], d.grid.index.rows[u[1]]
    return dyadic_weight((c, ct[v[0]] + rt[v[1]]) for v, c in d.items())


def excess(d: AnyDistribution, u) -> Fraction:
    """max(W(u) - 1, 0)."""
    return max(weight(d, u) - 1, Fraction(0))


def grid_weights(d: AnyDistribution) -> dict[Vertex, Fraction]:
    """The weight at every vertex of the distribution's grid."""
    den, nums = _kernel(d.counts, d.grid.index.vertices, d.grid)
    return {u: Fraction(n, den) for u, n in zip(d.grid.index.vertices, nums)}


def weight_report(d: AnyDistribution) -> WeightReport:
    """Weights and excess at every grid vertex, with ceiling aggregates."""
    _nonempty(d)
    verts = d.grid.index.vertices
    den, nums = _kernel(d.counts, verts, d.grid)
    over = [max(n - den, 0) for n in nums]
    return WeightReport(
        weights={u: Fraction(n, den) for u, n in zip(verts, nums)},
        excess={u: Fraction(x, den) for u, x in zip(verts, over)},
        total_weight=Fraction(sum(nums), den),
        total_excess=Fraction(sum(over), den),
        ceiling=Fraction(sum(nums) - sum(over), den) / d.size,
    )


def covering_ratio_ceiling(d: AnyDistribution) -> Fraction:
    """(sum_v min(W(v), 1)) / |D| on the distribution's grid."""
    return _ceiling_numerator(d) / d.size


def _infinite_weight(counts: dict, u: tuple) -> Fraction:
    """W(u) on the unbounded grid, one sum over the piles: infinite mode's one-vertex read."""
    return dyadic_weight(
        (c, abs(u[0] - c0) + abs(u[1] - r0)) for (c0, r0), c in counts.items()
    )


def infinite_excess_region(d: AnyDistribution) -> set[tuple]:
    """Vertices of the unbounded grid where W can exceed 1: within distance
    r = ceil(log2 |D|) of the support (the region lemma of the module
    docstring: outside, W <= |D| * 2^-(r+1) < 1)."""
    # 2^r >= |D| iff 2^r >= ceil(|D|), so this is ceil(log2 |D|), 0 for |D| <= 1
    radius = (math.ceil(d.size) - 1).bit_length()
    diamond = GridSpec(2 * radius + 1, 2 * radius + 1).ball((radius, radius), radius)
    return {(c0 + c - radius, r0 + r - radius) for c0, r0 in d.support for c, r in diamond}


def ceiling_infinite(d: AnyDistribution) -> Fraction:
    """Covering ratio ceiling with the support read as a pattern on the
    unbounded grid: (9|D| - total excess) / |D|."""
    return _ceiling_numerator(d, infinite=True) / d.size


def _nonempty(d: AnyDistribution):
    if not d.counts:
        raise GridError("ceiling needs a non-empty distribution")


def _ceiling_numerator(d: AnyDistribution, infinite: bool = False) -> Fraction:
    """sum_v min(W(v), 1), the numerator of every ceiling.  In infinite mode
    it is 9|D| minus the total excess over infinite_excess_region, weighed
    on plane distances."""
    _nonempty(d)
    if infinite:
        den, nums = _kernel(d.counts, list(infinite_excess_region(d)))
        return PEBBLE_TOTAL_WEIGHT * d.size - Fraction(sum(n - den for n in nums if n > den), den)
    den, nums = _kernel(d.counts, d.grid.index.vertices, d.grid)
    return Fraction(sum(min(n, den) for n in nums), den)


def marginal_covering_ratio_ceiling(
    d: AnyDistribution, dplus: AnyDistribution, infinite: bool = False
) -> Fraction:
    """Change of the ceiling numerator per added pebble, both terms evaluated
    in the same mode."""
    if not dplus.dominates(d):
        raise GridError("extended distribution must dominate the base pointwise")
    added = dplus.size - d.size
    if added <= 0:
        raise GridError("extended distribution must add at least one pebble")
    return (_ceiling_numerator(dplus, infinite) - _ceiling_numerator(d, infinite)) / added


def fractional_solvable(dc: ContinuousDistribution | Distribution) -> bool:
    """True iff every vertex has weight at least 1 (exact comparison of the
    kernel's integers)."""
    den, nums = _kernel(dc.counts, dc.grid.index.vertices, dc.grid)
    return min(nums) >= den


def single_pebble_weight_total(radius: int) -> Fraction:
    """Partial sum of one pebble's weight contributions out to the given
    distance on the unbounded grid: 1 + sum_{k<=radius} 4k * 2^-k.
    Monotone increasing with limit 9."""
    if radius < 0:
        raise GridError("radius must be non-negative")
    return 1 + dyadic_weight((4 * k, k) for k in range(1, radius + 1))


#: Lower bound on the excess weight at a unit of size k in any distribution
#: that covers the grid in the fractional sense: (12/25) * k.
UNIT_EXCESS_LOWER_BOUND = Fraction(12, 25)

#: Implied upper bound on n^2 / |D|: 9 - 12/25.
IFCOV_UPPER_BOUND = PEBBLE_TOTAL_WEIGHT - UNIT_EXCESS_LOWER_BOUND


@dataclass(frozen=True)
class IfcovBoundReport:
    """Accounting for the bound 9|D| >= n^2 + (12/25)|D|."""

    size: int
    n_squared: int
    ratio: Fraction
    excess_lower_bound: Fraction
    actual_total_excess: Fraction
    bound_constant: Fraction
    violated: bool

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "n_squared": self.n_squared,
            "ratio": str(self.ratio),
            "excess_lower_bound": str(self.excess_lower_bound),
            "actual_total_excess": str(self.actual_total_excess),
            "bound_constant": str(self.bound_constant),
            "violated": self.violated,
        }


def ifcov_bound_report(d: Distribution, n: int) -> IfcovBoundReport:
    """Bound accounting for a distribution meant to cover an n x n grid in
    the fractional sense.  A violation (actual excess below the per-unit
    lower bound) would falsify the implementation, not the bound."""
    if d.size < 1:
        raise GridError("bound report needs a non-empty distribution")
    lower = UNIT_EXCESS_LOWER_BOUND * d.size
    actual = weight_report(d).total_excess
    return IfcovBoundReport(
        size=d.size,
        n_squared=n * n,
        ratio=Fraction(n * n, d.size),
        excess_lower_bound=lower,
        actual_total_excess=actual,
        bound_constant=IFCOV_UPPER_BOUND,
        violated=actual < lower,
    )
