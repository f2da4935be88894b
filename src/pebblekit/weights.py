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

Every weight of a distribution comes from one kernel, _kernel (one target
for weight and _infinite_weight, the live set for reach._Search), or from
its axis powers of two, _powers, as in dyadic_rows.  On both topologies a
distance is a column distance plus a row distance (|dcol| + |drow| on Z^2
and the plane; on a torus the sum of the two cycle distances,
GridIndex.cols and .rows), so 2^-d(u,v) = 2^-dcol * 2^-drow, the
Kronecker structure of lp.fractional_optimal_pebbling.  With the counts
scaled by the lcm L of their denominators, every weight is an integer
numerator over L * 2^(Ec+Er), Ec and Er the largest axis distances from a
target to a pile, and the kernel gets them all from packed integers.
Each of the C target columns owns a field of whole bytes in them, wide
enough for the f = (N << (Ec+Er)).bit_length() bits of N << (Ec+Er), N
the scaled total (1 if there are no piles).

* Column pass: support column c packs 2^(Ec - dcol) into each target
  column's field, and each support row sums k times its piles' packs:
  S big-integer multiply-adds for S piles.
* Row pass: target row r sums each support row's sum shifted left by
  Er - drow(r, row): R_t * R shifts and adds, R_t target rows against R
  support rows.  Field a of the result is then the numerator at (a, r).
* Extraction: one to_bytes per target row and one from_bytes of a byte
  slice per target, so linear in the row's width, where a shift and mask
  per target would copy the row each time.

That is S + R_t * R + T big-integer steps against C * S + T * R small
products for one sum per target column and then per target.  No field
carries into the next: every term added into a field is one pile's k
scaled pebbles times 2^(Ec - dcol) * 2^(Er - drow), so it is >= 0 and at
most k << (Ec+Er), and a field (and every partial sum in it) is at most
N << (Ec+Er) < 2^f, which its whole bytes hold.

Region lemma: with r = ceil(log2 |D|), a vertex farther than r from every
pile has W <= |D| * 2^-(r+1) <= 1/2, so infinite mode weighs only
infinite_excess_region, the vertices within r of the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
        w, x = self.weights, self.excess
        # weight_report shares one Fraction per distinct value: turn each object into a str once
        text = {id(q): str(q) for q in {id(q): q for q in (*w.values(), *x.values())}.values()}
        return {
            "rows": [
                {"vertex": [v.col, v.row], "w": text[id(w[v])], "excess": text[id(x[v])]}
                for v in sorted(w, key=lambda v: (v.row, v.col))
            ],
            "total_weight": str(self.total_weight),
            "total_excess": str(self.total_excess),
            "ceiling": str(self.ceiling),
        }


def _powers(table, targets, sources) -> tuple[int, dict]:
    """One axis's factors as powers of two: (e, x) with each factor
    2^(e - dist(a, b)) = 2^x[a][b] for a in targets and b in sources, e the
    largest such dist; dist(a, b) is table[a][b], or |a - b| on Z when
    table is None."""
    dist = {a: {b: abs(a - b) if table is None else table[a][b] for b in sources} for a in targets}
    e = max((x for row in dist.values() for x in row.values()), default=0)
    return e, {a: {b: e - x for b, x in row.items()} for a, row in dist.items()}


def _kernel(counts: dict, targets, spec: GridSpec | None = None) -> tuple[int, list[int]]:
    """The weights at targets of the piles in counts, by the packed passes
    of the module docstring on the axis distances of spec (GridIndex.cols
    and .rows), or of Z^2 when spec is None: (den, nums) with
    W(targets[i]) = nums[i] / den."""
    scale = math.lcm(*(c.denominator for c in counts.values()))
    by_row: dict[int, list] = {}
    for (c, r), k in counts.items():
        by_row.setdefault(r, []).append((c, k.numerator * (scale // k.denominator)))
    cols, rows = (spec.index.cols, spec.index.rows) if spec else (None, None)
    tcols = list(dict.fromkeys(u[0] for u in targets))
    # distances are symmetric, so cx[c] lists support column c's powers in tcols order
    ec, cx = _powers(cols, {v[0] for v in counts}, tcols)
    er, rx = _powers(rows, {u[1] for u in targets}, by_row)
    # a field holds at most total << (ec + er): size whole bytes hold it (one if no piles)
    total = sum(k for row in by_row.values() for _, k in row) or 1
    size = ((total << (ec + er)).bit_length() + 7) // 8
    field = [(1 << x).to_bytes(size, "little") for x in range(ec + 1)]
    colpack = {
        c: int.from_bytes(b"".join([field[x] for x in xs.values()]), "little") for c, xs in cx.items()
    }
    part = {b: sum(k * colpack[c] for c, k in row) for b, row in by_row.items()}
    packed = {}
    for r, xs in rx.items():
        packed[r] = sum(part[b] << x for b, x in xs.items()).to_bytes(size * len(tcols), "little")
    slot = {a: j * size for j, a in enumerate(tcols)}
    return scale << (ec + er), [
        int.from_bytes(packed[r][slot[c] : slot[c] + size], "little") for c, r in targets
    ]


def dyadic_rows(spec: GridSpec) -> tuple[int, list[tuple[int, ...]]]:
    """The grid's weights as integers over one denominator 2^D, D its
    largest distance: (2^D, rows) with rows[t][i] = 2^(D - d(t, i)) over
    vertex ids (GridIndex.vertices), so the weight at vertex id t under the
    count vector c is sum_i c[i] * rows[t][i] / 2^D, D = Ec + Er."""
    ec, cx = _powers(spec.index.cols, range(spec.width), range(spec.width))
    er, rx = _powers(spec.index.rows, range(spec.height), range(spec.height))
    verts = spec.index.vertices
    return 1 << (ec + er), [tuple(1 << (cx[c][i] + rx[r][j]) for i, j in verts) for c, r in verts]


def weight(d: AnyDistribution, u) -> Fraction:
    """sum_v D(v) * 2^-d(u,v) on the distribution's grid: the kernel on one target."""
    den, (num,) = _kernel(d.counts, [d.grid.check(u)], d.grid)
    return Fraction(num, den)


def excess(d: AnyDistribution, u) -> Fraction:
    """max(W(u) - 1, 0)."""
    return max(weight(d, u) - 1, Fraction(0))


def grid_weights(d: AnyDistribution) -> dict[Vertex, Fraction]:
    """The weight at every vertex of the distribution's grid."""
    den, nums = _kernel(d.counts, d.grid.index.vertices, d.grid)
    frac = _fractions(den, nums)
    return {u: frac[n] for u, n in zip(d.grid.index.vertices, nums)}


def _fractions(den: int, nums) -> dict[int, Fraction]:
    """Fraction(n, den) for each distinct n in nums, built once: a grid's
    weights take few distinct values."""
    return {n: Fraction(n, den) for n in set(nums)}


def weight_report(d: AnyDistribution) -> WeightReport:
    """Weights and excess at every grid vertex, with ceiling aggregates."""
    _nonempty(d)
    verts = d.grid.index.vertices
    den, nums = _kernel(d.counts, verts, d.grid)
    over = [max(n - den, 0) for n in nums]
    frac = _fractions(den, nums + over)
    return WeightReport(
        weights={u: frac[n] for u, n in zip(verts, nums)},
        excess={u: frac[x] for u, x in zip(verts, over)},
        total_weight=Fraction(sum(nums), den),
        total_excess=Fraction(sum(over), den),
        ceiling=Fraction(sum(nums) - sum(over), den) / d.size,
    )


def covering_ratio_ceiling(d: AnyDistribution) -> Fraction:
    """(sum_v min(W(v), 1)) / |D| on the distribution's grid."""
    return _ceiling_numerator(d) / d.size


def _infinite_weight(counts: dict, u: tuple) -> Fraction:
    """W(u) on the unbounded grid: infinite mode's one-vertex read."""
    den, (num,) = _kernel(counts, [u])
    return Fraction(num, den)


def infinite_excess_region(d: AnyDistribution) -> set[tuple]:
    """Vertices of the unbounded grid where W can exceed 1: within distance
    r = ceil(log2 |D|) of the support (the region lemma of the module
    docstring: outside, W <= |D| * 2^-(r+1) < 1)."""
    # 2^r >= |D| iff 2^r >= ceil(|D|), so this is ceil(log2 |D|), 0 for |D| <= 1
    radius = (math.ceil(d.size) - 1).bit_length()
    # each pile's diamond is a span of columns on each row within radius of it
    spans: dict[int, set] = {}
    for c0, r0 in d.support:
        for dr in range(-radius, radius + 1):
            w = radius - abs(dr)
            spans.setdefault(r0 + dr, set()).update(range(c0 - w, c0 + w + 1))
    return {(c, r) for r, cols in spans.items() for c in cols}


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
    added = dplus.added_over(d)
    return (_ceiling_numerator(dplus, infinite) - _ceiling_numerator(d, infinite)) / added


def fractional_solvable(dc: ContinuousDistribution | Distribution) -> bool:
    """True iff every vertex has weight at least 1 (exact comparison of the
    kernel's integers)."""
    den, nums = _kernel(dc.counts, dc.grid.index.vertices, dc.grid)
    return min(nums) >= den


def single_pebble_weight_total(radius: int) -> Fraction:
    """Partial sum of one pebble's weight contributions out to the given
    distance r on the unbounded grid: 1 + sum_{k<=r} 4k * 2^-k, in closed
    form 9 - 4(r+2) / 2^r.  Monotone increasing with limit 9.

    Proof: S(r) = sum_{k<=r} k * 2^-k = 2 - (r+2) * 2^-r, by induction on
    r: S(0) = 0 = 2 - 2, and S(r) + (r+1) * 2^-(r+1) = 2 - (2r+4 - r-1) *
    2^-(r+1) = 2 - (r+3) * 2^-(r+1).  So the sum is 1 + 4 S(r)."""
    if radius < 0:
        raise GridError("radius must be non-negative")
    return PEBBLE_TOTAL_WEIGHT - Fraction(4 * (radius + 2), 1 << radius)


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
