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

Every weight of a distribution comes from one kernel, _kernel, on a
window: C distinct target columns, in any order, times R_t distinct target
rows, ascending (the whole grid for the grid-mode reads, one vertex for
weight and _infinite_weight, the columns and rows near a pile's, _window,
for infinite mode and reach._Search's live set), or from its axis powers
of two, _powers, as in dyadic_rows.  On both topologies a distance is a
column distance plus a row distance (|dcol| + |drow| on Z^2 and the
plane; on a torus the sum of the two cycle distances, GridIndex.cols and
.rows), so 2^-d(u,v) = 2^-dcol * 2^-drow, the Kronecker structure of
lp.fractional_optimal_pebbling.  With the counts scaled by the lcm L of
their denominators, every weight is an integer numerator over
L * 2^(Ec+Er), Ec and Er the largest axis distances from a window vertex
to a pile, and the kernel gets them all from packed integers.  Each of
the C window columns owns a field of whole bytes in them, wide enough for
the f = (N << (Ec+Er)).bit_length() bits of N << (Ec+Er), N the scaled
total (1 if there are no piles).

* Column pass: support column c packs 2^(Ec - dcol) into each window
  column's field, and each support row sums k times its piles' packs:
  S big-integer multiply-adds for S piles.
* Row pass: target row r sums each support row b's sum shifted left by
  Er - drow(r, b), by two geometric scans over the rows (_scan), one up
  for the support rows with 0 <= r - b, one down for those with
  1 <= b - r.  A scan keeps acc, and at each next row p it subtracts the
  support rows that the gap takes past the span of Er (on a cycle of
  height H, Er up and min(Er, ceil(H/2) - 1) down, so a tie at H/2 counts
  once), shifts acc right by the gap, and adds a support row's sum shifted
  left by Er: acc = (acc >> gap) + (part[p] << Er).  At a target row acc
  holds part[b] << (Er - |r - b|) for each support row b in the span,
  the cycle read at b and one turn back (up) or ahead (down).  Field a of
  the two scans' sum is then the numerator at (a, r).  The spans drop
  no term that r needs, since drow(r, b) <= Er for every pair, and on a
  cycle a distance read up the rows is the cycle distance up to H/2, and
  one read down it below H/2; a span shorter than H holds one copy of
  a support row at a time.
* Extraction: one to_bytes per target row, read out whole, row by row,
  so the numerators come in window order with no lookup per vertex.  A
  field of at most 8 bytes is padded to one 64-bit word, so the row's
  bytes read back as one list of its numerators, a memoryview cast to
  unsigned 64-bit items (_words); a wider field, which no item type holds,
  is read by one from_bytes of a byte slice per field.  Either read is
  linear in the row's width, where a shift and mask per field would copy
  the row each time.

That is S + O(R_t + R) + R_t big-integer steps for S piles, R_t target
rows and R support rows when the fields fit a word, and S + O(R_t + R) +
C * R_t when they do not, one slice per field of the window: each scan
visits only the rows that hold a pile or a target, each support row at
most twice per scan, and each is subtracted at most once.  A shift-add per
pair of target and support row took S + R_t * R + C * R_t, and one sum per
target column and then per target C * S + C * R_t * R small products.

No field carries into the next.  Every term added into a field is one
pile's k scaled pebbles times 2^(Ec - dcol) * 2^(Er - drow), so it is >= 0
and at most k << (Ec+Er), and a field (and every partial sum in it) is at
most N << (Ec+Er) < 2^f, which its whole bytes hold; a scan's acc holds
each pile's term at most once, so this bounds it too.  In a scan, every
term still in acc after the subtractions is within the span, drow <=
Er, at the next row, so its exponent Er - drow is >= 0 there: before the
shift by the gap it was a multiple of 2^gap in its field, so the shift
moves no bit into the field below.  A subtraction takes out a term that
acc holds, at its exponent >= 0 at the row before, so no field borrows
from the next.

Region lemma: with r = ceil(log2 |D|), a vertex farther than r from every
pile has W <= |D| * 2^-(r+1) <= 1/2, so no excess.  Infinite mode weighs
the window of the columns within r of a pile's column by the rows within
r of a pile's row.  It holds every vertex within r of a pile, since such a
vertex's column and row are each within r of that pile's, and the rest of
the window adds no excess.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .grid import (
    TORUS,
    AnyDistribution,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    Vertex,
    exact_text,
)

#: Total weight contribution of one pebble to the whole unbounded grid,
#: self-term included: 1 + sum_{k>=1} 4k * 2^-k = 9.
PEBBLE_TOTAL_WEIGHT = Fraction(9)

#: Bytes of one "Q" item, a C unsigned long long: 8 on every CPython platform.
_WORD = 8


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
        shared = {id(q): q for q in (*w.values(), *x.values())}
        text = {i: exact_text(q) for i, q in shared.items()}
        return {
            "rows": [
                {"vertex": [v.col, v.row], "w": text[id(w[v])], "excess": text[id(x[v])]}
                for v in sorted(w, key=itemgetter(1, 0))
            ],
            "total_weight": exact_text(self.total_weight),
            "total_excess": exact_text(self.total_excess),
            "ceiling": exact_text(self.ceiling),
        }


def _powers(table, sources, targets) -> tuple[int, list[list[int]]]:
    """One axis's factors as powers of two: (e, x) with each factor
    2^(e - dist(a, b)) = 2^x[i][j] for the i-th a in sources and the j-th b
    in targets, e the largest such dist; dist(a, b) is table[a][b], or
    |a - b| on Z when table is None."""
    if table is None:
        dist = [[abs(a - b) for b in targets] for a in sources]
    else:
        dist = [list(map(table[a].__getitem__, targets)) for a in sources]
    e = max(chain.from_iterable(dist), default=0)
    return e, [[e - x for x in row] for row in dist]


def _window(table, centres, radius: int) -> list[int]:
    """The positions of one axis within radius of some centre, ascending: b
    with table[a][b] <= radius for a centre a, or |a - b| <= radius on Z
    when table is None."""
    if table is None:
        return sorted({b for a in set(centres) for b in range(a - radius, a + radius + 1)})
    return sorted({b for a in set(centres) for b, x in enumerate(table[a]) if x <= radius})


def _kernel(counts: dict, tcols, trows, spec: GridSpec | None = None) -> tuple[int, list[int]]:
    """The weights of the piles in counts on the window tcols x trows
    (distinct columns in any order, distinct rows ascending), by the packed
    passes of the module docstring on the axis distances of spec
    (GridIndex.cols and .rows), or of Z^2 when spec is None: (den, nums)
    row by row, W(tcols[j], trows[i]) = nums[i * len(tcols) + j] / den."""
    scale = math.lcm(*(c.denominator for c in counts.values()))
    if not (tcols and trows):
        return scale, []
    by_row: dict[int, list] = {}
    for (c, r), k in counts.items():
        by_row.setdefault(r, []).append((c, k.numerator * (scale // k.denominator)))
    scols = list({v[0] for v in counts})
    ec, cx = _powers(spec.index.cols if spec else None, scols, tcols)
    cycle = spec.height if spec and spec.topology == TORUS else None
    if not by_row:
        er = 0
    elif cycle:
        er = max(max(map(spec.index.rows[t].__getitem__, by_row)) for t in trows)
    else:
        er = max(trows[-1] - min(by_row), max(by_row) - trows[0])
    # a field holds at most total << (ec + er): size whole bytes hold it, and
    # a field of at most one word is padded to it, so a row reads as one list of words
    total = sum(k for row in by_row.values() for _, k in row) or 1
    size = max(((total << (ec + er)).bit_length() + 7) // 8, _WORD)
    # one field's bytes for each power of two that a column pack uses
    field = {x: (1 << x).to_bytes(size, "little") for x in set().union(*cx)}
    colpack = {
        c: int.from_bytes(b"".join(map(field.__getitem__, xs)), "little")
        for c, xs in zip(scols, cx)
    }
    part = {b: sum(k * colpack[c] for c, k in row) for b, row in by_row.items()}
    den, width = scale << (ec + er), size * len(tcols)
    rows = _row_pass(part, trows, er, cycle)
    if size == _WORD:
        return den, [w for n in rows for w in _words(n, width)]
    # a field wider than a word fits no "Q" item: one slice per field, row by row
    data = b"".join(n.to_bytes(width, "little") for n in rows)
    return den, [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


def _words(n: int, width: int) -> list[int]:
    """The fields of _WORD bytes of n, width bytes wide, lowest first: n
    written in the host's byte order and read back as "Q" items, which on a
    big-endian host come highest first."""
    words = memoryview(n.to_bytes(width, sys.byteorder)).cast("Q").tolist()
    return words if sys.byteorder == "little" else words[::-1]


def _row_pass(part: dict, trows, e: int, cycle: int | None) -> list[int]:
    """sum_b part[b] << (e - drow(r, b)) for each r of the ascending,
    non-empty target rows trows, e their largest row distance to a support
    row b, drow on a cycle of `cycle` rows or on Z: one scan up the rows for
    the support rows b with 0 <= r - b <= e, one scan down for those with
    1 <= b - r, each b read on a cycle at b and one turn back (up) or ahead
    (down)."""
    lo, hi = trows[0], trows[-1]
    turns = (0,) if cycle is None else (0, cycle)
    # down the rows a tie at cycle/2 was already counted up them
    ahead = e if cycle is None else min(e, (cycle - 1) // 2)
    up = [(b - s, v) for b, v in part.items() for s in turns if lo - e <= b - s <= hi]
    down = [(-b - s, v) for b, v in part.items() for s in turns if lo <= b + s <= hi + ahead]
    # a support row on a target row counts up the rows (distance 0), not down them
    up += [(r, None) for r in trows]
    down += [(-r, None) for r in trows]
    up = _scan(sorted(up, key=lambda ev: (ev[0], ev[1] is None)), e, e)
    down = _scan(sorted(down, key=lambda ev: (ev[0], ev[1] is not None)), ahead, e)
    return [a + b for a, b in zip(up, reversed(down))]


def _scan(events, span: int, e: int) -> list[int]:
    """One geometric scan over events (p, v) in order of p, v None at a
    target: acc = (acc >> gap) + (v << e) at each pile, and at each target
    t the sum of v << (e - (t - p)) over the piles before it with t - p <=
    span <= e.  A pile that leaves the span is subtracted before the
    shift, so each term left is a multiple of 2^gap in its own field."""
    acc, at, live, out = 0, events[0][0], deque(), []
    for p, v in events:
        while live and p - live[0][0] > span:
            b, w = live.popleft()
            acc -= w << (e - (at - b))
        acc >>= p - at
        at = p
        if v is None:
            out.append(acc)
        else:
            acc += v << e
            live.append((p, v))
    return out


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
    """sum_v D(v) * 2^-d(u,v) on the distribution's grid: the kernel on the
    window of u's column by u's row."""
    c, r = d.grid.check(u)
    den, (num,) = _kernel(d.counts, [c], [r], d.grid)
    return Fraction(num, den)


def excess(d: AnyDistribution, u) -> Fraction:
    """max(W(u) - 1, 0)."""
    return max(weight(d, u) - 1, Fraction(0))


def grid_weights(d: AnyDistribution) -> dict[Vertex, Fraction]:
    """The weight at every vertex of the distribution's grid."""
    den, nums = _kernel(d.counts, range(d.grid.width), range(d.grid.height), d.grid)
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
    den, nums = _kernel(d.counts, range(d.grid.width), range(d.grid.height), d.grid)
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
    """W(u) on the unbounded grid: infinite mode's one-vertex read, the
    kernel on the window of u's column by u's row."""
    den, (num,) = _kernel(counts, [u[0]], [u[1]])
    return Fraction(num, den)


def ceiling_infinite(d: AnyDistribution) -> Fraction:
    """Covering ratio ceiling with the support read as a pattern on the
    unbounded grid: (9|D| - total excess) / |D|."""
    return _ceiling_numerator(d, infinite=True) / d.size


def _nonempty(d: AnyDistribution):
    if not d.counts:
        raise GridError("ceiling needs a non-empty distribution")


def _ceiling_numerator(d: AnyDistribution, infinite: bool = False) -> Fraction:
    """sum_v min(W(v), 1), the numerator of every ceiling.  In infinite mode
    it is 9|D| minus the total excess over the window of the columns and
    rows within r = ceil(log2 |D|) of a pile's (the region lemma of the
    module docstring), weighed on Z^2."""
    _nonempty(d)
    if infinite:
        # 2^r >= |D| iff 2^r >= ceil(|D|), so this is ceil(log2 |D|), 0 for |D| <= 1
        r = (math.ceil(d.size) - 1).bit_length()
        den, nums = _kernel(d.counts, *(_window(None, axis, r) for axis in zip(*d.counts)))
        return PEBBLE_TOTAL_WEIGHT * d.size - Fraction(sum(n - den for n in nums if n > den), den)
    den, nums = _kernel(d.counts, range(d.grid.width), range(d.grid.height), d.grid)
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
    den, nums = _kernel(dc.counts, range(dc.grid.width), range(dc.grid.height), dc.grid)
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
