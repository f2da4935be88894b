"""Grid/torus geometry and the pebble distribution data model.

Coordinates are integer (col, row) pairs with row 0 at the top in
serialized form.  Every distance, neighbour and ball is read from the
GridIndex that each GridSpec builds on first use and caches, the one place
that tells a torus from a plane.  All types are immutable value objects;
distributions store counts sparsely (vertices with zero pebbles are absent).
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterator, Mapping, NamedTuple, Union

PLANE = "plane"
TORUS = "torus"


class GridError(ValueError):
    """Invalid grid, vertex, or distribution input."""


class ParseError(GridError):
    """Malformed distribution file."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class Vertex(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True)
class GridSpec:
    """A finite rectangular grid, optionally with wrap-around (torus) edges."""

    width: int
    height: int
    topology: str = PLANE

    def __post_init__(self):
        if type(self.width) is not int or type(self.height) is not int:
            raise GridError(f"grid dimensions must be integers, got {self.width!r}x{self.height!r}")
        if self.width < 1 or self.height < 1:
            raise GridError(f"grid dimensions must be >= 1, got {self.width}x{self.height}")
        if self.topology not in (PLANE, TORUS):
            raise GridError(f"unknown topology {self.topology!r}")

    @property
    def size(self) -> int:
        return self.width * self.height

    def contains(self, v: Vertex) -> bool:
        return 0 <= v[0] < self.width and 0 <= v[1] < self.height

    def check(self, v) -> Vertex:
        try:
            v = Vertex(*v)
        except TypeError:
            raise GridError(f"vertex {v!r} is not a (col, row) pair") from None
        if type(v[0]) is not int or type(v[1]) is not int:
            raise GridError(f"vertex {tuple(v)} must have integer coordinates")
        if not self.contains(v):
            raise GridError(f"vertex {tuple(v)} out of bounds for {self.width}x{self.height} grid")
        return v

    def vertices(self) -> Iterator[Vertex]:
        for row in range(self.height):
            for col in range(self.width):
                yield Vertex(col, row)

    @cached_property
    def index(self) -> GridIndex:
        """The grid's distance and adjacency tables, built on first use."""
        return GridIndex(self)

    def distance(self, u, v) -> int:
        """Manhattan distance; on a torus each axis may wrap."""
        u, v = self.check(u), self.check(v)
        return self.index.cols[u[0]][v[0]] + self.index.rows[u[1]][v[1]]

    def neighbors(self, v) -> tuple[Vertex, ...]:
        return self.index.neighbors[self.check(v)]

    def ball(self, center, radius: int) -> frozenset[Vertex]:
        """All vertices at distance <= radius from center."""
        center = self.check(center)
        if radius < 0:
            raise GridError("radius must be non-negative")
        return self.index.ball(center, radius)


def _axis(n: int, wrap: bool) -> tuple[tuple[int, ...], ...]:
    """Distances between the n positions of one axis.  The only place that
    tells a torus from a plane: a torus axis wraps, a plane axis does not.
    Row a is one base row rotated by a on a cycle (the distance depends on
    (b - a) mod n alone), and on a path the slice of n - 1, ..., 1, 0, 1,
    ..., n - 1 that puts its 0 at b = a."""
    if wrap:
        base = tuple(min(k, n - k) for k in range(n))
        return tuple(base[n - a :] + base[: n - a] for a in range(n))
    base = tuple(range(n - 1, 0, -1)) + tuple(range(n))
    return tuple(base[n - 1 - a : 2 * n - 1 - a] for a in range(n))


def _axis_maps(dist) -> tuple[tuple[int, int], ...]:
    """The maps of one axis that preserve its distance table dist, as
    (sign, shift) for a -> (sign * a + shift) mod n: each shift that keeps
    the distances, alone and followed by the reflection.  A cycle (its ends
    adjacent) keeps them under every shift, a path only under 0; on a side
    of length 1 the reflection is the identity and is left out."""
    n = len(dist)
    shifts = range(n) if n > 2 and dist[0][n - 1] == 1 else range(1)
    maps = tuple(m for s in shifts for m in ((1, s), (-1, n - 1 - s)))
    return maps[:1] if n == 1 else maps


class Symmetry(NamedTuple):
    """An isometry of Z^2 or of a torus: (col, row) goes to (sc * col + c0,
    sr * row + r0), each mod its side on a torus, with the two coordinates
    exchanged after that when swap, where col = (sc, c0) and row = (sr,
    r0).  A grid automorphism of a plane needs no reduction: its shifts
    are 0 or the side less one."""

    col: tuple[int, int]
    row: tuple[int, int]
    swap: bool


class GridIndex:
    """Distances, adjacency and symmetries of one grid, read by every
    geometry query.

    Distance is additive over the axes, d(u, v) = cols[u.col][v.col] +
    rows[u.row][v.row], so two per-axis tables give every distance without
    a |V| x |V| matrix.  Likewise each symmetry is a map of each axis, so
    none is stored as a map of the vertices.  Arguments are not checked:
    GridSpec's distance, neighbors and ball check theirs and then read
    these tables."""

    def __init__(self, spec: GridSpec):
        self.wrap = wrap = spec.topology == TORUS
        self.width, self.height = spec.width, spec.height
        self.cols, self.rows = _axis(spec.width, wrap), _axis(spec.height, wrap)
        self.col_maps, self.row_maps = _axis_maps(self.cols), _axis_maps(self.rows)
        # the axis swap, on a square grid with more than one vertex
        self.swaps = (False, True) if spec.width == spec.height > 1 else (False,)

    def distances(self, t, vs) -> dict[Vertex, int]:
        """d(v, t) for each v in vs."""
        ct, rt = self.cols[t[0]], self.rows[t[1]]
        return {v: ct[v[0]] + rt[v[1]] for v in vs}

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertices by id, row-major (id = row * width + col): the order
        of GridSpec.vertices()."""
        w, h = self.width, self.height
        rows = chain.from_iterable(repeat(r, w) for r in range(h))
        return tuple(map(Vertex, list(range(w)) * h, rows))

    @cached_property
    def ids(self) -> dict[Vertex, int]:
        """Each vertex's id: the inverse of vertices."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbors(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """Each vertex's neighbours in sorted order: one step along one axis,
        to each b with table[a][b] == 1 in that axis's table."""
        # sc[a] and sr[a]: the positions one step from a on the column and the row axis
        sc = [[b for b, x in enumerate(a) if x == 1] for a in self.cols]
        sr = [[b for b, x in enumerate(a) if x == 1] for a in self.rows]
        near = (
            [Vertex(b, r) for b in sc[c]] + [Vertex(c, b) for b in sr[r]] for c, r in self.vertices
        )
        return dict(zip(self.vertices, map(tuple, map(sorted, near))))

    @cached_property
    def neighbor_ids(self) -> tuple[tuple[int, ...], ...]:
        """neighbors over ids: neighbor_ids[i] holds the ids of the
        neighbours of vertex i, in the order of neighbors."""
        ids, neighbors = self.ids, self.neighbors
        return tuple(tuple(ids[u] for u in neighbors[v]) for v in self.vertices)

    def ball(self, center, radius: int) -> frozenset[Vertex]:
        """The vertices at distance <= radius from center."""
        ct, rt = self.cols[center[0]], self.rows[center[1]]
        return frozenset(
            Vertex(c, r)
            for c, dc in enumerate(ct)
            if dc <= radius
            for r, dr in enumerate(rt)
            if dc + dr <= radius
        )

    # -- symmetries ------------------------------------------------------

    def symmetries(self) -> Iterator[Symmetry]:
        """Every automorphism of the grid, each vertex map once, in the order
        col map, row map, then plain before swapped."""
        for col in self.col_maps:
            for row in self.row_maps:
                for swap in self.swaps:
                    yield Symmetry(col, row, swap)

    def image(self, g: Symmetry, v) -> Vertex | None:
        """g(v), from the coordinates of v, or None when g, an isometry of
        Z^2 on a plane, sends v off the grid."""
        (sc, c0), (sr, r0) = g.col, g.row
        c, r = sc * v[0] + c0, sr * v[1] + r0
        if g.swap:
            c, r = r, c
        if self.wrap:
            return Vertex(c % self.width, r % self.height)
        return Vertex(c, r) if 0 <= c < self.width and 0 <= r < self.height else None

    def permutations(self) -> list[tuple[int, ...]]:
        """The symmetries as permutations p of vertex ids, p[id(v)] = id(g(v)).

        Each is built from the images of the two axes: (col, row) goes to
        id row' * width + col', or col' * width + row' when g swaps them."""
        w, h = self.width, self.height
        perms = []
        for (sc, c0), (sr, r0), swap in self.symmetries():
            cols = [(sc * c + c0) % w for c in range(w)]
            rows = [(sr * r + r0) % h for r in range(h)]
            # the image's row is scaled by width; a swap needs a square grid
            if swap:
                cols = [c * w for c in cols]
            else:
                rows = [r * w for r in rows]
            perms.append(tuple(r + c for r in rows for c in cols))
        return perms

    def stabiliser(self, counts: Mapping[Vertex, int]) -> list[Symmetry]:
        """The maps g with counts[g(v)] == counts[v] for every v: on a torus
        the grid automorphisms, and on a plane the isometries of Z^2, one of
        the 8 dihedral maps and a shift, which may send other vertices off
        the grid (image gives None there; reach keeps the maps that send no
        live vertex off).

        Each candidate is tested against the piles, stopping at the first
        mismatch.  On a torus the candidates are the maps that send one
        anchor pile, of the rarest count, onto a pile of the same count:
        given the signs of the axis maps and the swap, that pile fixes the
        shifts mod the sides.  On a plane g keeps the piles' bounding box,
        so it is one of the at most 8 maps of the box onto itself: each
        axis map sends the span of its axis onto the span of the axis it
        becomes, end to end or reversed."""
        piles = counts.items()
        if self.wrap:
            tally = Counter(counts.values())
            ac, ar = anchor = min(counts, key=lambda v: tally[counts[v]])
            col_maps, row_maps = set(self.col_maps), set(self.row_maps)

            def sending(maps, n, a, b):
                # the maps of an axis that send a to b: each sign fixes the shift
                return [m for m in ((1, (b - a) % n), (-1, (b + a) % n)) if m in maps]

            candidates = (
                Symmetry(col, row, swap)
                for (bc, br), c in piles
                if c == counts[anchor]
                for swap in self.swaps
                # g(anchor) is (col map(ac), row map(ar)), exchanged when swap
                for col in sending(col_maps, self.width, ac, br if swap else bc)
                for row in sending(row_maps, self.height, ar, bc if swap else br)
            )
        else:
            cols, rows = [v[0] for v in counts], [v[1] for v in counts]
            spans = (min(cols), max(cols)), (min(rows), max(rows))

            def onto(a, b):
                # the maps x -> s * x + shift that send span a onto span b
                return ((1, b[0] - a[0]), (-1, b[1] + a[0])) if a[1] - a[0] == b[1] - b[0] else ()

            candidates = (
                Symmetry(col, row, swap)
                for swap in (False, True)
                for col in onto(spans[0], spans[swap])
                for row in onto(spans[1], spans[not swap])
            )
        return [g for g in candidates if all(counts.get(self.image(g, v)) == c for v, c in piles)]


def rational(value, error: type[Exception] = GridError) -> Fraction:
    """value as an exact Fraction: a Fraction as is, else an int or a string
    Fraction reads ("3", "1/3", "0.25").  A float, a bool or anything else
    raises error (GridError unless a caller names its own input error), and
    so does an int or string whose numerator or denominator has more digits
    than sys.get_int_max_str_digits() lets a report write back ("1e-5000").

    A string's decimal exponent is bounded before Fraction computes its
    power of ten: with D digits in the mantissa, a nonzero value of exponent
    x has a part of more than |x| - D digits, so |x| > limit + len(value)
    is refused at once (a zero mantissa with it too)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise error(f"not an exact rational: {value!r}")
    limit = sys.get_int_max_str_digits()
    if limit and isinstance(value, str):
        _, e, exponent = value.lower().rpartition("e")
        try:
            far = bool(e) and abs(int(exponent)) > limit + len(value)
        except ValueError:  # not a decimal exponent: Fraction refuses the string below
            far = False
        if far:
            raise error(f"an exact rational too long to write back: over {limit} digits")
    try:
        value = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise error(f"not an exact rational: {value!r}") from None
    # a part of at most 3 * limit bits has at most limit digits (limit >= 640)
    if limit and max(value.numerator.bit_length(), value.denominator.bit_length()) > 3 * limit:
        exact_text(value, error)
    return value


def exact_text(value: int | Fraction, error: type[Exception] = GridError) -> str:
    """str(value), or error when a part of it has more digits than
    sys.get_int_max_str_digits() lets Python write: a value computed from
    amounts that each passed rational, such as a sum of two of them, can be
    too long to write although they are not."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise error(f"an exact rational too long to write back: over {limit} digits") from None


def _validate_counts(grid: GridSpec, counts: Mapping, integral: bool) -> dict:
    clean = {}
    for v, c in counts.items():
        v = grid.check(v)
        if integral:
            if not isinstance(c, int) or isinstance(c, bool):
                raise GridError(f"pebble count at {tuple(v)} must be an integer, got {c!r}")
        else:
            c = rational(c)
        if c < 0:
            raise GridError(f"negative pebble count at {tuple(v)}")
        if c > 0:
            if v in clean:
                raise GridError(f"duplicate vertex {tuple(v)}")
            clean[v] = c
    return clean


@dataclass(frozen=True)
class _Pebbles:
    """Sparse pebble amounts on a grid; vertices with none are absent.  Two
    are equal when they are of the same kind, on the same grid, with the
    same amounts."""

    grid: GridSpec
    counts: Mapping[Vertex, int | Fraction]
    _integral, _zero = True, 0

    def __post_init__(self):
        clean = _validate_counts(self.grid, self.counts, self._integral)
        object.__setattr__(self, "counts", clean)

    @property
    def size(self) -> int | Fraction:
        return sum(self.counts.values(), self._zero)

    @property
    def support(self) -> frozenset[Vertex]:
        """The units: vertices carrying at least one pebble."""
        return frozenset(self.counts)

    def get(self, v) -> int | Fraction:
        return self.counts.get(Vertex(*v), self._zero)

    def items(self):
        return self.counts.items()

    def dominates(self, other: "_Pebbles") -> bool:
        """True iff this has at least other's amount at every vertex."""
        if self.grid != other.grid:
            raise GridError("cannot compare distributions on different grids")
        return all(self.counts.get(v, 0) >= c for v, c in other.counts.items())

    def added_over(self, base: "_Pebbles") -> int | Fraction:
        """The pebbles this adds to base; GridError unless it dominates base and adds some."""
        if not self.dominates(base):
            raise GridError("extended distribution must dominate the base pointwise")
        added = self.size - base.size
        if added <= 0:
            raise GridError("extended distribution must add at least one pebble")
        return added

    def __eq__(self, other):
        return type(other) is type(self) and self.grid == other.grid and self.counts == other.counts

    def __hash__(self):
        return hash((self.grid, frozenset(self.counts.items())))


class Distribution(_Pebbles):
    """Sparse non-negative integer pebble counts on a grid."""

    def with_pebbles(self, v, k: int) -> "Distribution":
        """A copy with k extra pebbles at v (k may be negative down to zero)."""
        v = self.grid.check(v)
        counts = dict(self.counts)
        counts[v] = counts.get(v, 0) + k
        if counts[v] < 0:
            raise GridError(f"cannot remove {-k} pebbles from {tuple(v)}")
        if counts[v] == 0:
            del counts[v]
        return Distribution(self.grid, counts)

    def without_unit(self, v) -> "Distribution":
        v = self.grid.check(v)
        counts = {u: c for u, c in self.counts.items() if u != v}
        return Distribution(self.grid, counts)

    def combined(self, other: "Distribution") -> "Distribution":
        if self.grid != other.grid:
            raise GridError("cannot combine distributions on different grids")
        counts = dict(self.counts)
        for v, c in other.counts.items():
            counts[v] = counts.get(v, 0) + c
        return Distribution(self.grid, counts)


class ContinuousDistribution(_Pebbles):
    """Sparse exact-rational pebble amounts on a grid (all stored values > 0)."""

    _integral, _zero = False, Fraction(0)


AnyDistribution = Union[Distribution, ContinuousDistribution]


def parse_distribution(text: str) -> AnyDistribution:
    """Parse the line-oriented distribution format.

    Line 1: ``grid <width> <height> <plane|torus> [continuous]``
    Then:   ``pebble <col> <row> <count>`` where count is a positive integer,
            or a ``p/q`` rational when the header carries the ``continuous`` flag.
    ``#`` starts a comment; blank lines are ignored.
    """
    grid = None
    continuous = False
    counts: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if grid is None:
            if parts[0] != "grid":
                raise ParseError("expected 'grid <width> <height> <plane|torus>' header", line_no)
            if len(parts) not in (4, 5):
                raise ParseError("grid header needs width, height and topology", line_no)
            try:
                width, height = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("grid dimensions must be integers", line_no) from None
            if len(parts) == 5:
                if parts[4] != "continuous":
                    raise ParseError(f"unknown header flag {parts[4]!r}", line_no)
                continuous = True
            try:
                grid = GridSpec(width, height, parts[3])
            except GridError as e:
                raise ParseError(str(e), line_no) from None
            continue
        if parts[0] != "pebble":
            raise ParseError(f"unknown directive {parts[0]!r}", line_no)
        if len(parts) != 4:
            raise ParseError("expected 'pebble <col> <row> <count>'", line_no)
        try:
            v = Vertex(int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError("vertex coordinates must be integers", line_no) from None
        if not grid.contains(v):
            raise ParseError(f"vertex {tuple(v)} out of bounds", line_no)
        if v in counts:
            raise ParseError(f"duplicate vertex {tuple(v)}", line_no)
        try:
            c = rational(parts[3]) if continuous else int(parts[3])
        except ValueError:  # GridError included
            kind = "rational" if continuous else "integer"
            raise ParseError(f"bad {kind} count {parts[3]!r}", line_no) from None
        if c <= 0:
            raise ParseError("pebble count must be positive", line_no)
        counts[v] = c
    if grid is None:
        raise ParseError("missing grid header")
    if continuous:
        return ContinuousDistribution(grid, counts)
    return Distribution(grid, counts)


def serialize_distribution(d: AnyDistribution) -> str:
    """Canonical text form: header then pebble lines sorted by (row, col)."""
    continuous = isinstance(d, ContinuousDistribution)
    header = f"grid {d.grid.width} {d.grid.height} {d.grid.topology}"
    if continuous:
        header += " continuous"
    lines = [header]
    for v in sorted(d.support, key=lambda v: (v.row, v.col)):
        c = d.counts[v]
        lines.append(f"pebble {v.col} {v.row} {c}")
    return "\n".join(lines) + "\n"
