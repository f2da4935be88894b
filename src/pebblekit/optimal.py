"""Exact optimal pebbling numbers for small grids by exhaustive search.

The search runs size-first iterative deepening: for s = 1, 2, ... it
enumerates all pebble distributions of total size s up to the grid's
symmetry group (rotations and reflections of the rectangle, plus the
translations of a torus) and tests solvability with the reachability
engine.  The first size with a solvable distribution is the optimal
pebbling number, and exhaustion of the smaller sizes is the minimality
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grid import Distribution, GridError, GridSpec, PLANE, Vertex
from .reach import DEFAULT_NODE_CAP, is_solvable

#: Largest vertex count attempted by the exhaustive search.
MAX_SEARCH_VERTICES = 16


class SearchBudgetExceeded(RuntimeError):
    """The exhaustive search would exceed the supported scale."""

    def __init__(self, spec: GridSpec, lower: int, upper: int | None):
        msg = f"optimal search not supported on {spec.width}x{spec.height} {spec.topology}"
        msg += f"; known bounds: {lower} <= pi_opt"
        if upper is not None:
            msg += f" <= {upper}"
        super().__init__(msg)
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class OptimalResult:
    """Exact optimal pebbling number with a witness and search statistics."""

    spec: GridSpec
    pi_opt: int
    witness: Distribution
    candidates_tested: int


def _symmetries(spec: GridSpec):
    """Vertex permutations generating the grid's automorphisms used for
    canonicalization: the dihedral maps of the rectangle (only the ones
    preserving the shape) and torus translations."""
    w, h = spec.width, spec.height
    maps = []
    flips = [
        lambda c, r: (c, r),
        lambda c, r: (w - 1 - c, r),
        lambda c, r: (c, h - 1 - r),
        lambda c, r: (w - 1 - c, h - 1 - r),
    ]
    swaps = []
    if w == h:
        swaps = [lambda c, r: (r, c)]
    shifts = [(0, 0)]
    if spec.topology != PLANE:
        shifts = [(dc, dr) for dc in range(w) for dr in range(h)]
    for dc, dr in shifts:
        for f in flips:
            maps.append(lambda c, r, f=f, dc=dc, dr=dr: f((c + dc) % w, (r + dr) % h))
            for s in swaps:
                maps.append(
                    lambda c, r, f=f, s=s, dc=dc, dr=dr: s(*f((c + dc) % w, (r + dr) % h))
                )
    return maps


def _canonical(counts: tuple, maps) -> tuple:
    """Lexicographically smallest image of a sorted ((col,row),count) tuple
    under the symmetry maps."""
    best = counts
    for f in maps:
        image = tuple(sorted(((f(c, r), k) for (c, r), k in counts)))
        if image < best:
            best = image
    return best


def _distributions_of_size(spec: GridSpec, s: int, maps):
    """All distributions of total size s, one per symmetry orbit."""
    verts = [(v.col, v.row) for v in spec.vertices()]
    seen = set()

    def rec(idx: int, remaining: int, placed: list):
        if remaining == 0:
            key = tuple(placed)
            canon = _canonical(key, maps)
            if canon not in seen:
                seen.add(canon)
                yield dict((Vertex(c, r), k) for (c, r), k in key)
            return
        if idx == len(verts):
            return
        # leave verts[idx] empty, or put 1..remaining pebbles on it
        yield from rec(idx + 1, remaining, placed)
        for k in range(1, remaining + 1):
            placed.append((verts[idx], k))
            yield from rec(idx + 1, remaining - k, placed)
            placed.pop()

    yield from rec(0, s, [])


def optimal_pebbling_number(
    spec: GridSpec, node_cap: int = DEFAULT_NODE_CAP
) -> OptimalResult:
    """Exact optimal pebbling number of the grid, by exhaustion."""
    if spec.size > MAX_SEARCH_VERTICES:
        raise SearchBudgetExceeded(spec, 1, None)
    maps = _symmetries(spec)
    tested = 0
    s = 0
    while True:
        s += 1
        for counts in _distributions_of_size(spec, s, maps):
            tested += 1
            d = Distribution(spec, counts)
            if is_solvable(d, node_cap):
                return OptimalResult(spec=spec, pi_opt=s, witness=d, candidates_tested=tested)


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
