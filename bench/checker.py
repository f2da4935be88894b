"""Independent answer checks, run after the timed section of a pass.

The checks share no code with pebblekit's engines: pi_opt witnesses are
replayed by a breadth-first search over move sequences, LP witnesses are
re-weighed with a distance written here, and the unit-excess optimum goes
through ``verify_certificate``, which re-checks primal and dual
feasibility and strong duality.  Answers with no witness (coverage counts
and ceilings) are checked only against their frozen strings.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import pebblekit as pk


def _distance(width, height, torus, u, v):
    dc = abs(u[0] - v[0])
    dr = abs(u[1] - v[1])
    if torus:
        dc = min(dc, width - dc)
        dr = min(dr, height - dr)
    return dc + dr


def _neighbors(width, height, torus, v):
    out = set()
    for dc, dr in ((0, -1), (-1, 0), (1, 0), (0, 1)):
        c, r = v[0] + dc, v[1] + dr
        if torus:
            c, r = c % width, r % height
        elif not (0 <= c < width and 0 <= r < height):
            continue
        if (c, r) != v:
            out.add((c, r))
    return out


def check_pi_opt(answer: str, result) -> str | None:
    """The witness has the reported size and a pebble reaches every vertex
    in some state reachable from it."""
    spec, counts = result.witness.grid, result.witness.counts
    if sum(counts.values()) != int(answer):
        return f"witness has {sum(counts.values())} pebbles, answer is {answer}"
    width, height, torus = spec.width, spec.height, spec.topology == "torus"
    start = tuple(sorted(((v[0], v[1]), c) for v, c in counts.items()))
    seen = {start}
    covered = set()
    queue = deque([start])
    while queue:
        state = queue.popleft()
        pile = dict(state)
        covered.update(pile)
        for v, c in state:
            if c < 2:
                continue
            for u in _neighbors(width, height, torus, v):
                nxt = dict(pile)
                nxt[v] -= 2
                if not nxt[v]:
                    del nxt[v]
                nxt[u] = nxt.get(u, 0) + 1
                key = tuple(sorted(nxt.items()))
                if key not in seen:
                    seen.add(key)
                    queue.append(key)
    missing = width * height - len(covered)
    if missing:
        return f"witness leaves {missing} vertices unreachable"
    return None


def check_fractional(answer: str, dist) -> str | None:
    """Weight at least 1 at every vertex, and total mass equal to the value."""
    spec = dist.grid
    width, height, torus = spec.width, spec.height, spec.topology == "torus"
    mass = sum(dist.counts.values(), Fraction(0))
    if mass != Fraction(answer):
        return f"witness mass {mass} differs from the value {answer}"
    for col in range(width):
        for row in range(height):
            w = sum(
                c / 2 ** _distance(width, height, torus, (col, row), v)
                for v, c in dist.counts.items()
            )
            if w < 1:
                return f"weight {w} < 1 at {(col, row)}"
    return None


def check_unit_excess(answer: str, witness) -> str | None:
    problem, sol = witness
    if sol.objective_value != Fraction(answer):
        return f"objective {sol.objective_value} differs from the answer {answer}"
    if not pk.verify_certificate(problem, sol.primal, sol.dual):
        return "verify_certificate rejects the primal/dual pair"
    return None


def check(op, answer: str, witness) -> str | None:
    """None if the answer is right, else the reason it is rejected."""
    if answer != op.frozen:
        return f"answer {answer!r} differs from the frozen {op.frozen!r}"
    return op.check(answer, witness) if op.check else None
