"""Command-line front end.

``pebblekit <gen|analyze|reach|lp|optimal|verify-paper|render> [flags]``

All rational values serialize as exact "p/q" strings; JSON reports carry
a ``schema`` version field.  ``verify-paper`` runs the built-in fixture
suite and exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from . import constructions, lp, optimal, reach, weights
from .grid import (
    PLANE,
    TORUS,
    Distribution,
    GridError,
    GridSpec,
    Vertex,
    exact_text,
    parse_distribution,
    rational,
    serialize_distribution,
)

SCHEMA = "pebblekit-report/1"


def _write(text: str, out_path: str | None):
    """Write text to the --out file, or to stdout when there is none."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exact(value) -> str:
    """json.dumps's fallback, the one way out for an exact value: a Fraction as "p/q"."""
    if isinstance(value, Fraction):
        return exact_text(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _emit(payload: dict, out_path: str | None):
    _write(json.dumps(payload, indent=2, sort_keys=True, default=_exact) + "\n", out_path)


def _load(path: str):
    with open(path) as fh:
        return parse_distribution(fh.read())


# -- gen ------------------------------------------------------------------


def cmd_gen(args) -> int:
    # the gen parser leaves unset flags out, so the family's defaults apply
    params = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "family", "out")
    }
    for flag, topology in (("torus", TORUS), ("plane", PLANE)):
        if flag in params:
            params["width"], params["height"] = params.pop(flag)
            params["topology"] = topology
    if "inner" in params:
        params["inner"] = _load(params["inner"])
    dist = constructions.PatternSpec(args.family.replace("-", "_"), params).generate()
    _write(serialize_distribution(dist), args.out)
    return 0


# -- analyze / reach ------------------------------------------------------


def cmd_analyze(args) -> int:
    if args.infinite_mode and not args.ceiling:
        raise GridError("--infinite-mode needs --ceiling: it sets the mode of the ceiling only")
    dist = _load(args.file)
    report: dict = {
        "schema": SCHEMA,
        "grid": [dist.grid.width, dist.grid.height, dist.grid.topology],
        "size": dist.size,
    }
    if args.coverage:
        cov = reach.coverage(dist, args.node_cap)
        report["coverage"] = {
            "cov": cov.cov,
            "ratio": cov.ratio,
            "reachable": sorted([v.col, v.row] for v in cov.reachable),
            "boundary": sorted([v.col, v.row] for v in cov.boundary),
        }
    if args.weights:
        rep = weights.weight_report(dist)
        report["weights"] = rep.to_json()
    if args.ceiling:
        if args.infinite_mode:
            report["ceiling"] = weights.ceiling_infinite(dist)
        elif args.weights:
            # the report already holds the grid-mode ceiling: no second kernel call
            report["ceiling"] = rep.ceiling
        else:
            report["ceiling"] = weights.covering_ratio_ceiling(dist)
    _emit(report, args.out)
    return 0


def cmd_reach(args) -> int:
    dist = _load(args.file)
    t = Vertex(args.target[0], args.target[1])
    ok = reach.can_move_k(dist, t, args.k, args.node_cap)
    _emit(
        {"schema": SCHEMA, "target": [t.col, t.row], "k": args.k, "reachable": ok},
        args.out,
    )
    return 0 if ok else 1


# -- lp -------------------------------------------------------------------


def _unit_excess() -> tuple[lp.LpSolution, bool]:
    """The unit-excess LP's solution and whether its certificate checks."""
    problem = lp.unit_excess_problem()
    sol = lp.solve(problem)
    return sol, lp.verify_certificate(problem, sol.primal, sol.dual)


def cmd_lp(args) -> int:
    if args.problem == "unit-excess":
        sol, verified = _unit_excess()
        _emit(
            {
                "schema": SCHEMA,
                "problem": "unit-excess",
                "solution": dataclasses.asdict(sol),
                "certificate_verified": verified,
                "implied_ratio_bound": weights.IFCOV_UPPER_BOUND,
            },
            args.out,
        )
        return 0
    spec = GridSpec(args.width, args.height, TORUS if args.torus else PLANE)
    value, witness = lp.fractional_optimal_pebbling(spec)
    _emit(
        {
            "schema": SCHEMA,
            "problem": "fractional-optimal",
            "grid": [spec.width, spec.height, spec.topology],
            "value": value,
            "witness": {f"{v.col},{v.row}": c for v, c in sorted(witness.items())},
            "fractional_solvable": weights.fractional_solvable(witness),
        },
        args.out,
    )
    return 0


# -- optimal --------------------------------------------------------------


def cmd_optimal(args) -> int:
    rows = []
    max_n = 3 if args.max_n is None else args.max_n
    if args.grid:
        specs = [GridSpec(args.grid[0], args.grid[1])]
    elif max_n < 1:
        raise GridError(f"--max-n must be >= 1, got {max_n}")
    else:
        specs = [GridSpec(n, n) for n in range(1, max_n + 1)]
    for spec in specs:
        result = optimal.optimal_pebbling_number(spec, args.node_cap)
        rows.append(
            {
                "grid": [spec.width, spec.height],
                "pi_opt": result.pi_opt,
                "ratio": Fraction(result.pi_opt, spec.size),
                "witness": {
                    f"{v.col},{v.row}": c for v, c in sorted(result.witness.items())
                },
                "candidates_tested": result.candidates_tested,
                "per_size": [row._asdict() for row in result.per_size],
            }
        )
        print(
            f"{spec.width}x{spec.height}  pi_opt={result.pi_opt}  "
            f"ratio={Fraction(result.pi_opt, spec.size)}",
            file=sys.stderr,
        )
    _emit({"schema": SCHEMA, "results": rows}, args.out)
    return 0


# -- verify-paper ---------------------------------------------------------


def _coverage_9x9(counts: dict) -> str:
    c = reach.coverage(Distribution(GridSpec(9, 9), counts))
    return f"cov={c.cov} ratio={c.ratio}"


def _ceiling_9x9(counts: dict) -> str:
    return str(weights.ceiling_infinite(Distribution(GridSpec(9, 9), counts)))


def _unit_excess_check() -> str:
    sol, verified = _unit_excess()
    return f"value={sol.objective_value} certified={verified}"


def _banded_rows_base() -> str:
    d = constructions.gen_banded_rows(1, 1)
    return f"ratio={reach.coverage(d).ratio} ceiling={weights.covering_ratio_ceiling(d)}"


def _solvable_at_ratio(d: Distribution) -> str:
    return f"solvable={reach.is_solvable(d)} ratio={Fraction(d.grid.size, d.size)}"


def _banded_rows_row5() -> str:
    d = constructions.gen_banded_rows(1, 1, augmented=True)
    ok = all(reach.can_move_k(d, Vertex(c, 5), 4) for c in range(3))
    return f"four_pebbles_everywhere_row5={ok}"


def _diag7_torus() -> str:
    d = constructions.gen_diag7(GridSpec(14, 14, TORUS))
    return f"size={d.size} {_solvable_at_ratio(d)}"


def _density7() -> str:
    basis, _ = constructions.find_density7_pattern()
    wmin = min(constructions.density7_class_weights(basis).values())
    b_sum = min(
        sum(Fraction(k, 1 << dd) for dd, k in shells.items())
        for alpha, shells in constructions.density7_class_profile(basis).items()
        if alpha != 0
    )
    return f"min_weight_ge_1={wmin >= 1} min_truncated_class_sum={b_sum}"


def _uniform_ninth() -> str:
    d = constructions.gen_uniform_frac(GridSpec(9, 9, TORUS), Fraction(1, 9))
    w = weights.weight(d, Vertex(0, 0))
    return f"torus_weight={w} below_one={w < 1}"


def _fractional_optimum(spec: GridSpec) -> str:
    value, witness = lp.fractional_optimal_pebbling(spec)
    return f"value={value} solvable={weights.fractional_solvable(witness)}"


def _row_ones_marginal() -> str:
    spec = GridSpec(23, 7)
    base = constructions.gen_row_ones(spec, 16)
    plus = constructions.gen_row_ones(spec, 16, with_unit2=True)
    m = reach.marginal_covering_ratio(base, plus)
    return f"marginal={m} exceeds_17_4={m > Fraction(17, 4)}"


def _cascade_marginal_k6() -> str:
    base, unit = constructions.gen_cascade_ones(GridSpec(17, 7), 6)
    cov_base, cov_plus = reach.coverage(base).cov, reach.coverage(base.combined(unit)).cov
    return f"cov={cov_base}->{cov_plus} marginal={Fraction(cov_plus - cov_base, unit.size)}"


def _pi_opt(n: int) -> int:
    return optimal.optimal_pebbling_number(GridSpec(n, n)).pi_opt


def _pi_opt_3x3() -> str:
    pi = _pi_opt(3)
    lower, upper = lp.fractional_optimum(GridSpec(3, 3)), optimal.composition_upper_bound(3, 1, 1)
    return f"3x3={pi} within_bounds={lower <= pi <= upper}"


#: The fixture suite, one (claim, anchor, provenance, expected, compute) row
#: per check; provenance is paper, derived or trivial.  A check passes iff
#: compute() returns the expected string.
CHECKS = (
    ("cov-single-2unit", "covering ratio of a single size-2 unit", "paper",
     "cov=5 ratio=5/2", lambda: _coverage_9x9({Vertex(4, 4): 2})),
    ("cov-two-adjacent-2units", "covering ratio of two adjacent size-2 units", "paper",
     "cov=8 ratio=2", lambda: _coverage_9x9({Vertex(4, 4): 2, Vertex(5, 4): 2})),
    ("ceiling-single-2unit", "infinite-mode covering ratio ceiling of a size-2 unit", "paper",
     "17/2", lambda: _ceiling_9x9({Vertex(4, 4): 2})),
    ("ceiling-two-adjacent-2units", "infinite-mode ceiling of two adjacent size-2 units",
     "paper", "29/4", lambda: _ceiling_9x9({Vertex(4, 4): 2, Vertex(5, 4): 2})),
    ("unit-excess-lp", "minimum excess weight at a covered unit", "paper",
     "value=12/25 certified=True", _unit_excess_check),
    ("ifcov-bound-constant", "implied ratio bound 9 - 12/25", "paper",
     "213/25", lambda: str(weights.IFCOV_UPPER_BOUND)),
    ("single-pebble-weight-total", "partial sums of one pebble's total weight approach 9",
     "paper", "within_tolerance=True",
     lambda: f"within_tolerance={9 - weights.single_pebble_weight_total(30) <= 2**-20}"),
    ("banded-rows-base", "banded-rows base covering ratio and ceiling (n=m=1)", "paper",
     "ratio=1 ceiling=3/2", _banded_rows_base),
    ("banded-rows-augmented", "augmented banded-rows solvable at ratio 9/8 (n=m=1)", "paper",
     "solvable=True ratio=9/8",
     lambda: _solvable_at_ratio(constructions.gen_banded_rows(1, 1, augmented=True))),
    ("banded-rows-row5-delivery", "augmented banded-rows moves 4 pebbles to any vertex of row 5",
     "paper", "four_pebbles_everywhere_row5=True", _banded_rows_row5),
    ("diag7-torus", "diagonal pattern on the 14x14 torus", "paper",
     "size=56 solvable=True ratio=7/2", _diag7_torus),
    ("density7-pattern", "index-7 lattice pattern weights", "paper",
     "min_weight_ge_1=True min_truncated_class_sum=1", _density7),
    ("uniform-ninth-finite-torus", "uniform 1/9 on a finite torus stays below weight 1",
     "derived", "torus_weight=529/576 below_one=True", _uniform_ninth),
    ("fractional-optimal-2x2", "fractional optimal pebbling of the 2x2 grid", "derived",
     "value=16/9 solvable=True", lambda: _fractional_optimum(GridSpec(2, 2))),
    ("row-ones-marginal", "marginal covering ratio of the end unit exceeds 17/4 at k=16",
     "derived", "marginal=37/2 exceeds_17_4=True", _row_ones_marginal),
    ("pi-opt-small", "optimal pebbling numbers of the smallest grids", "trivial",
     "1x1=1 2x2=3", lambda: f"1x1={_pi_opt(1)} 2x2={_pi_opt(2)}"),
)

#: The rows that ``--scale full-desk`` appends to CHECKS.
FULL_DESK_CHECKS = (
    ("fractional-optimal-9x9-torus", "fractional optimal pebbling of the 9x9 torus", "derived",
     "value=5184/529 solvable=True", lambda: _fractional_optimum(GridSpec(9, 9, TORUS))),
    ("fractional-optimal-30x30-plane", "fractional optimal pebbling of the 30x30 grid",
     "derived", "value=1024/9 solvable=True", lambda: _fractional_optimum(GridSpec(30, 30))),
    ("fractional-optimal-28x28-torus", "fractional optimal pebbling of the 28x28 torus",
     "derived", "value=210453397504/2415624201 solvable=True",
     lambda: _fractional_optimum(GridSpec(28, 28, TORUS))),
    ("pi-opt-3x3", "optimal pebbling number of the 3x3 grid with bounds", "derived",
     "3x3=4 within_bounds=True", _pi_opt_3x3),
    ("cascade-ones-marginal-k6", "marginal covering ratio of the cascade unit at k=6 on 17x7",
     "derived", "cov=35->53 marginal=18", _cascade_marginal_k6),
)


def cmd_verify_paper(args) -> int:
    checks = CHECKS + (FULL_DESK_CHECKS if args.scale == "full-desk" else ())
    results = []
    for claim, anchor, provenance, expected, compute in checks:
        start = time.monotonic()
        try:
            computed = compute()
        except Exception as e:  # a crash is a failing check, not a crash of the suite
            computed = f"error: {e}"
        results.append(
            {
                "claim": claim,
                "anchor": anchor,
                "provenance": provenance,
                "expected": expected,
                "computed": computed,
                "passed": computed == expected,
                "runtime_s": round(time.monotonic() - start, 3),
            }
        )
    all_pass = all(r["passed"] for r in results)
    _emit(
        {"schema": SCHEMA, "scale": args.scale, "checks": results, "all_passed": all_pass},
        args.out,
    )
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['claim']} ({r['runtime_s']}s)", file=sys.stderr)
    return 0 if all_pass else 1


# -- render ---------------------------------------------------------------


def _render_ascii(grid: GridSpec, labels: dict, reachable: frozenset) -> str:
    """A cell shows its label, else * when reachable, else a dot."""
    cells = {v: labels[v] or ("*" if v in reachable else ".") for v in grid.vertices()}
    width = max(len(s) for s in cells.values())
    lines = []
    for r in range(grid.height):
        lines.append(" ".join(cells[Vertex(c, r)].rjust(width) for c in range(grid.width)))
    return "\n".join(lines) + "\n"


def _render_svg(grid: GridSpec, labels: dict, reachable: frozenset) -> str:
    """A square per vertex, shaded when reachable, with its label if any."""
    cell = 28
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{grid.width * cell}" height="{grid.height * cell}">'
    ]
    for v in grid.vertices():
        x, y = v.col * cell, v.row * cell
        fill = "#cde8cd" if v in reachable else "#ffffff"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{fill}" stroke="#444444"/>'
        )
        if labels[v]:
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'font-size="10" text-anchor="middle">{labels[v]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_render(args) -> int:
    """Label each vertex with its weight (--overlay weights) or its pebbles,
    and shade the reachable set (--overlay coverage)."""
    dist = _load(args.file)
    if args.overlay == "weights":
        labels = {v: exact_text(w) for v, w in weights.grid_weights(dist).items()}
    else:
        labels = {v: str(dist.get(v) or "") for v in dist.grid.vertices()}
    reachable = frozenset()
    if args.overlay == "coverage":
        reachable = reach.coverage(dist, args.node_cap).reachable
    render = _render_ascii if args.format == "ascii" else _render_svg
    _write(render(dist.grid, labels, reachable), args.out)
    return 0


# -- argument parsing -----------------------------------------------------


def _fraction(value: str) -> Fraction:
    return rational(value, argparse.ArgumentTypeError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One `error: ...` line and exit 2, like every other user error."""
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pebblekit",
        description="Exact toolkit for pebbling distributions on grid and torus graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--node-cap", type=int, default=reach.DEFAULT_NODE_CAP)
        p.add_argument("-o", "--out", default=None)

    p = sub.add_parser(
        "gen", help="generate a distribution family instance", argument_default=argparse.SUPPRESS
    )
    p.add_argument("family", choices=[f.replace("_", "-") for f in constructions.FAMILIES])
    shape = p.add_mutually_exclusive_group()
    shape.add_argument("--torus", type=int, nargs=2, metavar=("W", "H"))
    shape.add_argument("--plane", type=int, nargs=2, metavar=("W", "H"))
    p.add_argument("-n", type=int)
    p.add_argument("-m", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("--q", type=_fraction)
    p.add_argument("--with-unit2", action="store_true")
    p.add_argument("--augmented", action="store_true")
    p.add_argument("--inner", help="distribution file for block-composition")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="coverage / weight / ceiling report")
    p.add_argument("file")
    p.add_argument("--coverage", action="store_true")
    p.add_argument("--weights", action="store_true")
    p.add_argument("--ceiling", action="store_true")
    p.add_argument("--infinite-mode", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("reach", help="k-pebble reachability query")
    p.add_argument("file")
    p.add_argument("--target", type=int, nargs=2, metavar=("COL", "ROW"), required=True)
    p.add_argument("-k", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("lp", help="exact linear programs")
    p.add_argument("problem", choices=["unit-excess", "fractional"])
    p.add_argument("--width", type=int, default=2)
    p.add_argument("--height", type=int, default=2)
    p.add_argument("--torus", action="store_true")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("optimal", help="exact optimal pebbling numbers")
    grids = p.add_mutually_exclusive_group()
    # default 3 in cmd_optimal: argparse lets a value equal to the default pass next to --grid
    grids.add_argument("--max-n", type=int)
    grids.add_argument("--grid", type=int, nargs=2, metavar=("W", "H"))
    add_common(p)
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("verify-paper", help="run the built-in fixture suite")
    p.add_argument("--scale", choices=["small", "full-desk"], default="small")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("render", help="ascii or svg picture of a distribution")
    p.add_argument("file")
    p.add_argument("--format", choices=["ascii", "svg"], default="ascii")
    p.add_argument("--overlay", choices=["none", "coverage", "weights"], default="none")
    add_common(p)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GridError, lp.LpError, OSError, reach.BudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
