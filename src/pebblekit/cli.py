"""Command-line front end.

``pebblekit <gen|analyze|reach|lp|optimal|verify-paper|render> [flags]``

All rational values serialize as exact "p/q" strings; JSON reports carry
a ``schema`` version field.  ``verify-paper`` runs the built-in fixture
suite and exits 0 iff every check passes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import constructions, lp, optimal, reach, weights
from .grid import (
    PLANE,
    TORUS,
    ContinuousDistribution,
    Distribution,
    GridError,
    GridSpec,
    Vertex,
    parse_distribution,
    serialize_distribution,
)

SCHEMA = "pebblekit-report/1"


def _frac(v) -> str:
    return str(Fraction(v))


def _write(text: str, out_path: str | None):
    """Write text to the --out file, or to stdout when there is none."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out_path: str | None):
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


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
    dist = _load(args.file)
    report: dict = {
        "schema": SCHEMA,
        "grid": [dist.grid.width, dist.grid.height, dist.grid.topology],
        "size": _frac(dist.size) if isinstance(dist, ContinuousDistribution) else dist.size,
    }
    if args.coverage:
        cov = reach.coverage(dist, args.node_cap)
        report["coverage"] = {
            "cov": cov.cov,
            "ratio": _frac(cov.ratio),
            "reachable": sorted([v.col, v.row] for v in cov.reachable),
            "boundary": sorted([v.col, v.row] for v in cov.boundary),
        }
    if args.weights:
        report["weights"] = weights.weight_report(dist).to_json()
    if args.ceiling:
        if args.infinite_mode:
            report["ceiling"] = _frac(weights.ceiling_infinite(dist))
        else:
            report["ceiling"] = _frac(weights.covering_ratio_ceiling(dist))
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


def cmd_lp(args) -> int:
    if args.problem == "unit-excess":
        problem = lp.unit_excess_problem()
        sol = lp.solve(problem)
        verified = lp.verify_certificate(problem, sol.primal, sol.dual)
        _emit(
            {
                "schema": SCHEMA,
                "problem": "unit-excess",
                "solution": sol.to_json(),
                "certificate_verified": verified,
                "implied_ratio_bound": _frac(weights.IFCOV_UPPER_BOUND),
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
            "value": _frac(value),
            "witness": {f"{v.col},{v.row}": _frac(c) for v, c in sorted(witness.items())},
            "fractional_solvable": weights.fractional_solvable(witness),
        },
        args.out,
    )
    return 0


# -- optimal --------------------------------------------------------------


def cmd_optimal(args) -> int:
    rows = []
    if args.grid:
        specs = [GridSpec(args.grid[0], args.grid[1])]
    elif args.max_n < 1:
        raise GridError(f"--max-n must be >= 1, got {args.max_n}")
    else:
        specs = [GridSpec(n, n) for n in range(1, args.max_n + 1)]
    for spec in specs:
        result = optimal.optimal_pebbling_number(spec, args.node_cap)
        rows.append(
            {
                "grid": [spec.width, spec.height],
                "pi_opt": result.pi_opt,
                "ratio": _frac(Fraction(result.pi_opt, spec.size)),
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


@dataclass
class Check:
    """One verification fixture: a claim, its expected value, and how to
    compute the actual value."""

    claim: str
    anchor: str
    provenance: str  # paper | derived | trivial
    expected: str
    compute: callable


def _margin_grid() -> GridSpec:
    return GridSpec(9, 9)


def _checks(scale: str, node_cap: int) -> list[Check]:
    g = _margin_grid()
    center = Vertex(4, 4)

    def cov_single():
        d = Distribution(g, {center: 2})
        c = reach.coverage(d, node_cap)
        return f"cov={c.cov} ratio={c.ratio}"

    def cov_pair():
        d = Distribution(g, {center: 2, Vertex(5, 4): 2})
        c = reach.coverage(d, node_cap)
        return f"cov={c.cov} ratio={c.ratio}"

    def ceil_single():
        return _frac(weights.ceiling_infinite(Distribution(g, {center: 2})))

    def ceil_pair():
        return _frac(
            weights.ceiling_infinite(Distribution(g, {center: 2, Vertex(5, 4): 2}))
        )

    def unit_excess():
        problem = lp.unit_excess_problem()
        sol = lp.solve(problem)
        ok = lp.verify_certificate(problem, sol.primal, sol.dual)
        return f"value={sol.objective_value} certified={ok}"

    def pebble_total():
        partial = weights.single_pebble_weight_total(30)
        return f"within_tolerance={Fraction(9) - partial <= Fraction(1, 2**20)}"

    def banded_base():
        d = constructions.gen_banded_rows(1, 1)
        c = reach.coverage(d, node_cap)
        ceil = weights.covering_ratio_ceiling(d)
        return f"ratio={c.ratio} ceiling={ceil}"

    def banded_aug():
        d = constructions.gen_banded_rows(1, 1, augmented=True)
        return f"solvable={reach.is_solvable(d, node_cap)} ratio={Fraction(d.grid.size, d.size)}"

    def banded_aug_row5():
        d = constructions.gen_banded_rows(1, 1, augmented=True)
        ok = all(reach.can_move_k(d, Vertex(c, 5), 4, node_cap) for c in range(3))
        return f"four_pebbles_everywhere_row5={ok}"

    def diag7():
        d = constructions.gen_diag7(GridSpec(14, 14, TORUS))
        solvable = reach.is_solvable(d, node_cap)
        return f"size={d.size} solvable={solvable} ratio={Fraction(d.grid.size, d.size)}"

    def density7():
        basis, gen = constructions.find_density7_pattern()
        wmin = min(constructions.density7_class_weights(basis).values())
        profile = constructions.density7_class_profile(basis)
        b_sum = min(
            weights.dyadic_weight((k, dd) for dd, k in shells.items())
            for alpha, shells in profile.items()
            if alpha != 0
        )
        return f"min_weight_ge_1={wmin >= 1} min_truncated_class_sum={b_sum}"

    def uniform_ninth():
        d = constructions.gen_uniform_frac(GridSpec(9, 9, TORUS), Fraction(1, 9))
        w = weights.weight(d, Vertex(0, 0))
        return f"torus_weight={w} below_one={w < 1}"

    def frac_optimum(spec):
        value, witness = lp.fractional_optimal_pebbling(spec)
        return f"value={value} solvable={weights.fractional_solvable(witness)}"

    def row_ones_marginal():
        spec = GridSpec(23, 7)
        base = constructions.gen_row_ones(spec, 16)
        plus = constructions.gen_row_ones(spec, 16, with_unit2=True)
        m = reach.marginal_covering_ratio(base, plus, node_cap)
        return f"marginal={m} exceeds_17_4={m > Fraction(17, 4)}"

    def pi_opt_small():
        r1 = optimal.optimal_pebbling_number(GridSpec(1, 1), node_cap)
        r2 = optimal.optimal_pebbling_number(GridSpec(2, 2), node_cap)
        return f"1x1={r1.pi_opt} 2x2={r2.pi_opt}"

    checks = [
        Check(
            "cov-single-2unit",
            "covering ratio of a single size-2 unit",
            "paper",
            "cov=5 ratio=5/2",
            cov_single,
        ),
        Check(
            "cov-two-adjacent-2units",
            "covering ratio of two adjacent size-2 units",
            "paper",
            "cov=8 ratio=2",
            cov_pair,
        ),
        Check(
            "ceiling-single-2unit",
            "infinite-mode covering ratio ceiling of a size-2 unit",
            "paper",
            "17/2",
            ceil_single,
        ),
        Check(
            "ceiling-two-adjacent-2units",
            "infinite-mode ceiling of two adjacent size-2 units",
            "paper",
            "29/4",
            ceil_pair,
        ),
        Check(
            "unit-excess-lp",
            "minimum excess weight at a covered unit",
            "paper",
            "value=12/25 certified=True",
            unit_excess,
        ),
        Check(
            "ifcov-bound-constant",
            "implied ratio bound 9 - 12/25",
            "paper",
            "213/25",
            lambda: _frac(weights.IFCOV_UPPER_BOUND),
        ),
        Check(
            "single-pebble-weight-total",
            "partial sums of one pebble's total weight approach 9",
            "paper",
            "within_tolerance=True",
            pebble_total,
        ),
        Check(
            "banded-rows-base",
            "banded-rows base covering ratio and ceiling (n=m=1)",
            "paper",
            "ratio=1 ceiling=3/2",
            banded_base,
        ),
        Check(
            "banded-rows-augmented",
            "augmented banded-rows solvable at ratio 9/8 (n=m=1)",
            "paper",
            "solvable=True ratio=9/8",
            banded_aug,
        ),
        Check(
            "banded-rows-row5-delivery",
            "augmented banded-rows moves 4 pebbles to any vertex of row 5",
            "paper",
            "four_pebbles_everywhere_row5=True",
            banded_aug_row5,
        ),
        Check(
            "diag7-torus",
            "diagonal pattern on the 14x14 torus",
            "paper",
            "size=56 solvable=True ratio=7/2",
            diag7,
        ),
        Check(
            "density7-pattern",
            "index-7 lattice pattern weights",
            "paper",
            "min_weight_ge_1=True min_truncated_class_sum=1",
            density7,
        ),
        Check(
            "uniform-ninth-finite-torus",
            "uniform 1/9 on a finite torus stays below weight 1",
            "derived",
            "torus_weight=529/576 below_one=True",
            uniform_ninth,
        ),
        Check(
            "fractional-optimal-2x2",
            "fractional optimal pebbling of the 2x2 grid",
            "derived",
            "value=16/9 solvable=True",
            lambda: frac_optimum(GridSpec(2, 2)),
        ),
        Check(
            "row-ones-marginal",
            "marginal covering ratio of the end unit exceeds 17/4 at k=16",
            "derived",
            "marginal=37/2 exceeds_17_4=True",
            row_ones_marginal,
        ),
        Check(
            "pi-opt-small",
            "optimal pebbling numbers of the smallest grids",
            "trivial",
            "1x1=1 2x2=3",
            pi_opt_small,
        ),
    ]
    if scale == "full-desk":

        def pi_opt_3x3():
            r = optimal.optimal_pebbling_number(GridSpec(3, 3), node_cap)
            lower = lp.fractional_optimum(GridSpec(3, 3))
            upper = optimal.composition_upper_bound(3, 1, 1)
            return f"3x3={r.pi_opt} within_bounds={lower <= r.pi_opt <= upper}"

        checks += [
            Check(
                "fractional-optimal-9x9-torus",
                "fractional optimal pebbling of the 9x9 torus",
                "derived",
                "value=5184/529 solvable=True",
                lambda: frac_optimum(GridSpec(9, 9, TORUS)),
            ),
            Check(
                "fractional-optimal-30x30-plane",
                "fractional optimal pebbling of the 30x30 grid",
                "derived",
                "value=1024/9 solvable=True",
                lambda: frac_optimum(GridSpec(30, 30)),
            ),
            Check(
                "fractional-optimal-28x28-torus",
                "fractional optimal pebbling of the 28x28 torus",
                "derived",
                "value=210453397504/2415624201 solvable=True",
                lambda: frac_optimum(GridSpec(28, 28, TORUS)),
            ),
            Check(
                "pi-opt-3x3",
                "optimal pebbling number of the 3x3 grid with bounds",
                "derived",
                "3x3=4 within_bounds=True",
                pi_opt_3x3,
            ),
        ]
    return checks


def cmd_verify_paper(args) -> int:
    checks = _checks(args.scale, args.node_cap)

    def run(check: Check) -> dict:
        start = time.monotonic()
        try:
            computed = check.compute()
        except Exception as e:  # a crash is a failing check, not a crash of the suite
            computed = f"error: {e}"
        return {
            "claim": check.claim,
            "anchor": check.anchor,
            "provenance": check.provenance,
            "expected": check.expected,
            "computed": computed,
            "passed": computed == check.expected,
            "runtime_s": round(time.monotonic() - start, 3),
        }

    results = [run(c) for c in checks]
    all_pass = all(r["passed"] for r in results)
    report = {
        "schema": SCHEMA,
        "scale": args.scale,
        "checks": results,
        "all_passed": all_pass,
    }
    _emit(report, args.out)
    for r in results:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] {r['claim']} ({r['runtime_s']}s)", file=sys.stderr)
    return 0 if all_pass else 1


# -- render ---------------------------------------------------------------


def _render_ascii(dist, overlay: str, node_cap: int) -> str:
    grid = dist.grid
    cells = {v: str(dist.get(v) or ".") for v in grid.vertices()}
    if overlay == "coverage":
        reachable = reach.coverage(dist, node_cap).reachable
        for v in grid.vertices():
            if dist.get(v) == 0:
                cells[v] = "*" if v in reachable else "."
    elif overlay == "weights":
        for v in grid.vertices():
            cells[v] = str(weights.weight(dist, v))
    width = max(len(s) for s in cells.values())
    lines = []
    for r in range(grid.height):
        lines.append(" ".join(cells[Vertex(c, r)].rjust(width) for c in range(grid.width)))
    return "\n".join(lines) + "\n"


def _render_svg(dist, overlay: str, node_cap: int) -> str:
    grid = dist.grid
    cell = 28
    shaded: frozenset = frozenset()
    if overlay == "coverage":
        shaded = reach.coverage(dist, node_cap).reachable
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{grid.width * cell}" height="{grid.height * cell}">'
    ]
    for v in grid.vertices():
        x, y = v.col * cell, v.row * cell
        fill = "#cde8cd" if v in shaded else "#ffffff"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{fill}" stroke="#444444"/>'
        )
        c = dist.get(v)
        label = str(weights.weight(dist, v)) if overlay == "weights" else str(c or "")
        if label:
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" '
                f'font-size="10" text-anchor="middle">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_render(args) -> int:
    dist = _load(args.file)
    if args.format == "ascii":
        text = _render_ascii(dist, args.overlay, args.node_cap)
    else:
        text = _render_svg(dist, args.overlay, args.node_cap)
    _write(text, args.out)
    return 0


# -- argument parsing -----------------------------------------------------


def _fraction(value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {value!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--grid", type=int, nargs=2, metavar=("W", "H"))
    add_common(p)
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("verify-paper", help="run the built-in fixture suite")
    p.add_argument("--scale", choices=["small", "full-desk"], default="small")
    add_common(p)
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
    except (
        GridError, lp.LpError, OSError, reach.BudgetExceeded, optimal.SearchBudgetExceeded
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
