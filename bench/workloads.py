"""Fixed instances, timed ops and frozen exact answers of the four workloads.

Every op is a call a library user makes, on an instance built in set-up.
An op returns its answer as an exact string, which must equal the frozen
string below, plus a witness that ``checker.py`` tests independently
after the timed section.  The instances are fixed; only the order of the
ops depends on the workload seed, so the answers can stay frozen.

The instances are sized so one pass over a workload's ops takes a few
seconds on a 2-core box: a 30-second run then holds enough passes for a
median to be steady.  The larger sizes first proposed for this benchmark
(cascade k=6, pi_opt 5x3 and 4x4 torus, 9x9 LPs) take 5-10 s per op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pebblekit as pk
from checker import check_fractional, check_pi_opt, check_unit_excess
from pebblekit import constructions
from pebblekit.grid import TORUS, GridSpec


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable  # instances -> (answer string, witness for the checker)
    frozen: str
    check: Callable | None = None  # (answer, witness) -> None, or why it is wrong


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # () -> instances dict
    ops: tuple


# -- cascade --------------------------------------------------------------


def _cascade_setup():
    d, u = constructions.gen_cascade_ones(GridSpec(15, 7), 5)
    return {"base": d, "plus": d.combined(u)}


def _coverage(key):
    def run(inst):
        return str(pk.coverage(inst[key]).cov), None

    return run


CASCADE = Workload(
    name="cascade",
    setup=_cascade_setup,
    ops=(
        Op("cov-base", _coverage("base"), "29"),
        Op("cov-plus", _coverage("plus"), "45"),
    ),
)


# -- search ---------------------------------------------------------------


def _search_setup():
    return {"plane": GridSpec(6, 2), "torus": GridSpec(6, 2, TORUS)}


def _pi_opt(key):
    def run(inst):
        res = pk.optimal_pebbling_number(inst[key])
        return str(res.pi_opt), res

    return run


SEARCH = Workload(
    name="search",
    setup=_search_setup,
    ops=(
        Op("pi-opt-6x2", _pi_opt("plane"), "6", check_pi_opt),
        Op("pi-opt-6x2-torus", _pi_opt("torus"), "6", check_pi_opt),
    ),
)


# -- lp -------------------------------------------------------------------


def _lp_setup():
    return {
        "torus": GridSpec(7, 7, TORUS),
        "plane": GridSpec(7, 7),
        "unit": pk.unit_excess_problem(),
    }


def _fractional(key):
    def run(inst):
        value, dist = pk.fractional_optimal_pebbling(inst[key])
        return str(value), dist

    return run


def _unit_excess(inst):
    problem = inst["unit"]
    sol = pk.solve(problem)
    if not pk.verify_certificate(problem, sol.primal, sol.dual):
        raise ValueError("verify_certificate rejected the unit-excess optimum")
    return str(sol.objective_value), (problem, sol)


LP = Workload(
    name="lp",
    setup=_lp_setup,
    ops=(
        Op("frac-7x7-torus", _fractional("torus"), "784/121", check_fractional),
        Op("frac-7x7-plane", _fractional("plane"), "9", check_fractional),
        Op("unit-excess", _unit_excess, "12/25", check_unit_excess),
    ),
)


# -- weights --------------------------------------------------------------


def _weights_setup():
    _, density7 = constructions.find_density7_pattern()
    row = GridSpec(23, 7)
    return {
        "diag7_42t": constructions.gen_diag7(GridSpec(42, 42, TORUS)),
        "density7_28t": density7(4),
        "diag7_21p": constructions.gen_diag7(GridSpec(21, 21)),
        "row_ones": constructions.gen_row_ones(row, 16),
        "row_ones_u2": constructions.gen_row_ones(row, 16, with_unit2=True),
    }


def _marginal_ceiling(inst):
    d, dplus = inst["row_ones"], inst["row_ones_u2"]
    grid = pk.marginal_covering_ratio_ceiling(d, dplus)
    infinite = pk.marginal_covering_ratio_ceiling(d, dplus, infinite=True)
    return f"{grid} {infinite}", None


WEIGHTS = Workload(
    name="weights",
    setup=_weights_setup,
    ops=(
        Op(
            "report-diag7-42t",
            lambda inst: (str(pk.weight_report(inst["diag7_42t"]).ceiling), None),
            "7/2",
        ),
        Op(
            "ceiling-density7-28t",
            lambda inst: (str(pk.covering_ratio_ceiling(inst["density7_28t"])), None),
            "7",
        ),
        Op(
            "fracsolv-density7-28t",
            lambda inst: (str(pk.fractional_solvable(inst["density7_28t"])), None),
            "True",
        ),
        Op(
            "ceiling-inf-diag7-21p",
            lambda inst: (str(pk.ceiling_infinite(inst["diag7_21p"])), None),
            "2870497580891251/716881581309952",
        ),
        Op("marginal-ceiling-rowones", _marginal_ceiling, "15991109/4194304 1376277/262144"),
    ),
)


WORKLOADS = {w.name: w for w in (CASCADE, SEARCH, LP, WEIGHTS)}
