"""Tests of the benchmark itself: the checker, the printed metrics and the
determinism of the traced counts.  Run from the repository root with
``python3 -m pytest bench/tests``; a traced run takes a few seconds."""

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pebblekit as pk  # noqa: E402
from checker import check, check_fractional, check_pi_opt  # noqa: E402
from layers import EXACT, Tracer  # noqa: E402
from pebblekit.grid import TORUS, ContinuousDistribution, GridSpec  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class TestChecker:
    def test_rejects_wrong_lp_value(self):
        spec = GridSpec(9, 9, TORUS)
        witness = ContinuousDistribution(spec, {v: Fraction(64, 529) for v in spec.vertices()})
        assert check_fractional("5184/529", witness) is None
        assert check_fractional("5184/528", witness) is not None

    def test_rejects_lp_witness_with_weight_below_one(self):
        # uniform 1/9 has weight 529/576 < 1 on the 9x9 torus
        spec = GridSpec(9, 9, TORUS)
        witness = ContinuousDistribution(spec, {v: Fraction(1, 9) for v in spec.vertices()})
        assert "< 1" in check_fractional("9", witness)

    def test_rejects_witness_with_a_pebble_removed(self):
        res = pk.optimal_pebbling_number(GridSpec(3, 3))
        assert check_pi_opt(str(res.pi_opt), res) is None
        v = next(iter(res.witness.counts))
        weaker = dataclasses.replace(res, witness=res.witness.with_pebbles(v, -1))
        assert check_pi_opt(str(res.pi_opt), weaker) is not None
        assert "unreachable" in check_pi_opt(str(res.pi_opt - 1), weaker)

    def test_rejects_answer_differing_from_frozen(self):
        op = WORKLOADS["cascade"].ops[0]
        assert check(op, op.frozen, None) is None
        assert check(op, str(int(op.frozen) - 1), None) is not None


def test_missing_hook_is_absent_not_fatal():
    original = pk.lp._Tableau.pivot
    tracer = Tracer()
    tracer.hook("pebblekit.reach:_GoneSearch.run", ["reach.dfs.nodes"], lambda fn, m: fn)
    tracer.hook("pebblekit.lp:_Tableau.pivot", ["lp.pivots"],
                lambda fn, m: tracer.span("lp.pivot", fn, m))

    def stale(args, result, error):  # reads a field the solution no longer has
        return result.renamed_field

    tracer.hook("pebblekit:solve", ["lp.solves"], lambda fn, m: tracer.span("lp.solve", fn, m, stale))
    try:
        pk.solve(pk.unit_excess_problem())
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    assert values["reach.dfs.nodes"] is None
    assert values["lp.solves"] is None
    assert values["lp.pivots"] > 0
    assert pk.lp._Tableau.pivot is original


def test_end_to_end_metrics_printed_with_units():
    res = result(run("search", 1, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert units(res) == declared("end_to_end")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_exact_counts(workload):
    first, second = result(run(workload, 1, 1)), result(run(workload, 2, 1))
    for res in (first, second):
        assert res["correct"]
        assert units(res) == declared("per_layer")
    counts = {name: first["metrics"][name]["value"] for name in EXACT}
    assert counts == {name: second["metrics"][name]["value"] for name in EXACT}
    busy = {
        "cascade": "reach.dfs.nodes",
        "search": "optimal.placements",
        "lp": "lp.pivots",
        "weights": "weights.terms",
    }[workload]
    assert counts[busy] > 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("cascade", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
