import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import pebblekit
from pebblekit import cli, weights
from pebblekit.cli import SCHEMA, build_parser, main
from pebblekit.constructions import gen_cascade_ones, gen_row_ones, gen_uniform_frac
from pebblekit.grid import (
    PLANE,
    TORUS,
    Distribution,
    GridSpec,
    parse_distribution,
    serialize_distribution,
)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    try:
        code = main(list(argv))
    except SystemExit as e:  # argparse rejects the command line
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dist_file(tmp_path):
    d = Distribution(GridSpec(7, 7), {(3, 3): 2})
    path = tmp_path / "single.dist"
    path.write_text(serialize_distribution(d))
    return str(path)


class TestGen:
    def test_banded_rows(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "banded-rows", "-n", "1", "-m", "1")
        assert code == 0
        d = parse_distribution(out)
        assert d.size == 12

    def test_banded_rows_augmented(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "banded-rows", "-n", "1", "-m", "1", "--augmented"
        )
        assert code == 0
        assert parse_distribution(out).size == 16

    def test_diag7_default_torus(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "diag7")
        assert code == 0
        d = parse_distribution(out)
        assert d.grid.topology == "torus" and d.size == 56

    def test_uniform_frac(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "uniform-frac", "--torus", "5", "5", "--q", "1/9")
        assert code == 0
        d = parse_distribution(out)
        assert d.size == Fraction(25, 9)

    def test_bad_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "diag7", "--torus", "10", "10")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["row-ones", "-k", "4", "--torus", "12", "5"],
                lambda: gen_row_ones(GridSpec(12, 5, TORUS), 4),
            ),
            (
                ["cascade-ones", "-k", "3", "--torus", "12", "5"],
                lambda: Distribution.combined(*gen_cascade_ones(GridSpec(12, 5, TORUS), 3)),
            ),
            (
                ["uniform-frac", "--plane", "5", "5"],
                lambda: gen_uniform_frac(GridSpec(5, 5, PLANE), Fraction(1, 9)),
            ),
        ],
        ids=["row-ones-torus", "cascade-ones-torus", "uniform-frac-plane"],
    )
    def test_shape_flag_sets_grid(self, capsys, argv, expected):
        code, out, _ = run_cli(capsys, "gen", *argv)
        assert code == 0
        assert out == serialize_distribution(expected())

    def test_torus_and_plane_exclusive(self, capsys):
        code, out, err = run_cli(
            capsys, "gen", "diag7", "--torus", "14", "14", "--plane", "21", "21"
        )
        assert code == 2 and out == ""
        assert "--plane: not allowed with argument --torus" in err

    def test_flag_the_family_does_not_take_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "gen", "diag7", "-k", "5")
        assert code == 2 and out == ""
        assert "error: diag7 takes no parameter k" in err

    def test_gen_to_file(self, capsys, tmp_path):
        out = tmp_path / "d.dist"
        code, _, _ = run_cli(capsys, "gen", "row-ones", "-k", "4", "-o", str(out))
        assert code == 0
        assert parse_distribution(out.read_text()).size == 4


class TestAnalyze:
    def test_coverage_report(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "analyze", dist_file, "--coverage")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == SCHEMA
        assert report["coverage"]["cov"] == 5
        assert report["coverage"]["ratio"] == "5/2"

    def test_weights_and_ceiling(self, capsys, dist_file, monkeypatch):
        """The ceiling comes from the weight report: one whole-grid kernel
        call, and the value of the grid-mode ceiling."""
        calls, kernel = [], weights._kernel

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(weights, "_kernel", counting)
        code, out, _ = run_cli(capsys, "analyze", dist_file, "--weights", "--ceiling")
        assert code == 0 and len(calls) == 1
        report = json.loads(out)
        d = parse_distribution(Path(dist_file).read_text())
        ceiling = str(weights.covering_ratio_ceiling(d))
        assert report["ceiling"] == report["weights"]["ceiling"] == ceiling
        assert any(row["w"] == "2" for row in report["weights"]["rows"])

    def test_infinite_ceiling(self, capsys, dist_file):
        code, out, _ = run_cli(
            capsys, "analyze", dist_file, "--ceiling", "--infinite-mode"
        )
        assert code == 0
        assert json.loads(out)["ceiling"] == "17/2"

    @pytest.mark.parametrize(
        "flags", [["--weights"], [], ["--coverage"], ["--coverage", "--weights"]], ids=str
    )
    def test_infinite_mode_without_ceiling_exits_2(self, capsys, dist_file, flags):
        """--infinite-mode sets the mode of the ceiling only: without
        --ceiling it is refused, not ignored in favour of grid-mode weights."""
        code, out, err = run_cli(capsys, "analyze", dist_file, *flags, "--infinite-mode")
        assert (code, out) == (2, "")
        assert err == "error: --infinite-mode needs --ceiling: it sets the mode of the ceiling only\n"

    def test_budget_exit_2(self, capsys, tmp_path):
        d = Distribution(GridSpec(4, 4), {(0, 0): 3, (0, 2): 3, (2, 0): 3})
        path = tmp_path / "b.dist"
        path.write_text(serialize_distribution(d))
        code, _, err = run_cli(
            capsys, "analyze", str(path), "--coverage", "--node-cap", "1"
        )
        assert code == 2 and "budget" in err

    @pytest.mark.parametrize("flag", ["--weights", "--ceiling"])
    def test_empty_distribution_exit_2(self, capsys, tmp_path, flag):
        path = tmp_path / "empty.dist"
        path.write_text("grid 3 3 plane\n")
        code, _, err = run_cli(capsys, "analyze", str(path), flag)
        assert code == 2 and "non-empty distribution" in err


class TestReach:
    def test_reachable_exit_0(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "reach", dist_file, "--target", "3", "4")
        assert code == 0
        assert json.loads(out)["reachable"] is True

    def test_unreachable_exit_1(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "reach", dist_file, "--target", "0", "0")
        assert code == 1
        assert json.loads(out)["reachable"] is False

    def test_k_pebbles(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "reach", dist_file, "--target", "3", "3", "-k", "2")
        assert code == 0 and json.loads(out)["k"] == 2

    def test_depth_overflow_exit_2(self, capsys, tmp_path):
        """A DFS deeper than Python's recursion limit (test_reach's
        test_deep_pile_overflows_depth) ends in one error line naming the
        depth, not in a traceback."""
        path = tmp_path / "deep.dist"
        d = Distribution(GridSpec(3, 1), {(0, 0): 2001, (2, 0): 1})
        path.write_text(serialize_distribution(d))
        code, out, err = run_cli(capsys, "reach", str(path), "--target", "1", "0", "-k", "1001")
        assert (code, out) == (2, "")
        assert err == (
            "error: search depth exceeded Python's recursion limit for target (1, 0) during query\n"
        )


class TestLp:
    def test_unit_excess(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "unit-excess")
        assert code == 0
        report = json.loads(out)
        assert report["solution"]["objective_value"] == "12/25"
        assert report["certificate_verified"] is True
        assert report["implied_ratio_bound"] == "213/25"

    def test_fractional(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "fractional", "--width", "2", "--height", "2")
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "16/9"
        assert report["fractional_solvable"] is True


class TestOptimal:
    def test_series(self, capsys):
        code, out, err = run_cli(capsys, "optimal", "--max-n", "2")
        assert code == 0
        report = json.loads(out)
        assert [r["pi_opt"] for r in report["results"]] == [1, 3]
        assert "2x2  pi_opt=3" in err

    def test_single_grid(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--grid", "2", "3")
        assert code == 0
        report = json.loads(out)
        assert report["results"][0]["pi_opt"] == 3

    def test_per_size_rows(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--grid", "3", "3")
        assert code == 0
        (result,) = json.loads(out)["results"]
        rows = result["per_size"]
        assert [r["size"] for r in rows] == [1, 2, 3, 4]
        assert all(r["walk_refuted"] == r["orbits"] for r in rows[:-1])
        assert sum(r["orbits"] for r in rows) == result["candidates_tested"] == 46

    @pytest.mark.parametrize("max_n", ["0", "3"])
    def test_grid_and_max_n_exclusive(self, capsys, max_n):
        """--max-n next to --grid is refused, not ignored, even at its default."""
        code, out, err = run_cli(capsys, "optimal", "--grid", "2", "2", "--max-n", max_n)
        assert code == 2 and out == ""
        assert err == "error: argument --max-n: not allowed with argument --grid\n"

    def test_default_series(self, capsys):
        code, out, _ = run_cli(capsys, "optimal")
        assert code == 0
        assert [r["pi_opt"] for r in json.loads(out)["results"]] == [1, 3, 4]

    def test_series_ratios(self, capsys):
        """--max-n walks the n x n planes from 1 up, with pi_opt / n^2."""
        code, out, _ = run_cli(capsys, "optimal", "--max-n", "3")
        assert code == 0
        rows = json.loads(out)["results"]
        assert [r["grid"] for r in rows] == [[1, 1], [2, 2], [3, 3]]
        assert [r["ratio"] for r in rows] == ["1", "3/4", "4/9"]

    def test_node_cap_reports_exhausted_sizes(self, capsys):
        """Sizes 1-5 of 6x2 are exhausted before the one-entry memo overflows
        at size 6 (no size-5 orbit reaches the solver), so the bound beats
        ceil(32/9) = 4 from the LP."""
        code, out, err = run_cli(capsys, "optimal", "--grid", "6", "2", "--node-cap", "1")
        assert code == 2 and out == ""
        assert err.strip().endswith("known bounds: 6 <= pi_opt")


class TestVerify:
    def test_small_scale_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper", "--scale", "small")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert {c["provenance"] for c in report["checks"]} <= {"paper", "derived", "trivial"}
        assert "[PASS]" in err

    def test_crashing_check_fails_without_crashing_the_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "CHECKS", (("boom", "a check that raises", "trivial", "1", lambda: 1 // 0),)
        )
        code, out, err = run_cli(capsys, "verify-paper")
        assert code == 1
        (check,) = json.loads(out)["checks"]
        assert check["computed"] == "error: integer division or modulo by zero"
        assert check["passed"] is False and "[FAIL] boom" in err

    def test_node_cap_not_accepted(self, capsys):
        code, out, err = run_cli(capsys, "verify-paper", "--node-cap", "10")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --node-cap" in err


class TestRender:
    def test_ascii(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "render", dist_file)
        assert code == 0
        assert "2" in out and len(out.splitlines()) == 7

    def test_ascii_coverage_overlay(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "render", dist_file, "--overlay", "coverage")
        assert code == 0
        assert out.count("*") == 4

    def test_svg(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "render", dist_file, "--format", "svg")
        assert code == 0
        assert out.startswith("<svg") and "</svg>" in out

    @pytest.fixture
    def small_file(self, tmp_path):
        d = Distribution(GridSpec(3, 2), {(0, 0): 2, (2, 1): 1})
        path = tmp_path / "small.dist"
        path.write_text(serialize_distribution(d))
        return str(path)

    def test_ascii_weights_overlay(self, capsys, small_file):
        code, out, _ = run_cli(capsys, "render", small_file, "--overlay", "weights")
        assert code == 0
        assert out == "17/8  5/4    1\n 5/4    1  5/4\n"

    def test_svg_weights_overlay(self, capsys, small_file):
        code, out, _ = run_cli(
            capsys, "render", small_file, "--format", "svg", "--overlay", "weights"
        )
        assert code == 0
        assert out == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="84" height="56">\n'
            '<rect x="0" y="0" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<text x="14" y="18" font-size="10" text-anchor="middle">17/8</text>\n'
            '<rect x="28" y="0" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<text x="42" y="18" font-size="10" text-anchor="middle">5/4</text>\n'
            '<rect x="56" y="0" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<text x="70" y="18" font-size="10" text-anchor="middle">1</text>\n'
            '<rect x="0" y="28" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<text x="14" y="46" font-size="10" text-anchor="middle">5/4</text>\n'
            '<rect x="28" y="28" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<text x="42" y="46" font-size="10" text-anchor="middle">1</text>\n'
            '<rect x="56" y="28" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<text x="70" y="46" font-size="10" text-anchor="middle">5/4</text>\n'
            "</svg>\n"
        )

    def test_svg_coverage_overlay(self, capsys, small_file):
        code, out, _ = run_cli(
            capsys, "render", small_file, "--format", "svg", "--overlay", "coverage"
        )
        assert code == 0
        assert out == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="84" height="56">\n'
            '<rect x="0" y="0" width="28" height="28" fill="#cde8cd" stroke="#444444"/>\n'
            '<text x="14" y="18" font-size="10" text-anchor="middle">2</text>\n'
            '<rect x="28" y="0" width="28" height="28" fill="#cde8cd" stroke="#444444"/>\n'
            '<rect x="56" y="0" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<rect x="0" y="28" width="28" height="28" fill="#cde8cd" stroke="#444444"/>\n'
            '<rect x="28" y="28" width="28" height="28" fill="#ffffff" stroke="#444444"/>\n'
            '<rect x="56" y="28" width="28" height="28" fill="#cde8cd" stroke="#444444"/>\n'
            '<text x="70" y="46" font-size="10" text-anchor="middle">1</text>\n'
            "</svg>\n"
        )



def pinned(expected) -> str:
    """The exact stdout of a JSON report holding expected."""
    return json.dumps(expected, indent=2, sort_keys=True) + "\n"


class TestPinnedJson:
    """Whole reports, byte for byte: every exact value a "p/q" string, every
    count an int, the same keys in the same order."""

    def test_lp_unit_excess(self, capsys):
        code, out, _ = run_cli(capsys, "lp", "unit-excess")
        fours, twelves = ["4/25"] * 4, ["12/25"] * 4
        assert code == 0 and out == pinned(
            {
                "certificate_verified": True,
                "implied_ratio_bound": "213/25",
                "problem": "unit-excess",
                "schema": SCHEMA,
                "solution": {
                    "dual": ["0"] * 4 + fours,
                    "objective_value": "12/25",
                    "primal": ["0"] * 4 + twelves,
                    "ray": [],
                    "status": "optimal",
                },
            }
        )

    def test_lp_fractional_torus(self, capsys):
        code, out, _ = run_cli(
            capsys, "lp", "fractional", "--width", "9", "--height", "9", "--torus"
        )
        assert code == 0 and out == pinned(
            {
                "fractional_solvable": True,
                "grid": [9, 9, "torus"],
                "problem": "fractional-optimal",
                "schema": SCHEMA,
                "value": "5184/529",
                "witness": {f"{c},{r}": "64/529" for r in range(9) for c in range(9)},
            }
        )

    def test_analyze_integer_file(self, capsys, tmp_path):
        path = tmp_path / "small.dist"
        path.write_text("grid 3 2 plane\npebble 0 0 2\npebble 2 1 1\n")
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--coverage", "--weights", "--ceiling"
        )
        rows = [
            ((0, 0), "17/8", "9/8"), ((1, 0), "5/4", "1/4"), ((2, 0), "1", "0"),
            ((0, 1), "5/4", "1/4"), ((1, 1), "1", "0"), ((2, 1), "5/4", "1/4"),
        ]  # fmt: skip
        assert code == 0 and out == pinned(
            {
                "ceiling": "2",
                "coverage": {
                    "boundary": [[0, 1], [1, 0], [2, 1]],
                    "cov": 4,
                    "ratio": "4/3",
                    "reachable": [[0, 0], [0, 1], [1, 0], [2, 1]],
                },
                "grid": [3, 2, "plane"],
                "schema": SCHEMA,
                "size": 3,
                "weights": {
                    "ceiling": "2",
                    "rows": [{"excess": x, "vertex": list(v), "w": w} for v, w, x in rows],
                    "total_excess": "15/8",
                    "total_weight": "63/8",
                },
            }
        )

    def test_analyze_continuous_file(self, capsys, tmp_path):
        path = tmp_path / "cont.dist"
        path.write_text("grid 2 2 torus continuous\npebble 0 0 1/3\npebble 1 1 1/2\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--ceiling", "--infinite-mode")
        assert code == 0 and out == pinned(
            {"ceiling": "9", "grid": [2, 2, "torus"], "schema": SCHEMA, "size": "5/6"}
        )

    def test_optimal_3x3(self, capsys):
        code, out, _ = run_cli(capsys, "optimal", "--grid", "3", "3")
        per_size = [(1, 3, 3), (2, 11, 11), (3, 31, 31), (4, 1, 0)]
        assert code == 0 and out == pinned(
            {
                "results": [
                    {
                        "candidates_tested": 46,
                        "grid": [3, 3],
                        "per_size": [
                            {
                                "engine_refuted": 0,
                                "orbits": orbits,
                                "size": size,
                                "walk_refuted": refuted,
                            }
                            for size, orbits, refuted in per_size
                        ],
                        "pi_opt": 4,
                        "ratio": "4/9",
                        "witness": {"1,1": 4},
                    }
                ],
                "schema": SCHEMA,
            }
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["optimal", "--grid", "5", "4"],
        ["optimal", "--grid", "6", "2", "--node-cap", "1"],
        ["optimal", "--max-n", "0"],
        ["render", "{cascade}", "--overlay", "coverage", "--node-cap", "10"],
        ["render", "{frac}", "--overlay", "coverage"],
        ["analyze", "{huge}", "--ceiling"],
        ["render", "{huge}", "--overlay", "weights"],
        ["gen", "block-composition", "-n", "5", "-m", "2"],
        ["gen", "uniform-frac", "--q", "abc"],
        ["gen", "uniform-frac", "--q", "1/0"],
    ],
    ids=[
        "optimal-too-large",
        "optimal-budget",
        "optimal-max-n-zero",
        "render-budget",
        "render-coverage-continuous",
        "analyze-ceiling-too-long",
        "render-weights-too-long",
        "gen-missing-inner",
        "gen-q-not-rational",
        "gen-q-zero-denominator",
    ],
)
def test_user_error_exits_2(capsys, tmp_path, argv):
    """Bad input and exhausted budgets end in one `error: ...` line and
    exit 2, never in a traceback."""
    cascade = tmp_path / "cascade.dist"
    cascade.write_text(
        serialize_distribution(Distribution.combined(*gen_cascade_ones(GridSpec(13, 5), 5)))
    )
    frac = tmp_path / "frac.dist"
    frac.write_text(serialize_distribution(gen_uniform_frac(GridSpec(3, 3), Fraction(1, 2))))
    # a denominator of 5,001 digits, past what str() writes by default
    huge = tmp_path / "huge.dist"
    huge.write_text("grid 2 2 plane continuous\npebble 0 0 1e-5000\n")
    names = {"cascade": cascade, "frac": frac, "huge": huge}
    code, _, err = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


#: 10^10,000,000 takes Fraction seconds to build; the exponent alone refuses it
FAR_EXPONENT = "grid 2 2 plane continuous\npebble 0 0 1e-10000000\n"
#: two amounts of 2,501-digit denominators, each short enough to read, whose
#: sums in the size, the weights and the ceiling are too long to write
LONG_SUM = (
    "grid 2 2 plane continuous\n"
    f"pebble 0 0 1/{10**2500 + 1}\npebble 1 1 1/{10**2500 + 3}\n"
)


def test_far_exponent_refused_at_once(capsys, tmp_path):
    path = tmp_path / "far.dist"
    path.write_text(FAR_EXPONENT)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", str(path), "--ceiling")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: line 2: bad rational count '1e-10000000'\n")


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--ceiling"], ["analyze", "--weights"], ["render", "--overlay", "weights"]],
    ids=["analyze-ceiling", "analyze-weights", "render-weights"],
)
def test_reports_too_long_to_write_end_in_one_line(capsys, tmp_path, argv):
    """A ceiling or a weight computed from amounts that each passed the
    length check is refused where the report is written, and nothing of
    the report is written."""
    path = tmp_path / "pair.dist"
    path.write_text(LONG_SUM)
    out_file = tmp_path / "report.txt"
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:], "-o", str(out_file))
    assert (code, out) == (2, "")
    assert err == "error: an exact rational too long to write back: over 4300 digits\n"
    assert not out_file.exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines() -> list[str]:
    return [
        line.split("#", 1)[0]
        for line in README.read_text().splitlines()
        if line.startswith("pebblekit ")
    ]


def test_readme_command_lines_parse():
    """Every command line in the README is accepted by the CLI's parser."""
    lines = readme_command_lines()
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_python_blocks_run():
    """Every python block of the README runs as written, so the documented
    library API cannot drift."""
    fenced = README.read_text().split("```")[1::2]
    blocks = [block.split("\n", 1)[1] for block in fenced if block.startswith("python\n")]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_names_every_export():
    """Every public name of the package appears in backquotes in the README
    prose, so an export either has a documented user path or goes."""
    prose = "".join(README.read_text().split("```")[0::2])
    spans = re.findall(r"`([^`]+)`", prose)
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    exports = {
        name
        for name, value in vars(pebblekit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(exports) >= 40
    assert sorted(exports - named) == []


def test_readme_command_lines_run(capsys, tmp_path, monkeypatch):
    """Every command line in the README runs to exit 0, next to a dist.txt
    holding the README's own distribution-file example."""
    example = next(
        block.strip() + "\n"
        for block in README.read_text().split("```")
        if block.strip().startswith("grid ")
    )
    (tmp_path / "dist.txt").write_text(example)
    monkeypatch.chdir(tmp_path)
    for line in readme_command_lines():
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
