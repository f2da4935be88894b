import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from pebblekit import cli
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

    def test_weights_and_ceiling(self, capsys, dist_file):
        code, out, _ = run_cli(capsys, "analyze", dist_file, "--weights", "--ceiling")
        assert code == 0
        report = json.loads(out)
        assert report["ceiling"]
        assert any(row["w"] == "2" for row in report["weights"]["rows"])

    def test_infinite_ceiling(self, capsys, dist_file):
        code, out, _ = run_cli(
            capsys, "analyze", dist_file, "--ceiling", "--infinite-mode"
        )
        assert code == 0
        assert json.loads(out)["ceiling"] == "17/2"

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
        assert all(r["weight_refuted"] == r["orbits"] for r in rows[:-1])
        assert sum(r["orbits"] for r in rows) == result["candidates_tested"] == 46

    def test_node_cap_reports_exhausted_sizes(self, capsys):
        """Sizes 1-4 of 6x2 are exhausted before the one-entry memo overflows
        at size 5, so the bound beats ceil(32/9) = 4 from the LP."""
        code, out, err = run_cli(capsys, "optimal", "--grid", "6", "2", "--node-cap", "1")
        assert code == 2 and out == ""
        assert err.strip().endswith("known bounds: 5 <= pi_opt")


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


@pytest.mark.parametrize(
    "argv",
    [
        ["optimal", "--grid", "5", "4"],
        ["optimal", "--grid", "6", "2", "--node-cap", "1"],
        ["optimal", "--max-n", "0"],
        ["render", "{cascade}", "--overlay", "coverage", "--node-cap", "10"],
        ["render", "{frac}", "--overlay", "coverage"],
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
    code, _, err = run_cli(capsys, *(a.format(cascade=cascade, frac=frac) for a in argv))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


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
