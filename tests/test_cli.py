import random
import subprocess
import sys

import pytest

from rearrange_lab import generators, grid2d, lattice, step1d
from rearrange_lab.cli import main
from rearrange_lab.grid2d import GridFunction, HyperplaneKind, LatticeHyperplane
from rearrange_lab.lattice import LatticeFunction
from rearrange_lab.series import ConvergenceSeries
from rearrange_lab.step1d import StepFunction


@pytest.fixture
def step_file(tmp_path):
    p = tmp_path / "u.csv"
    step1d.write_csv(StepFunction.indicator(1, 2), p)
    return p


@pytest.fixture
def lattice_file(tmp_path):
    p = tmp_path / "l.csv"
    lattice.write_csv(LatticeFunction({-2: 7.0}), p)
    return p


@pytest.fixture
def grid_file(tmp_path):
    p = tmp_path / "g.csv"
    grid2d.write_csv(GridFunction.from_points(3, 0.5, {(2, 0): 5.0}), p)
    return p


class TestPolarize:
    def test_step_across_origin(self, step_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["polarize", "--input", str(step_file),
                     "--output", str(out), "--by", "nu=1,d=0"]) == 0
        assert step1d.read_csv(out) == StepFunction.indicator(-2, -1)

    def test_lattice_reflection(self, lattice_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["polarize", "--input", str(lattice_file),
                     "--output", str(out), "--by", "c=0"]) == 0
        assert lattice.read_csv(out) == LatticeFunction({2: 7.0})

    def test_grid_hyperplane(self, grid_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["polarize", "--input", str(grid_file),
                     "--output", str(out), "--by", "dir=X,s=-0.5"]) == 0
        assert grid2d.read_csv(out).value(-3, 0) == 5.0

    def test_empty_function(self, tmp_path):
        src = tmp_path / "z.csv"
        out = tmp_path / "out.csv"
        step1d.write_csv(StepFunction.zero(), src)
        assert main(["polarize", "--input", str(src), "--output", str(out),
                     "--by", "nu=1,d=0.5"]) == 0
        assert step1d.read_csv(out).is_zero

    def test_grid_escape_is_exit_3(self, tmp_path):
        src = tmp_path / "g.csv"
        out = tmp_path / "out.csv"
        # (2, 0) is outside {i <= -1.5} and reflects to (-5, 0), off the array
        grid2d.write_csv(GridFunction.from_points(2, 1.0, {(2, 0): 1.0}), src)
        assert main(["polarize", "--input", str(src), "--output", str(out),
                     "--by", "dir=X,s=-1.5"]) == 3

    def test_bad_geometry_is_exit_2(self, step_file, tmp_path):
        assert main(["polarize", "--input", str(step_file),
                     "--output", str(tmp_path / "o.csv"),
                     "--by", "nu=3,d=0"]) == 2

    @pytest.mark.parametrize("by", ["nu=1,d=nan", "nu=-1,d=inf"])
    def test_non_finite_halfspace_is_exit_2(self, step_file, tmp_path, by):
        out = tmp_path / "o.csv"
        assert main(["polarize", "--input", str(step_file),
                     "--output", str(out), "--by", by]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("by", ["dir=X,s=inf", "dir=Y,s=-inf"])
    def test_non_finite_grid_offset_is_exit_2(self, grid_file, tmp_path, by):
        out = tmp_path / "o.csv"
        assert main(["polarize", "--input", str(grid_file),
                     "--output", str(out), "--by", by]) == 2
        assert not out.exists()

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["polarize", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.csv"),
                     "--by", "nu=1,d=0"]) == 2

    def test_corrupt_input_is_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("site,value\n0,-3\n")
        assert main(["polarize", "--input", str(src),
                     "--output", str(tmp_path / "o.csv"), "--by", "c=0"]) == 2


class TestRearrange:
    def test_step(self, tmp_path):
        src = tmp_path / "u.csv"
        out = tmp_path / "out.csv"
        step1d.write_csv(StepFunction.indicator(1, 3), src)
        assert main(["rearrange", "--input", str(src),
                     "--output", str(out)]) == 0
        assert step1d.read_csv(out) == StepFunction.indicator(-1, 1)

    def test_lattice(self, tmp_path):
        src = tmp_path / "l.csv"
        out = tmp_path / "out.csv"
        lattice.write_csv(LatticeFunction({3: 5.0, -1: 2.0, 0: 1.0}), src)
        assert main(["rearrange", "--input", str(src),
                     "--output", str(out)]) == 0
        assert lattice.read_csv(out) == LatticeFunction({0: 5.0, 1: 2.0, -1: 1.0})

    def test_grid(self, grid_file, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["rearrange", "--input", str(grid_file),
                     "--output", str(out)]) == 0
        assert grid2d.read_csv(out).value(0, 0) == 5.0

    def test_engine_inference_vs_override(self, lattice_file, tmp_path):
        # forcing the wrong engine turns the same bytes into a parse error
        assert main(["rearrange", "--input", str(lattice_file),
                     "--output", str(tmp_path / "o.csv"),
                     "--engine", "step1d"]) == 2


class TestConverge:
    def test_writes_series(self, step_file, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["converge", "--input", str(step_file),
                     "--output", str(out), "--n-max", "20"]) == 0
        series = ConvergenceSeries.read_csv(out)
        assert series[0].lp_error == 2.0
        assert series.final.lp_error < 1e-3

    def test_symmetric_input_all_zero_errors(self, tmp_path):
        src = tmp_path / "u.csv"
        out = tmp_path / "s.csv"
        step1d.write_csv(StepFunction.indicator(-1, 1), src)
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "10"]) == 0
        assert all(r.lp_error == 0.0
                   for r in ConvergenceSeries.read_csv(out))

    def test_reversed_order(self, step_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["converge", "--input", str(step_file),
                     "--output", str(out), "--n-max", "20",
                     "--order", "reversed"]) == 0

    def test_deterministic_output_bytes(self, step_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["converge", "--input", str(step_file),
                         "--output", str(out), "--n-max", "15",
                         "--weight", "gaussian"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lattice_engine(self, tmp_path):
        src = tmp_path / "l.csv"
        out = tmp_path / "s.csv"
        lattice.write_csv(LatticeFunction({5: 1.0}), src)
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "30"]) == 0
        assert ConvergenceSeries.read_csv(out).final.lp_error == 0.0

    def test_grid_engine(self, grid_file, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["converge", "--input", str(grid_file),
                     "--output", str(out), "--n-max", "6"]) == 0
        assert len(ConvergenceSeries.read_csv(out)) == 7

    def test_infinite_cell_size_is_exit_2(self, tmp_path):
        src = tmp_path / "g.csv"
        out = tmp_path / "s.csv"
        src.write_text("1,inf\n0,0,0\n0,1,0\n0,0,0\n")
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "3"]) == 2
        assert not out.exists()

    def test_bad_weight_is_exit_2(self, step_file, tmp_path):
        assert main(["converge", "--input", str(step_file),
                     "--output", str(tmp_path / "s.csv"),
                     "--weight", "boxcar"]) == 2


class TestCheck:
    def test_single_suite_passes(self, capsys):
        assert main(["check", "--suite", "cavalieri", "--cases", "50",
                     "--seed", "42"]) == 0
        assert "cavalieri: 50 cases, pass" in capsys.readouterr().out

    def test_all_suites_pass(self, capsys):
        assert main(["check", "--suite", "all", "--cases", "25"]) == 0
        out = capsys.readouterr().out
        for name in ("cavalieri", "hardy-littlewood", "contraction",
                     "polarization", "lattice-fixed-point"):
            assert f"{name}: 25 cases, pass" in out

    @pytest.mark.parametrize("seed", ["9000003893", "5000083920",
                                      "1797329998000005120"])
    def test_contraction_tolerance_scales_with_distance(self, capsys, seed):
        # p=3 distances near 1e4 differ by one rounding step (~1e-12) here
        assert main(["check", "--suite", "contraction", "--cases", "1",
                     "--seed", seed]) == 0
        assert "contraction: 1 cases, pass" in capsys.readouterr().out


class TestSchedule:
    def test_first_three(self, capsys):
        assert main(["schedule", "--count", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "nu=1,d=0.5", "nu=-1,d=0.5", "nu=1,d=0.25"]

    def test_2d_first(self, capsys):
        assert main(["schedule", "--dim", "2", "--count", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["nu=0,d=0.5"]

    def test_zero_count_is_usage_error(self):
        assert main(["schedule", "--count", "0"]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["schedule", "--count", "3", "--bogus"]) == 2


class TestEntryPoint:
    def test_module_invocation(self, step_file, tmp_path):
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "rearrange_lab", "rearrange",
             "--input", str(step_file), "--output", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert step1d.read_csv(out) == StepFunction.indicator(-0.5, 0.5)

    def test_roundtrip_polarize_then_back(self, tmp_path):
        # polarizing twice by the same halfspace is stable byte-for-byte
        rng = random.Random(20)
        src = tmp_path / "u.csv"
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        step1d.write_csv(generators.random_step_function(rng), src)
        assert main(["polarize", "--input", str(src), "--output", str(once),
                     "--by", "nu=-1,d=0.25"]) == 0
        assert main(["polarize", "--input", str(once), "--output", str(twice),
                     "--by", "nu=-1,d=0.25"]) == 0
        assert once.read_bytes() == twice.read_bytes()
