import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rearrange_lab import cli, generators, grid2d, lattice, step1d
from rearrange_lab.cli import main
from rearrange_lab.grid2d import GridFunction, HyperplaneKind, LatticeHyperplane
from rearrange_lab.lattice import LatticeFunction
from rearrange_lab.series import ConvergenceSeries
from rearrange_lab.step1d import StepFunction

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(args):
    """`python -m rearrange_lab args` in a fresh process, with this
    checkout's src first on PYTHONPATH and the rest of the environment
    kept."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rearrange_lab", *args],
                          capture_output=True, text=True, env=env)


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

    def test_grid_escape_is_exit_3(self, tmp_path, capsys):
        src = tmp_path / "g.csv"
        out = tmp_path / "out.csv"
        # (2, 0) is outside {i <= -1.5} and reflects to (-5, 0), off the array
        grid2d.write_csv(GridFunction.from_points(2, 1.0, {(2, 0): 1.0}), src)
        assert main(["polarize", "--input", str(src), "--output", str(out),
                     "--by", "dir=X,s=-1.5"]) == 3
        # the hyperplane is named as --by wrote it
        assert capsys.readouterr().err == (
            "geometry error: support reflects outside the 5x5 array for "
            "dir=X,s=-1.5\n")

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

    @pytest.mark.parametrize("by,code", [
        ("dir=X,s=1e300", 0), ("dir=X,s=-1e300", 3),
        ("dir=U,s=1e300", 0), ("dir=U,s=-1e300", 3),
    ])
    def test_grid_offset_far_outside_the_array(self, tmp_path, by, code):
        src = tmp_path / "g.csv"
        out = tmp_path / "o.csv"
        grid2d.write_csv(GridFunction(2, 1.0, [[1.0] * 5] * 5), src)
        assert main(["polarize", "--input", str(src), "--output", str(out),
                     "--by", by]) == code
        assert out.exists() == (code == 0)

    def test_output_with_repeated_mirror_image_reads_back(self, tmp_path):
        # 0 and 1e-20 reflect across 0.5 to the same float
        src = tmp_path / "u.csv"
        out = tmp_path / "o.csv"
        src.write_text("breakpoint,value\n0,3\n1e-20,1\n1,2\n2,\n")
        assert main(["polarize", "--input", str(src), "--output", str(out),
                     "--by", "nu=1,d=0.5"]) == 0
        assert main(["rearrange", "--input", str(out),
                     "--output", str(tmp_path / "r.csv")]) == 0

    def test_mirror_image_beyond_the_float_range_is_exit_2(self, step_file,
                                                           tmp_path):
        out = tmp_path / "o.csv"
        assert main(["polarize", "--input", str(step_file),
                     "--output", str(out), "--by", "nu=1,d=-1e308"]) == 2
        assert not out.exists()

    def test_involution_without_value_is_exit_2(self, lattice_file, tmp_path,
                                                capsys):
        assert main(["polarize", "--input", str(lattice_file),
                     "--output", str(tmp_path / "o.csv"), "--by", "c"]) == 2
        assert "want c=<int>" in capsys.readouterr().err

    @pytest.mark.parametrize("fixture, by, form", [
        ("step_file", "nu=1,d=0.5,nu=-1", "nu=<angle or +-1>,d=<offset>"),
        ("step_file", "nu=1,d=0.5,x=3", "nu=<angle or +-1>,d=<offset>"),
        ("lattice_file", "c=1,c=2", "c=<int>"),
        ("grid_file", "dir=X,s=0.5,s=1.5", "dir=X|Y|U|D,s=<offset>"),
        ("grid_file", "dir=X,s=0.5,nu=1", "dir=X|Y|U|D,s=<offset>"),
    ])
    def test_repeated_or_unknown_key_is_exit_2(self, request, tmp_path,
                                               capsys, fixture, by, form):
        out = tmp_path / "o.csv"
        assert main(["polarize", "--input", str(request.getfixturevalue(fixture)),
                     "--output", str(out), "--by", by]) == 2
        assert f"bad encoding {by!r} (want {form})" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_is_exit_2(self, tmp_path):
        assert main(["polarize", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "o.csv"),
                     "--by", "nu=1,d=0"]) == 2

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_directory_as_file_is_exit_2(self, lattice_file, tmp_path,
                                         capsys, side):
        paths = {"input": str(lattice_file), "output": str(tmp_path / "o.csv")}
        paths[side] = str(tmp_path)
        assert main(["rearrange", "--input", paths["input"],
                     "--output", paths["output"]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_corrupt_input_is_exit_2(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("site,value\n0,-3\n")
        assert main(["polarize", "--input", str(src),
                     "--output", str(tmp_path / "o.csv"), "--by", "c=0"]) == 2


class TestRearrange:
    @pytest.mark.parametrize("text", ["breakpoint,value\n0,1\n1,2\n",
                                      "breakpoint,value\n0,1\n"])
    def test_step_file_without_final_breakpoint_row_is_exit_2(
            self, tmp_path, capsys, text):
        src = tmp_path / "u.csv"
        out = tmp_path / "o.csv"
        src.write_text(text)
        assert main(["rearrange", "--input", str(src),
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the last row must hold the final breakpoint with an "
            "empty value field\n")
        assert not out.exists()

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

    def test_repeated_lattice_site_is_exit_2(self, tmp_path):
        src = tmp_path / "l.csv"
        out = tmp_path / "o.csv"
        src.write_text("site,value\n1,2\n1,3\n")
        assert main(["rearrange", "--input", str(src),
                     "--output", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [["polarize", "--by", "nu=1,d=0"],
                                      ["rearrange"],
                                      ["converge", "--n-max", "3"]])
    def test_span_beyond_largest_double_is_exit_2(self, tmp_path, args):
        src = tmp_path / "u.csv"
        out = tmp_path / "o.csv"
        src.write_text("breakpoint,value\n-1e308,1\n1e308,\n")
        assert main([args[0], "--input", str(src), "--output", str(out),
                     *args[1:]]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("args", [["rearrange"],
                                      ["converge", "--n-max", "3"]])
    def test_rearranged_length_beyond_largest_double_is_exit_2(
            self, tmp_path, capsys, args):
        # the span is finite, but the layer cake's sum of the grouped piece
        # lengths rounds beyond the largest double
        src = tmp_path / "u.csv"
        out = tmp_path / "o.csv"
        src.write_text("breakpoint,value\n"
                       "-8.988465674311578e+307,1\n"
                       "-3.5693773871033044e+307,2\n"
                       "-1.9259079943139304e+306,3\n"
                       "6.742918414183176e+307,4\n"
                       "8.952001825597159e+307,5\n"
                       "8.988465674311579e+307,\n")
        assert main([args[0], "--input", str(src), "--output", str(out),
                     *args[1:]]) == 2
        assert capsys.readouterr().err == (
            "error: the length of the rearranged support is beyond the "
            "float range\n")
        assert not out.exists()

    def test_engine_inference_vs_override(self, step_file, lattice_file,
                                          grid_file, tmp_path):
        # the header alone decides the engine: --engine is no option
        out = tmp_path / "o.csv"
        assert main(["rearrange", "--input", str(lattice_file),
                     "--output", str(out), "--engine", "lattice"]) == 2
        assert not out.exists()
        for src, module, rearrange in (
                (step_file, step1d, step1d.rearrange),
                (lattice_file, lattice, lattice.rearrange_lattice),
                (grid_file, grid2d, grid2d.rearrange_grid)):
            assert main(["rearrange", "--input", str(src),
                         "--output", str(out)]) == 0
            assert module.read_csv(out) == rearrange(module.read_csv(src))

    @pytest.mark.parametrize("text, module, rearrange", [
        ("\nbreakpoint,value\n0,1\n3,\n", step1d, step1d.rearrange),
        ("\nsite,value\n0,1\n3,2\n", lattice, lattice.rearrange_lattice),
        (" \n\t\n1,0.5\n0,0,0\n0,1,0\n0,0,0", grid2d, grid2d.rearrange_grid),
    ], ids=["step1d", "lattice", "grid2d"])
    def test_engine_from_first_non_blank_line(self, tmp_path, text, module,
                                              rearrange):
        # the table codec skips blank lines, and so does the engine sniff
        src = tmp_path / "u.csv"
        out = tmp_path / "o.csv"
        src.write_text(text)
        assert main(["rearrange", "--input", str(src),
                     "--output", str(out)]) == 0
        assert module.read_csv(out) == rearrange(module.loads(text))

    @pytest.mark.parametrize("text", ["", "\n \n", "x,y\n0,1\n"])
    def test_unknown_header_is_exit_2(self, tmp_path, capsys, text):
        src = tmp_path / "u.csv"
        out = tmp_path / "o.csv"
        src.write_text(text)
        assert main(["rearrange", "--input", str(src),
                     "--output", str(out)]) == 2
        assert "cannot infer engine from header" in capsys.readouterr().err
        assert not out.exists()


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

    def test_support_next_to_the_float_max(self, tmp_path):
        # lo + hi of its cells overflows; lp_error at n=0 is the width of
        # the support plus that of its rearrangement, with no warning
        src = tmp_path / "u.csv"
        out = tmp_path / "s.csv"
        src.write_text("breakpoint,value\n1.5e308,1\n1.7e308,\n")
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "3"]) == 0
        assert (ConvergenceSeries.read_csv(out)[0].lp_error
                == 3.9999999999999984e+307)

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

    def test_cell_area_beyond_the_float_range_is_exit_2(self, tmp_path,
                                                         capsys):
        src = tmp_path / "g.csv"
        out = tmp_path / "s.csv"
        src.write_text("1,1e200\n0,0,0\n0,1,0\n0,0,0\n")
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: cell size h=1e+200 is too large: the cell area h*h "
            "overflows the float range\n")
        assert not out.exists()

    def test_cell_area_below_the_normal_range_is_exit_2(self, tmp_path,
                                                        capsys):
        # h*h = 1e-340 underflows to 0, so every mass and error read 0
        src = tmp_path / "g.csv"
        out = tmp_path / "s.csv"
        src.write_text("1,1e-170\n0,0,0\n0,1,0\n0,0,0\n")
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: cell size h=1e-170 is too small: the cell area h*h "
            "underflows below the smallest normal double\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rearrange", "converge"])
    def test_piece_below_a_float_step_of_the_measure_is_exit_2(
            self, tmp_path, capsys, command):
        # 1e-17 is below one float step of the cumulative measure 1 + 1e-17
        src = tmp_path / "thin.csv"
        out = tmp_path / "o.csv"
        src.write_text("breakpoint,value\n0,1\n1e-17,2\n1,\n")
        assert main([command, "--input", str(src), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rearranged breakpoints collapse" in err
        assert "strictly increasing" not in err
        assert not out.exists()

    # pytest turns warnings into errors, so a numpy overflow warning fails
    # these as well.
    @pytest.mark.parametrize("text, n_max", [
        ("site,value\n0,1e308\n1,1e308\n-1,1e308\n", "3"),
        ("breakpoint,value\n0,1e308\n1,\n", "2"),
        # the grid's Gaussian mass: 1e308 * h^2 at h = 2
        ("1,2\n0,0,0\n0,1e308,0\n0,0,0\n", "2"),
    ])
    def test_weighted_mass_beyond_the_float_range_is_exit_2(self, tmp_path,
                                                            text, n_max):
        src = tmp_path / "u.csv"
        out = tmp_path / "s.csv"
        src.write_text(text)
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", n_max]) == 2
        assert not out.exists()

    # The 5x5 grid at h = 0.5 with 1e200 at (i, j) = (1, -1).
    GRID_1E200 = "2,0.5\n" + "0,0,0,0,0\n0,0,0,1e200,0\n" + "0,0,0,0,0\n" * 3

    @pytest.mark.parametrize("text, args", [
        ("site,value\n5,1e200\n", ["--p", "2"]),
        ("site,value\n5,1e308\n6,1e308\n", ["--n-max", "3"]),
        ("breakpoint,value\n3,1e200\n4,\n", ["--p", "2"]),
        (GRID_1E200, ["--p", "2"]),
        # Steiner symmetrization moves the second 1e308 to (1, 0), away
        # from its cell in the rearrangement: the L^1 sum is 2e308.
        ("1,0.5\n0,0,0\n1e308,1e308,0\n0,0,0\n", []),
    ], ids=["lattice-power", "lattice-sum", "step1d", "grid-power", "grid-sum"])
    def test_lp_error_beyond_the_float_range_is_exit_2(self, tmp_path, capsys,
                                                       text, args):
        src = tmp_path / "u.csv"
        out = tmp_path / "s.csv"
        src.write_text(text)
        assert main(["converge", "--input", str(src), "--output", str(out),
                     "--n-max", "2", *args]) == 2
        assert "overflows the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_weight_is_exit_2(self, step_file, lattice_file, grid_file,
                                  tmp_path, capsys):
        # --weight is checked on every engine, though only step1d uses it
        out = tmp_path / "s.csv"
        for src in (step_file, lattice_file, grid_file):
            for weight, message in [
                    ("boxcar", "bad weight spec 'boxcar'"),
                    ("triangular:inf", "triangular weight needs a positive "
                                       "finite radius")]:
                assert main(["converge", "--input", str(src), "--output",
                             str(out), "--weight", weight]) == 2
                assert capsys.readouterr().err == f"error: {message}\n"
                assert not out.exists()


class TestNumericOptions:
    @pytest.mark.parametrize("rho", ["inf", "1e308", "1e-320"])
    def test_schedule_rho_outside_the_range_is_exit_2(self, capsys, rho):
        assert main(["schedule", "--count", "2", "--rho", rho]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "rho must lie in [2**-1022, 2**1023)" in err

    @pytest.mark.parametrize("rho", ["inf", "1e-320", "-5"])
    def test_converge_rho_outside_the_range_is_exit_2(
            self, step_file, lattice_file, grid_file, tmp_path, capsys, rho):
        # --rho is checked on every engine, though only step1d uses it
        out = tmp_path / "s.csv"
        for src in (step_file, lattice_file, grid_file):
            assert main(["converge", "--input", str(src),
                         "--output", str(out), "--rho", rho]) == 2
            assert capsys.readouterr().err == (
                "error: rho must lie in [2**-1022, 2**1023), "
                f"got {float(rho)}\n")
            assert not out.exists()

    @pytest.mark.parametrize("engine", ["step_file", "lattice_file",
                                        "grid_file"])
    @pytest.mark.parametrize("args", [
        ["--p", "nan"], ["--p", "inf"], ["--eps", "nan"],
    ], ids=["p-nan", "p-inf", "eps-nan"])
    def test_non_finite_p_or_eps_is_exit_2(self, request, tmp_path, capsys,
                                           engine, args):
        out = tmp_path / "s.csv"
        assert main(["converge", "--input",
                     str(request.getfixturevalue(engine)),
                     "--output", str(out), *args]) == 2
        assert "invalid finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["--p", "0"], "error: p must be >= 1\n"),
        (["--eps", "0"], "error: eps must be positive\n"),
    ])
    def test_zero_p_and_eps_keep_their_messages(self, step_file, tmp_path,
                                                capsys, args, message):
        assert main(["converge", "--input", str(step_file),
                     "--output", str(tmp_path / "s.csv"), *args]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("eps", ["0", "-1", "-0.0"])
    def test_converge_eps_not_positive_is_exit_2(
            self, step_file, lattice_file, grid_file, tmp_path, capsys, eps):
        # --eps is checked on every engine, not only where step1d's
        # deviation measure reads it
        out = tmp_path / "s.csv"
        for src in (step_file, lattice_file, grid_file):
            assert main(["converge", "--input", str(src),
                         "--output", str(out), "--eps", eps]) == 2
            assert capsys.readouterr().err == "error: eps must be positive\n"
            assert not out.exists()

    @pytest.mark.parametrize("engine", ["lattice_file", "grid_file"])
    @pytest.mark.parametrize("p, code", [("0", 2), ("-1", 2), ("0.5", 0)])
    def test_p_must_be_positive_on_lattice_and_grid(self, request, tmp_path,
                                                    capsys, engine, p, code):
        # the step1d scheme needs p >= 1; the other two take any p > 0
        out = tmp_path / "s.csv"
        assert main(["converge", "--input",
                     str(request.getfixturevalue(engine)),
                     "--output", str(out), "--p", p]) == code
        assert capsys.readouterr().err == ("" if code == 0
                                           else "error: p must be > 0\n")
        assert out.exists() == (code == 0)


class TestParserReuse:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_calls_in_one_process_match_fresh_processes(
            self, tmp_path, capsys, monkeypatch, step_file, lattice_file,
            grid_file):
        # The help text is wrapped to COLUMNS, so both sides get the same.
        monkeypatch.setenv("COLUMNS", "80")

        def io(path):
            return ["--input", str(path), "--output", "{out}"]

        calls = [
            ["schedule", "--count", "3", "--bogus"],
            ["--help"],
            ["converge", *io(step_file), "--p", "2"],
            ["converge", *io(step_file)],
            ["polarize", *io(step_file), "--by", "nu=-1,d=0.25"],
            ["polarize", *io(lattice_file), "--by", "c=1"],
            ["polarize", *io(grid_file), "--by", "dir=X,s=0.5"],
        ]
        for k, call in enumerate(calls):
            here, fresh = tmp_path / f"here-{k}.csv", tmp_path / f"fresh-{k}.csv"
            code = main([a.replace("{out}", str(here)) for a in call])
            got = capsys.readouterr()
            proc = run_module([a.replace("{out}", str(fresh)) for a in call])
            assert (code, got.out, got.err) == (
                proc.returncode, proc.stdout, proc.stderr), call
            assert here.exists() == fresh.exists()
            if here.exists():
                assert here.read_bytes() == fresh.read_bytes(), call


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

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_case_count_below_one_is_usage_error(self, capsys, cases):
        assert main(["check", "--cases", cases]) == 2
        assert capsys.readouterr().out == ""


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
        proc = run_module(["rearrange", "--input", str(step_file),
                           "--output", str(out)])
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
