import json
import math
import sys

import numpy as np
import pytest

from conftest import run_python
from hardycap import cli
from hardycap.cli import build_parser, main
from hardycap.eta import find_truncation_point

HALF_PI = "1.5707963267948966"


def run_cli(*args):
    return run_python("-m", "hardycap.cli", *args)


class TestFindT:
    def test_sine_hemisphere(self):
        proc = run_cli("find-T", "--weight", "sine", "--n", "3", "--p", "2",
                       "--a", HALF_PI)
        assert proc.returncode == 0
        header, row = proc.stdout.strip().split("\n")
        assert header == "T,eta_at_T"
        t_val, plateau = map(float, row.split(","))
        assert abs(t_val - math.pi / 4) < 1e-7
        assert abs(plateau - 2.0) < 1e-9


class TestSharpness1d:
    def _flags(self):
        return ("sharpness-1d", "--weight", "sine", "--n", "3", "--p", "2",
                "--a", HALF_PI, "--ks", "16,64,256", "--truncated")

    def test_margins_positive_decreasing(self):
        proc = run_cli(*self._flags())
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "k,quotient,margin"
        margins = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(m > 0.0 for m in margins)
        assert margins == sorted(margins, reverse=True)

    def test_byte_identical_reruns(self):
        out1 = run_cli(*self._flags())
        out2 = run_cli(*self._flags())
        assert out1.returncode == out2.returncode == 0
        assert out1.stdout == out2.stdout

    def test_json_schema(self):
        proc = run_cli(*self._flags(), "--format", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert set(payload) == {"meta", "rows"}
        assert payload["meta"]["command"] == "sharpness-1d"
        assert "version" in payload["meta"]
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == {"k", "quotient", "margin"}


class TestExitCodes:
    def test_zero_function_exits_2(self):
        proc = run_cli("quotient", "--weight", "power", "--p", "2", "--a", "1",
                       "--delta", "1", "--function", "zero")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "zero" in proc.stderr

    def test_bad_parameter_exits_2(self):
        proc = run_cli("find-T", "--weight", "sine", "--n", "3", "--p", "5",
                       "--a", HALF_PI)
        assert proc.returncode == 2

    def test_missing_delta_exits_2(self):
        proc = run_cli("find-T", "--weight", "power", "--p", "2", "--a", "1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv,match", [
        (["--weight", "sine", "--n", "3", "--p", "2", "--a", HALF_PI, "--delta", "5"], "n - p"),
        (["--weight", "power", "--n", "3", "--p", "2", "--a", "1", "--delta", "1"], "no n"),
        (["--weight", "sine", "--p", "2", "--a", "1", "--delta", "1"], "needs n"),
    ], ids=["sine_delta", "power_n", "sine_no_n"])
    def test_flag_of_other_family_exits_2(self, argv, match, capsys):
        # --delta was ignored for sine weights and --n for power weights
        assert main(["find-T", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and match in captured.err

    @pytest.mark.parametrize("truncated", [(), ("--truncated",)], ids=["U", "V"])
    def test_unresolved_k_exits_2(self, truncated, capsys):
        # this printed quotient 0.99865 (0.99809 truncated) with exit 0
        argv = ["sharpness-1d", "--weight", "power", "--p", "2", "--delta", "1", "--a", "1",
                "--ks", "1000000000000000", *truncated]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "first cell" in captured.err

    def test_success_exits_0(self):
        proc = run_cli("integrability", "--n", "3", "--p", "2", "--a", "1.0")
        assert proc.returncode == 0

    @pytest.mark.parametrize("command,flags", [
        ("eta-table", ("--p", "inf", "--delta", "1", "--a", "1")),
        ("find-T", ("--p", "2", "--delta", "1", "--a", "inf")),
    ])
    def test_non_finite_weight_exits_2(self, command, flags, capsys):
        # p = inf printed nan eta bounds with exit 0; the weight is refused
        assert main([command, "--weight", "power", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err


class TestTruncationPointOnlyWhereRead:
    """T is found for the truncated weight and the V_k ramp, and only there."""

    WEIGHT = ["--weight", "sine", "--n", "3", "--p", "2", "--a", HALF_PI]

    def test_find_truncation_point_calls(self, monkeypatch, capsys):
        calls = []

        def spy(w):
            calls.append(w)
            return find_truncation_point(w)

        monkeypatch.setattr("hardycap.cli.find_truncation_point", spy)
        for argv, reads_T in [
            (["quotient", *self.WEIGHT, "--function", "hat"], False),
            (["quotient", *self.WEIGHT, "--function", "uk"], False),
            (["sharpness-1d", *self.WEIGHT, "--ks", "16,64"], False),
            (["quotient", *self.WEIGHT, "--function", "hat", "--truncated"], True),
            (["quotient", *self.WEIGHT, "--function", "vk"], True),
            (["sharpness-1d", *self.WEIGHT, "--ks", "16,64", "--truncated"], True),
        ]:
            calls.clear()
            assert main(argv) == 0
            assert len(calls) == reads_T, argv
        capsys.readouterr()

    def test_overflowing_weight_exits_3(self, capsys):
        # t**-40 overflows at the quotient's panels next to 0: this printed nan
        argv = ["quotient", "--weight", "power", "--p", "1.2", "--delta", "7.8",
                "--a", "1", "--function", "hat"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "denominator is not finite" in captured.err


class TestOutputFile:
    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "table.csv"
        proc = run_cli("quotient", "--weight", "power", "--p", "2", "--a", "1",
                       "--delta", "1", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        text = target.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "numerator,denominator,quotient,sharp_constant,margin"
        quotient = float(lines[1].split(",")[2])
        assert abs(quotient - 0.5431485588777438) < 1e-6

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        # printed a FileNotFoundError traceback and exited 1
        target = tmp_path / "missing" / "x.csv"
        argv = ["find-T", "--weight", "sine", "--n", "3", "--p", "2", "--a", "1.5",
                "--out", str(target)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert str(target) in captured.err and not target.parent.exists()

    def test_csv_17_digits(self):
        proc = run_cli("find-T", "--weight", "power", "--p", "2", "--a", "1",
                       "--delta", "1")
        row = proc.stdout.strip().split("\n")[1]
        t_field = row.split(",")[0]
        # 17 significant digits survive a round trip
        assert float(t_field) == float(repr(float(t_field)))
        assert len(t_field.replace(".", "").lstrip("0")) >= 15


class TestOtherCommands:
    def test_validate_weight(self):
        proc = run_cli("validate-weight", "--weight", "sine", "--n", "4",
                       "--p", "3", "--a", "1.0", "--format", "json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["rows"]
        assert rows[0]["all_ok"] is True

    def test_eta_table(self):
        proc = run_cli("eta-table", "--weight", "power", "--p", "2", "--a", "1",
                       "--delta", "1")
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "t,eta,lower_bound,upper_bound"
        assert len(lines) == 65

    def test_sphere_verify(self):
        proc = run_cli("sphere-verify", "--n", "3", "--p", "2", "--a", HALF_PI,
                       "--k", "64")
        assert proc.returncode == 0
        row = proc.stdout.strip().split("\n")[1]
        quotient = float(row.split(",")[2])
        assert quotient >= 0.25

    def test_halfspace_verify(self):
        proc = run_cli("halfspace-verify", "--n", "3", "--p", "2", "--k", "64",
                       "--eps", "1e-3", "--format", "json")
        assert proc.returncode == 0
        row = json.loads(proc.stdout)["rows"][0]
        assert row["ratio"] >= 0.25
        assert abs(row["moment_ratio"] - 1.0) < 1e-4

    def test_rearrange_demo_deterministic(self):
        args = ("rearrange-demo", "--n", "3", "--a", HALF_PI, "--seed", "7")
        out1, out2 = run_cli(*args), run_cli(*args)
        assert out1.returncode == 0
        assert out1.stdout == out2.stdout
        lines = out1.stdout.strip().split("\n")
        assert lines[0] == "q,moment_input,moment_rearranged,hl_lhs,hl_rhs"
        for line in lines[1:]:
            fields = line.split(",")
            assert abs(float(fields[1]) - float(fields[2])) < 1e-8 * float(fields[1])

    @pytest.mark.parametrize("n", (8, 32, 64, 128))
    def test_rearrange_demo_moments_on_small_caps(self, n, capsys):
        for share in (0.02, 0.05, 0.1, 0.5, 0.98):
            for seed in (0, 1, 2):
                argv = ["rearrange-demo", "--n", str(n), "--a", repr(share * math.pi),
                        "--seed", str(seed)]
                assert main(argv) == 0
                for line in capsys.readouterr().out.strip().split("\n")[1:]:
                    m_in, m_out = map(float, line.split(",")[1:3])
                    assert abs(m_out - m_in) <= 1e-9 * m_in, (argv, line)

    def test_rearrange_demo_underflowing_cap_exits_2(self, capsys):
        # the volume of this cap underflows to 0
        assert main(["rearrange-demo", "--n", "256", "--a", "0.157"]) == 2
        err = capsys.readouterr().err
        assert "a_star=0.157" in err and "n=256" in err and "underflows" in err
        assert len(err) < 120 and err.count("\n") == 1


class TestOverflowingWeight:
    """sine(200, 2, 3.1): phi**(-1/(p-1)) overflows near t = 0."""

    FLAGS = ["--weight", "sine", "--n", "200", "--p", "2", "--a", "3.1"]

    def test_eta_table_exits_3(self, capsys):
        with np.errstate(all="ignore"):
            assert main(["eta-table", *self.FLAGS]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite at t=3.1e-06" in captured.err

    def test_validate_weight_prints_finite_constants(self, capsys):
        assert main(["validate-weight", *self.FLAGS, "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert math.isfinite(row["c1"]) and math.isfinite(row["c2"])
        assert row["positive_ok"] is False and row["all_ok"] is False


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    QUOTIENT = ["quotient", "--weight", "sine", "--n", "3", "--p", "2", "--a", HALF_PI,
                "--function", "uk", "--k", "3", "--format", "json"]

    @staticmethod
    def _run(capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_no_state_leaks_between_calls(self, capsys):
        build_parser.cache_clear()
        alone = self._run(capsys, self.QUOTIENT)
        build_parser.cache_clear()
        code, truncated = self._run(capsys, [*self.QUOTIENT, "--truncated"])
        assert code == 0 and truncated != alone[1]
        assert self._run(capsys, self.QUOTIENT) == alone

    def test_usage_error_then_valid_call(self, capsys):
        build_parser.cache_clear()
        alone = self._run(capsys, self.QUOTIENT)
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["quotient", "--weight", "sine", "--n", "3"])  # no --p, --a
        assert exc.value.code == 2
        capsys.readouterr()
        assert self._run(capsys, self.QUOTIENT) == alone


class TestCsvCells:
    """``_emit`` formats a float cell inline; the CSV must be the bytes of
    formatting every cell with ``_fmt``."""

    @staticmethod
    def _emit_with_fmt(args, meta, header, rows):
        lines = [",".join(header)]
        lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
        sys.stdout.write("\n".join(lines) + "\n")

    @pytest.mark.parametrize("argv", [
        ["eta-table", "--weight", "sine", "--n", "4", "--p", "2.5", "--a", "2.0"],
        ["eta-table", "--weight", "power", "--p", "2", "--delta", "1", "--a", "1"],
        ["validate-weight", "--weight", "sine", "--n", "3", "--p", "2", "--a", HALF_PI],
        ["validate-weight", "--weight", "power", "--p", "1.5", "--delta", "0.75", "--a", "3"],
        ["integrability", "--n", "3", "--p", "2", "--a", "1.0"],
    ], ids=["eta-table-sine", "eta-table-power", "validate-sine", "validate-power",
            "integrability"])
    def test_same_bytes_as_fmt(self, argv, capsys, monkeypatch):
        assert main(argv) == 0
        fast = capsys.readouterr().out
        monkeypatch.setattr(cli, "_emit", self._emit_with_fmt)
        assert main(argv) == 0
        assert fast == capsys.readouterr().out
        assert fast.count("\n") > 1


class TestStartUp:
    """Only cap volumes load ``scipy.special``, whose import takes longer
    than most 1-D commands: a fresh interpreter that runs none has not
    loaded it."""

    SCRIPT = """
import contextlib, io, json, sys
loaded = lambda: "scipy.special" in sys.modules
import hardycap
from hardycap.cli import main
seen = {"import hardycap": loaded()}
weight = ["--weight", "sine", "--n", "3", "--p", "2", "--a", "1.5707963267948966"]
for argv in (["validate-weight", *weight], ["eta-table", *weight], ["find-T", *weight],
             ["quotient", *weight, "--function", "vk", "--truncated"],
             ["sharpness-1d", *weight, "--ks", "16,64", "--truncated"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    seen[argv[0]] = loaded()
hardycap.cap_volume(3, 1.0)
seen["cap_volume"] = loaded()
print(json.dumps(seen))
"""

    def test_scipy_special_loads_only_for_cap_volumes(self):
        proc = run_python("-c", self.SCRIPT)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert seen == {"import hardycap": False, "validate-weight": False, "eta-table": False,
                        "find-T": False, "quotient": False, "sharpness-1d": False,
                        "cap_volume": True}
