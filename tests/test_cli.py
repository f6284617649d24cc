import json
import math

import numpy as np
import pytest

from conftest import run_python
from hardycap.cli import build_parser, main

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
                "--a", HALF_PI, "--ks", "16,64,256", "--truncated", "--seed", "42")

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
        assert payload["meta"]["seed"] == 42
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
