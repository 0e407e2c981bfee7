import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kzmono
from kzmono.cli import run

# a child `python -m kzmono` imports kzmono from where this process did
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (str(Path(kzmono.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
))


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlgebraInfo:
    def test_json_payload(self, capsys):
        code, out, _ = capture(
            capsys, ["algebra", "info", "--series", "A", "--rank", "1", "--level", "3"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert data["dual_coxeter"] == 2
        assert data["level_weights"] == [[0], [1], [2], [3]]

    def test_unsupported_series_is_domain_error(self, capsys):
        code, out, _ = capture(capsys, ["algebra", "info", "--series", "B", "--rank", "2"])
        assert code == 2
        data = json.loads(out)
        assert data["error"]["kind"] == "configuration"
        assert "A" in data["error"]["message"]


class TestRepBuild:
    def test_build_and_emit(self, capsys, tmp_path):
        target = tmp_path / "matrices.json"
        code, out, _ = capture(
            capsys,
            ["rep", "build", "--rank", "1", "--weight", "2", "--emit", str(target)],
        )
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert data["casimir"] == "4"
        emitted = json.loads(target.read_text())
        assert emitted["dim"] == 3
        # rational strings "p/q" or integers-as-strings
        flat = [x for row in emitted["generators"]["e1"] for x in row]
        assert all(isinstance(x, str) for x in flat)
        assert list(emitted["generators"]) == ["e1", "f1", "h1"]
        assert emitted["generators"]["h1"] == [
            [str(w[0]) if a == b else "0" for b in range(3)]
            for a, w in enumerate(data["weights"])
        ]

    def test_malformed_weight_is_usage_error(self, capsys):
        code, _, err = capture(capsys, ["rep", "build", "--rank", "1", "--weight", "5,"])
        assert code == 64
        assert "usage" in err.lower() or "error" in err.lower()

    def test_non_dominant_weight_is_domain_error(self, capsys):
        code, out, _ = capture(capsys, ["rep", "build", "--rank", "1", "--weight", "-2"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "domain"


class TestInvariantsCommand:
    def test_four_point(self, capsys):
        code, out, _ = capture(
            capsys, ["invariants", "--rank", "1", "--weights", "1,1,1,1"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["ambient_dim"] == 16
        assert data["invariant_dim"] == 2
        assert data["omega_sum_scalar"] == "-3"
        assert data["omega_sum_is_scalar"] is True

    def test_factors_built_once_per_weight(self, capsys, monkeypatch):
        import kzmono.cli as cli

        built = []
        real = cli.irrep
        monkeypatch.setattr(cli, "irrep", lambda alg, w: built.append(w) or real(alg, w))
        code, out, _ = capture(
            capsys, ["invariants", "--rank", "1", "--weights", "1,2,1,2"]
        )
        assert code == 0
        assert sorted(built) == [(1,), (2,)]
        assert json.loads(out)["invariant_dim"] == 2

    def test_level_flag_warns_not_errors(self, capsys):
        code, out, err = capture(
            capsys,
            ["invariants", "--rank", "1", "--weights", "2,2", "--level", "1"],
        )
        assert code == 0
        assert "warning" in err.lower()
        assert json.loads(out)["invariant_dim"] == 1


class TestKzCommands:
    def test_flatness_exact(self, capsys):
        code, out, _ = capture(
            capsys, ["kz", "flatness", "--rank", "1", "--weights", "1,1,1,1", "--exact"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["residual"] == "0"
        assert data["mode"] == "exact"

    def test_flatness_float_tagged(self, capsys):
        code, out, _ = capture(
            capsys, ["kz", "flatness", "--rank", "1", "--weights", "1,1,2"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "float"
        assert isinstance(data["residual"], float)

    def test_monodromy_matrix_shape(self, capsys, tmp_path):
        target = tmp_path / "m.json"
        code, out, _ = capture(
            capsys,
            [
                "kz", "monodromy", "--rank", "1", "--weights", "1,1",
                "--kappa", "3", "--braid", "A12", "--tol", "1e-8",
                "--emit", str(target),
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["steps_taken"] > 0
        assert data["estimated_error"] < 1e-7
        cell = data["matrix"][0][0]
        assert abs(cell[0] + 1.0) < 1e-6 and abs(cell[1]) < 1e-6
        assert json.loads(target.read_text())["matrix"] == data["matrix"]

    def test_complex_kappa_parse(self, capsys):
        code, out, _ = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", "1,1",
             "--kappa", "7/2", "--braid", "A12", "--tol", "1e-6"],
        )
        assert code == 0
        assert json.loads(out)["kappa"] == [3.5, 0.0]

    def test_kappa_zero_rejected(self, capsys):
        code, out, _ = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", "1,1",
             "--kappa", "0", "--braid", "A12"],
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "domain"

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = capture(capsys, ["kz", "flatness", "--bogus", "1"])
        assert code == 64

    @pytest.mark.parametrize("command", [
        ["invariants"],
        ["kz", "flatness"],
        ["kz", "monodromy", "--kappa", "3", "--braid", "A12"],
    ])
    @pytest.mark.parametrize("weights", ["1,0:0", "1,0,1"])
    def test_malformed_weights_are_usage_errors(self, capsys, command, weights):
        # --weights is split by --rank after argument parsing; a bad list
        # must still end as a usage error, not a traceback
        code, out, err = capture(capsys, command + ["--rank", "2", "--weights", weights])
        assert code == 64
        assert "error" in err
        assert out == ""


class TestOtherCommands:
    def test_sugawara_check(self, capsys):
        code, out, _ = capture(
            capsys,
            ["sugawara", "check", "--level", "1", "--weight", "0", "--depth", "3",
             "--pairs", "1,-1;1,2"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["graded_dims"] == [1, 3, 4, 7]
        assert data["central_charge"] == "1"
        assert set(data["bracket_residuals"].values()) == {"0"}
        assert set(data["lx_residuals"].values()) == {"0"}

    def test_symbols_check(self, capsys):
        code, out, _ = capture(
            capsys, ["symbols", "check", "--rank", "1", "--trials", "25", "--seed", "11"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["max_deviation"] == "0"

    def test_verlinde(self, capsys):
        code, out, _ = capture(capsys, ["verlinde", "--level", "1", "--weights", "1,1,1"])
        assert code == 0
        data = json.loads(out)
        assert data["rank"] == 0
        code, out, _ = capture(
            capsys, ["verlinde", "--level", "1", "--weights", "1,1,1,1"]
        )
        data = json.loads(out)
        assert data["rank"] == 1 and data["stabilization_level"] == 2

    def test_verlinde_label_above_level(self, capsys):
        code, out, _ = capture(capsys, ["verlinde", "--level", "1", "--weights", "2,2"])
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "domain"


class TestDeterminism:
    def test_selftest_byte_identical(self):
        cmd = [sys.executable, "-m", "kzmono", "selftest", "--seed", "7"]
        first = subprocess.run(cmd, capture_output=True, timeout=600, env=CHILD_ENV)
        second = subprocess.run(cmd, capture_output=True, timeout=600, env=CHILD_ENV)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        report = json.loads(first.stdout)
        assert report["failed"] == 0
        assert report["passed"] == len(report["checks"])

    def test_symbols_check_deterministic(self, capsys):
        _, out1, _ = capture(
            capsys, ["symbols", "check", "--trials", "10", "--seed", "3"]
        )
        _, out2, _ = capture(
            capsys, ["symbols", "check", "--trials", "10", "--seed", "3"]
        )
        assert out1 == out2


class TestPretty:
    def test_pretty_renders_same_data(self, capsys):
        _, plain, _ = capture(
            capsys, ["algebra", "info", "--series", "A", "--rank", "2"]
        )
        _, pretty, _ = capture(
            capsys, ["--pretty", "algebra", "info", "--series", "A", "--rank", "2"]
        )
        assert pretty != plain
        assert json.loads(pretty) == json.loads(plain)
