import cmath
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import kzmono
from kzmono.cli import _parse_braid, run
from kzmono.kz import braid_monodromy, kz_system
from kzmono.liealg import build_algebra

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

    @pytest.mark.parametrize("argv", [
        ["rep", "build", "--rank", "1", "--weight", "1"],
        ["kz", "monodromy", "--rank", "1", "--weights", "1,1", "--kappa", "3",
         "--braid", "A12"],
    ], ids=["rep", "monodromy"])
    def test_unwritable_emit_is_usage_error(self, capsys, tmp_path, argv):
        # a usage error on stderr, not a traceback
        target = tmp_path / "no-such-dir" / "x.json"
        code, out, err = capture(capsys, [*argv, "--emit", str(target)])
        assert code == 64
        assert "--emit" in err and "No such file or directory" in err
        assert out == ""

    @pytest.mark.parametrize("argv, usage", [
        (["rep", "build", "--rank", "1", "--weight", "1", "--emit", "/nonexistent/x.json"],
         "usage: kzm rep build "),
        (["kz", "monodromy", "--rank", "1", "--weights", "1,1", "--kappa", "3",
          "--braid", "A12", "--emit", "/nonexistent/x.json"], "usage: kzm kz monodromy "),
        (["invariants", "--rank", "2", "--weights", "1,0,1"], "usage: kzm invariants "),
        (["kz", "flatness", "--rank", "2", "--weights", "1,0:0"], "usage: kzm kz flatness "),
    ], ids=["rep-emit", "monodromy-emit", "invariants-weights", "flatness-weights"])
    def test_late_usage_error_names_its_command(self, capsys, argv, usage):
        # a usage error raised after parsing reads as the command's own
        # usage line, not the top-level parser's
        code, out, err = capture(capsys, argv)
        assert code == 64 and out == ""
        assert err.startswith(usage)


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
        import kzmono.kz as kz

        built = []
        real = kz.irrep
        monkeypatch.setattr(kz, "irrep", lambda alg, w: built.append(w) or real(alg, w))
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

    @pytest.mark.parametrize("command", [
        ["invariants"],
        ["kz", "flatness"],
        ["kz", "monodromy", "--kappa", "3", "--braid", "A12"],
    ])
    def test_level_warns_once_per_distinct_weight(self, capsys, command):
        # weights 2 and 3 exceed level 1, each twice; each is one line with
        # no source location in it
        code, out, err = capture(
            capsys, [*command, "--rank", "1", "--weights", "2,3,2,3", "--level", "1"]
        )
        assert code == 0 and json.loads(out)
        assert err.splitlines() == [
            "warning: weight (2,) exceeds the level-1 constraint",
            "warning: weight (3,) exceeds the level-1 constraint",
        ]

    @pytest.mark.parametrize("argv", [
        ["invariants", "--rank", "1", "--weights", "1,1", "--level", "0"],
        ["kz", "flatness", "--rank", "1", "--weights", "1,1", "--level", "-1"],
        ["kz", "monodromy", "--rank", "1", "--weights", "1,1,1,1", "--kappa", "3.5",
         "--braid", "A12", "--level", "0"],
    ], ids=["invariants", "kz-flatness", "kz-monodromy"])
    def test_level_below_one_is_domain_error(self, capsys, argv):
        # as in algebra info, verlinde and sugawara check, not a warning
        code, out, err = capture(capsys, argv)
        assert code == 2 and err == ""
        assert json.loads(out)["error"] == {
            "kind": "domain", "message": f"level must be a positive integer, got {argv[-1]}",
        }


class TestKzCommands:
    def test_flatness_exact(self, capsys):
        code, out, _ = capture(
            capsys, ["kz", "flatness", "--rank", "1", "--weights", "1,1,1,1", "--exact"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["residual"] == "0"
        assert data["mode"] == "exact"

    @pytest.mark.parametrize("rank,weights", [
        ("1", "1,1,2"), ("2", "1,1,1,0,1,1,0,1"),
    ])
    def test_flatness_exact_flag_is_the_default(self, capsys, rank, weights):
        argv = ["kz", "flatness", "--rank", rank, "--weights", weights]
        runs = [capture(capsys, argv), capture(capsys, [*argv, "--exact"])]
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["residual"] == "0"

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

    def test_monodromy_json_matches_library(self, capsys):
        code, out, _ = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", "1,1,2",
             "--kappa", "7/2", "--braid", "A13"],
        )
        assert code == 0
        sys_ = kz_system(build_algebra("A", 1), [(1,), (1,), (2,)], 3.5)
        hol = braid_monodromy(sys_, 0, 2, 1e-8)
        data = json.loads(out)
        assert data["matrix"] == [[[z.real, z.imag] for z in row] for row in hol.matrix.tolist()]
        assert data["steps_taken"] == hol.steps_taken
        # the one invariant of V1 x V1 x V2 turns by exp(6 pi i / 7)
        z = complex(*data["matrix"][0][0])
        assert abs(z - cmath.exp(6j * cmath.pi / 7)) < 1e-10

    @pytest.mark.parametrize("braid, pair", [("A1,10", (0, 9)), ("A23", (1, 2))])
    def test_monodromy_label_parses_back(self, capsys, braid, pair):
        # two-digit indices keep their comma, so the label names one pair
        code, out, _ = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", ",".join(["0"] * 10),
             "--kappa", "7/2", "--braid", braid],
        )
        assert code == 0
        label = json.loads(out)["braid"]
        assert label == braid
        assert _parse_braid(label) == pair

    def test_complex_kappa_parse(self, capsys):
        code, out, _ = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", "1,1",
             "--kappa", "7/2", "--braid", "A12", "--tol", "1e-6"],
        )
        assert code == 0
        assert json.loads(out)["kappa"] == [3.5, 0.0]

    @pytest.mark.parametrize("weights,kappa", [
        # the frame overflows in the last batch of a line
        ("1,1,2", "0.002769917849214314"),
        # the legs come back singular unless the overflow is caught first
        ("1,1,1,1", "0.0063545325856650715"),
        # both transports are finite, but M = T(gamma)^-1 T(circle) T(gamma)
        # overflows
        ("1,1,1,1", "0.006943059368781771"),
    ])
    def test_small_kappa_overflow_is_singularity(self, capsys, weights, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = capture(capsys, ["kz", "monodromy", "--rank", "1", "--weights",
                                              weights, "--kappa", kappa, "--braid", "A12"])
        assert code == 2 and err == ""
        assert json.loads(out)["error"]["kind"] == "singularity"

    def test_kappa_zero_rejected(self, capsys):
        code, out, _ = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", "1,1",
             "--kappa", "0", "--braid", "A12"],
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "domain"

    @pytest.mark.parametrize("kappa", ["1/0", "0/0", "1+1/0i", "1" + "0" * 400 + "/3", "1" + "0" * 400],
                             ids=["1/0", "0/0", "imaginary-1/0", "rational-beyond-float", "beyond-float"])
    def test_kappa_out_of_range_is_usage_error(self, capsys, kappa):
        code, out, err = capture(
            capsys,
            ["kz", "monodromy", "--rank", "1", "--weights", "1,1",
             "--kappa", kappa, "--braid", "A12"],
        )
        assert code == 64
        assert "--kappa" in err and "out of range" in err
        assert out == ""

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

    def test_sugawara_check_depth_zero(self, capsys):
        # only the zero modes act inside a depth-0 truncation
        code, out, _ = capture(
            capsys, ["sugawara", "check", "--level", "1", "--weight", "0", "--depth", "0"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["graded_dims"] == [1]
        assert data["bracket_residuals"] == {"0,0": "0"}
        assert data["lx_residuals"] == {f"0,{g},0": "0" for g in "efh"}
        assert data["affine_residuals"] == {}

    def test_symbols_check(self, capsys):
        code, out, _ = capture(
            capsys, ["symbols", "check", "--rank", "1", "--trials", "25", "--seed", "11"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert data["max_deviation"] == "0"

    def test_negative_trials_is_usage_error(self, capsys):
        code, out, err = capture(capsys, ["symbols", "check", "--trials", "-3"])
        assert code == 64
        assert "--trials" in err
        assert out == ""

    def test_zero_trials_is_usage_error(self, capsys):
        # no trials would print "passed": true having checked nothing
        code, out, err = capture(capsys, ["symbols", "check", "--trials", "0"])
        assert code == 64
        assert "--trials" in err and "positive" in err
        assert out == ""

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

    def test_negative_scan_levels_is_usage_error(self, capsys):
        # compare_invariants scans at least to sum(weights) + 2, so a negative
        # bound would be accepted and ignored
        argv = ["verlinde", "--level", "1", "--weights", "1,1,1,1"]
        code, out, err = capture(capsys, [*argv, "--scan-levels", "-3"])
        assert code == 64
        assert "--scan-levels" in err and "non-negative" in err
        assert out == ""
        _, default, _ = capture(capsys, argv)
        for levels in ("0", "8"):
            code, out, _ = capture(capsys, [*argv, "--scan-levels", levels])
            assert code == 0 and out == default

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
        assert hashlib.sha256(first.stdout).hexdigest() == (
            "c0c74343d3b0cbafb76b7d3b5acc1cc45d650465510d1452464bfcbd3628ab0f"
        )

    def test_symbols_check_deterministic(self, capsys):
        _, out1, _ = capture(
            capsys, ["symbols", "check", "--trials", "10", "--seed", "3"]
        )
        _, out2, _ = capture(
            capsys, ["symbols", "check", "--trials", "10", "--seed", "3"]
        )
        assert out1 == out2


class TestSymbolsCheck:
    def test_rank_one_output_pinned(self, capsys):
        _, out, _ = capture(
            capsys, ["symbols", "check", "--rank", "1", "--trials", "100", "--seed", "7"]
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "27b936677e346bee500c36acb1a8487c6cd56a4c83e9fb83196ad993e66e9d08"
        )

    @pytest.mark.parametrize("rank", [2, 3])
    def test_higher_rank_is_exact(self, capsys, rank):
        code, out, _ = capture(
            capsys, ["symbols", "check", "--rank", str(rank), "--trials", "30", "--seed", "7"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "exact"
        assert data["max_deviation"] == "0"
        assert data["passed"] is True
        assert "max_deviation_float" not in data

    @pytest.mark.parametrize("rank", ["1", "2"])
    def test_cocycle_fault_fails_the_check(self, capsys, monkeypatch, rank):
        import kzmono.cli

        true_cocycle = kzmono.cli.cocycle_evaluation
        monkeypatch.setattr(kzmono.cli, "cocycle_evaluation",
                            lambda phi, n: true_cocycle(phi, n) + 1)
        _, out, _ = capture(
            capsys, ["symbols", "check", "--rank", rank, "--trials", "10", "--seed", "7"]
        )
        data = json.loads(out)
        assert data["passed"] is False
        assert data["max_deviation"] != "0"


class TestPinnedOutput:
    """Exact outputs pinned byte for byte; a change of internal matrix format
    must leave them as they are."""

    def test_exact_flatness(self, capsys):
        _, out, _ = capture(
            capsys, ["kz", "flatness", "--rank", "1", "--weights", "1,1,1,1,1,1", "--exact"]
        )
        assert out == '{"mode": "exact", "n": 6, "invariant_dim": 5, "residual": "0"}\n'

    def test_invariants(self, capsys):
        _, out, _ = capture(capsys, ["invariants", "--rank", "2", "--weights", "1,1,1,1,1,1"])
        assert out == (
            '{"rank": 2, "weights": [[1, 1], [1, 1], [1, 1]], "ambient_dim": 512, '
            '"invariant_dim": 2, "omega_sum_scalar": "-9", "omega_sum_is_scalar": true}\n'
        )

    def test_sugawara_check(self, capsys):
        _, out, _ = capture(
            capsys, ["sugawara", "check", "--level", "2", "--weight", "1", "--depth", "4"]
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7dc54c434c411e6c276f7f6df7eda52ae955f2185582e54009b06278450b26aa"
        )

    def test_sugawara_check_level_2_depth_5(self, capsys):
        # the largest truncation the benchmark grows: its degree 5 is
        # selected from 129 raising columns
        _, out, _ = capture(
            capsys, ["sugawara", "check", "--level", "2", "--weight", "2", "--depth", "5"]
        )
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6f0c203b03e6c0cc94fd857382ee058c32d5dec8e415a6de9699271765bfaa1c"
        )

    def test_emitted_matrices(self, capsys, tmp_path):
        target = tmp_path / "matrices.json"
        code, _, _ = capture(
            capsys, ["rep", "build", "--rank", "2", "--weight", "2,1", "--emit", str(target)]
        )
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "54e06cf0b6fd458b1aeea260b06f6b008e8a59307554b7e868c6e651d8b20ff9"
        )


class TestStartup:
    # a fresh interpreter runs argv through cli.run, then reports on stderr
    # whether numpy was loaded (numpy._core is numpy.core before numpy 2.0),
    # or which kzmono modules were
    NUMPY_LOADED = "not {'numpy._core', 'numpy.core'}.isdisjoint(sys.modules)"
    KZMONO_LOADED = "','.join(sorted(m for m in sys.modules if m.split('.')[0] == 'kzmono'))"
    RUN = (
        "import sys\n"
        "from kzmono.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print({}, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    PROBE = RUN.format(NUMPY_LOADED)

    def probe(self, code, argv=()):
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, timeout=300, env=CHILD_ENV)
        return proc.returncode, proc.stderr.split()[-1]

    def test_import_and_build_algebra_skip_numpy(self):
        code = (
            "import sys, kzmono\n"
            "kzmono.build_algebra('A', 1)\n"
            "kzmono.build_algebra('A', 2)\n"
            f"print({self.NUMPY_LOADED}, file=sys.stderr)\n"
        )
        assert self.probe(code) == (0, "False")

    @pytest.mark.parametrize("code, modules", [
        ("import kzmono", []),
        ("import kzmono; kzmono.build_algebra('A', 2)", ["liealg", "numerics"]),
        ("import kzmono; kzmono.kz", ["invariants", "kz", "liealg", "numerics", "reps"]),
    ], ids=["import", "build_algebra", "submodule"])
    def test_names_load_their_home_modules(self, code, modules):
        # a fresh interpreter, since this one has loaded every module
        code += ("\nimport sys\nprint(','.join(sorted(m for m in sys.modules"
                 " if m.split('.')[0] == 'kzmono')), file=sys.stderr)\n")
        expected = ["kzmono", "kzmono.errors", *(f"kzmono.{m}" for m in modules)]
        assert self.probe(code) == (0, ",".join(expected))

    def test_public_names_are_their_home_objects(self):
        for name in kzmono.__all__:
            obj = getattr(kzmono, name)
            assert obj.__module__.startswith("kzmono.")
            assert getattr(sys.modules[obj.__module__], name) is obj
        assert set(kzmono.__all__) <= set(dir(kzmono))
        assert kzmono.exact_local_spectrum is kzmono.kz.exact_local_spectrum
        namespace = {}
        exec("from kzmono import *", namespace)
        assert all(namespace[name] is getattr(kzmono, name) for name in kzmono.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            kzmono.no_such_name

    @pytest.mark.parametrize("argv", [
        ["algebra", "info", "--rank", "2"],
        ["verlinde", "--level", "4", "--weights", "1,1,2,2,3,3", "--scan-levels", "8"],
        ["symbols", "check", "--rank", "1", "--trials", "10", "--seed", "7"],
        ["symbols", "check", "--rank", "2", "--trials", "10", "--seed", "7"],
        ["symbols", "check", "--rank", "3", "--trials", "10", "--seed", "7"],
    ], ids=["algebra", "verlinde", "symbols-1", "symbols-2", "symbols-3"])
    def test_commands_without_numpy(self, argv):
        assert self.probe(self.PROBE, argv) == (0, "False")

    def test_monodromy_loads_numpy(self):
        argv = ["kz", "monodromy", "--rank", "1", "--weights", "1,1,2",
                "--kappa", "7/2", "--braid", "A13"]
        assert self.probe(self.PROBE, argv) == (0, "True")

    @pytest.mark.parametrize("argv, modules", [
        (["algebra", "info", "--rank", "2"], ["liealg", "numerics"]),
        (["verlinde", "--level", "4", "--weights", "1,1,2,2,3,3", "--scan-levels", "8"],
         ["verlinde"]),
        (["symbols", "check", "--rank", "1", "--trials", "10", "--seed", "7"],
         ["liealg", "numerics", "symbols"]),
        (["symbols", "check", "--rank", "2", "--trials", "10", "--seed", "7"],
         ["liealg", "numerics", "symbols"]),
        (["kz", "monodromy", "--rank", "1", "--weights", "1,1,2", "--kappa", "7/2",
          "--braid", "A13"], ["invariants", "kz", "liealg", "numerics", "reps"]),
    ], ids=["algebra", "verlinde", "symbols-1", "symbols-2", "monodromy"])
    def test_commands_load_only_their_modules(self, argv, modules):
        expected = ["kzmono", "kzmono.cli", "kzmono.errors", *(f"kzmono.{m}" for m in modules)]
        assert self.probe(self.RUN.format(self.KZMONO_LOADED), argv) == (0, ",".join(expected))

    @pytest.mark.parametrize("argv", [
        ["algebra", "info", "--rank", "2", "--level", "2"],
        ["rep", "build", "--rank", "2", "--weight", "1,1", "--emit"],
        ["invariants", "--rank", "1", "--weights", "1,1,2,2"],
        ["kz", "flatness", "--rank", "1", "--weights", "1,1,1,1", "--exact"],
        ["kz", "monodromy", "--rank", "1", "--weights", "1,1,2", "--kappa", "7/2",
         "--braid", "A13"],
        ["sugawara", "check", "--level", "1", "--weight", "1", "--depth", "2"],
        ["symbols", "check", "--rank", "2", "--trials", "10", "--seed", "7"],
        ["verlinde", "--level", "4", "--weights", "1,1,2,2,3,3", "--scan-levels", "8"],
        ["selftest", "--seed", "7"],
    ], ids=["algebra", "rep", "invariants", "flatness", "monodromy", "sugawara",
            "symbols", "verlinde", "selftest"])
    def test_fresh_process_matches_in_process(self, capsys, tmp_path, argv):
        # In this process every module is loaded already; a name that a
        # command forgets to load would fail only in a fresh one.
        target = tmp_path / "matrices.json"
        if argv[-1] == "--emit":
            argv = [*argv, str(target)]
        fresh = subprocess.run([sys.executable, "-m", "kzmono", *argv],
                               capture_output=True, timeout=300, env=CHILD_ENV)
        emitted = target.read_bytes() if target.exists() else None
        code, out, _ = capture(capsys, argv)
        assert code == 0
        assert (fresh.returncode, fresh.stdout.decode()) == (code, out)
        if emitted is not None:
            assert target.read_bytes() == emitted


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
