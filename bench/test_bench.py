"""Self-checks of the benchmark: reduced-size runs of every workload, the
metric names against BENCHMARK.json, the failure accounting, and the traced
run's bookkeeping.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kzmono import kz, liealg  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_run(workload, trace, tmp_dir, seed=3):
    return run.run_workload(workload, seed, 0.01, trace, size="small",
                            setup_samples=1, trace_dir=tmp_dir)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("trace")
    return {
        (w, trace): small_run(w, trace, tmp_dir)
        for w in workloads.WORKLOADS
        for trace in (False, True)
    }


def test_workload_names_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_run_completes_with_declared_metrics(results, workload, trace):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_metrics_are_nonzero(results, workload):
    for name, m in results[(workload, False)]["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_traced_wall(results, workload):
    m = {k: v["value"] for k, v in results[(workload, True)]["metrics"].items()}
    total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) + m["trace.other_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert m["trace.other_s"] >= 0


def test_traced_counts_repeat(results, tmp_path):
    again = small_run("monodromy", True, tmp_path)
    first = results[("monodromy", True)]["metrics"]
    counted = list(spans.CALLS) + list(spans.COUNTS)
    assert {k: again["metrics"][k] for k in counted} == {k: first[k] for k in counted}
    assert first["kz.steps"]["value"] > 0


def test_perturbed_omega_counts_as_failure(monkeypatch, tmp_path):
    original = kz.kz_system

    def perturbed(*args, **kwargs):
        sys_ = original(*args, **kwargs)
        sys_.omegas[(0, 1)][0][0] += 1
        return sys_

    monkeypatch.setattr(kz, "kz_system", perturbed)
    result = small_run("kz_exact", False, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"]["pass_frac"]["value"] < 1


def test_library_error_is_a_failed_check():
    checks = workloads.Checks()

    def raises(state, checks):
        kz.kz_system(liealg.build_algebra("A", 1), [(1,), (1,)], 0)

    workloads.run_job("zero-kappa", raises, {}, checks)
    assert checks.attempted == 1 and len(checks.failures) == 1


def test_inputs_follow_the_seed():
    algs = workloads.algebras()
    src = str(ROOT / "src")
    for workload in ("kz_exact", "monodromy", "cli"):
        a = workloads.make_jobs(workload, 5, "full", algs, src, False)[2]
        b = workloads.make_jobs(workload, 5, "full", algs, src, False)[2]
        c = workloads.make_jobs(workload, 6, "full", algs, src, False)[2]
        assert a == b and a != c


def test_jitter_keeps_obstacles_and_kappa_range():
    algs = workloads.algebras()
    for seed in range(40):
        info = workloads.make_jobs("monodromy", seed, "full", algs, "", False)[2]
        for label, entry in info.items():
            kappa = complex(entry["kappa"])
            assert 3 <= abs(kappa) <= 5 and (kappa.imag or kappa.real % 1)
            for k, z in enumerate(entry["basepoint"]):
                assert abs(z - (k + 1)) < 0.05


def test_full_twist_order_discriminates():
    """The oracle's product order holds to 1e-6; the reversed order misses by
    far more, so the check pins the detour convention."""
    alg = liealg.build_algebra("A", 1)
    sys_ = kz.kz_system(alg, [(1,)] * 4, 3.5)
    order = workloads.twist_order(4)
    mats = {p: kz.braid_monodromy(sys_, *p, 1e-8).matrix for p in order}
    scalar = np.exp(-1j * np.pi * 6 / 3.5)  # sum of the four Casimirs 3/2
    forward = np.linalg.multi_dot([mats[p] for p in order])
    backward = np.linalg.multi_dot([mats[p] for p in reversed(order)])
    assert np.max(np.abs(forward - scalar * np.eye(2))) < workloads.TWIST_TOL
    assert np.max(np.abs(backward - scalar * np.eye(2))) > 1e-3


def test_sl2_rank_oracle():
    assert workloads.sl2_rank([1, 1, 1, 1]) == 2
    assert workloads.sl2_rank([1, 1, 1, 1], level=1) == 1
    assert workloads.sl2_rank([1, 1, 2]) == 1
