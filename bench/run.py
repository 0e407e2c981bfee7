"""kzmono benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload kz_exact --seed 1 --seconds 30 --trace 0

Run it from the repository root; kzmono is imported from ``src/``. Workloads
are closed loop with one client: the job list runs back to back in this
process (``cli`` starts one ``python -m kzmono`` per command), as many whole
passes as fit in ``--seconds``. Every job checks its result against an exact
or global oracle.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s``, the mean time of one pass over the job list; ``setup_s``, the
median time of importing kzmono and building the A1 and A2 algebras in a
fresh interpreter, timed once before each pass; ``peak_rss_mb``, the peak
resident set (children included for ``cli``); ``pass_frac``, the share of
checks that passed; and the ``*_digits`` metrics, -log10 of the worst
deviation from the eigenvalue, full-twist and contractible-loop oracles.
Workloads that do no transport take the digits from a small monodromy probe
run after the timed passes.

``wall_s`` is given at a reference core speed. On a shared 2-vCPU virtual
machine, other tenants slowed a core by up to 2x, in episodes from seconds to
minutes, and a whole run could fall into one. So a fixed exact-arithmetic
calibration kernel, which runs none of kzmono's code, is timed between every
two jobs, and each job's time is multiplied by CAL_REFERENCE_S over the mean
of the calibrations on either side of it. On an uncontended core of that
machine the factor is about 1. The raw pass times go to stderr next to the
rescaled ones. ``setup_s`` is not rescaled: it runs in another process and
is mostly module loading, which the kernel does not track.

With ``--trace 1`` untraced and traced passes alternate and the line carries
the per-layer metrics of the traced pass with the median wall time; all
spans are written to ``.bench_trace/``. The traced ``cli`` passes run the
commands in-process through ``kzmono.cli.run`` with ``KZM_THREADS=1``, so
spans nest in one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import kzmono\n"
    "kzmono.build_algebra('A', 1)\n"
    "kzmono.build_algebra('A', 2)\n"
    "print(repr(time.perf_counter() - t0))\n"
)
CAL_MATRIX = [[Fraction(7 * i + 3 * j - 11, 1 + (i + 2 * j) % 5) for j in range(8)]
              for i in range(8)]
CAL_REPS = 6
# fastest calibrate() on an uncontended core of a 2-vCPU x86-64 virtual
# machine under CPython 3.11.7
CAL_REFERENCE_S = 0.0091
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio",
         "eig_digits": "digits", "twist_digits": "digits", "loop_digits": "digits"}


def digits(dev):
    """-log10 of a deviation; a zero deviation counts as float64 epsilon."""
    if not dev >= 0:  # NaN: no digits
        return 0.0
    return -math.log10(max(dev, 2.0 ** -52))


def calibrate():
    """Time a fixed exact 8x8 matrix product: the Fraction arithmetic that
    kzmono's exact kernels run, but none of kzmono's code."""
    a = CAL_MATRIX
    zero = Fraction(0)
    start = time.perf_counter()
    for _ in range(CAL_REPS):
        [[sum((a[i][k] * a[k][j] for k in range(8)), zero) for j in range(8)] for i in range(8)]
    return time.perf_counter() - start


def at_reference(seconds, cal_before, cal_after):
    """A time taken between two calibrations, rescaled to the reference speed."""
    return seconds * CAL_REFERENCE_S / ((cal_before + cal_after) / 2)


def setup_time():
    """Import kzmono and build both algebras in a fresh interpreter."""
    from workloads import python_env

    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True,
                          text=True, env=python_env(str(SRC)), timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def one_pass(jobs, checks, tracer=None):
    """Run the job list once, with a calibration after every job; returns
    the wall time of the jobs and that time at the reference speed."""
    from workloads import run_job

    gc.collect()
    state = {}
    wall = reference = 0.0
    cal = calibrate()
    for name, fn in jobs:
        if tracer is not None:
            tracer.job = name
        start = time.perf_counter()
        run_job(name, fn, state, checks)
        seconds = time.perf_counter() - start
        after = calibrate()
        wall += seconds
        reference += at_reference(seconds, cal, after)
        cal = after
    return wall, reference


def measure(jobs, seconds, setup_samples):
    """Whole passes until the next one would end after ``seconds``.

    One set-up timing precedes each pass, and more follow the last pass up
    to ``setup_samples``, so the set-up samples spread over the whole run.
    """
    from workloads import Checks

    checks = Checks()
    passes, setup = [], []
    start = time.perf_counter()
    while True:
        setup.append(setup_time())
        passes.append(one_pass(jobs, checks))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    while len(setup) < setup_samples:
        setup.append(setup_time())
    return passes, setup, checks


def run_untraced(workload, jobs, probe, seconds, setup_samples):
    from workloads import Checks

    passes, setup, checks = measure(jobs, seconds, setup_samples)
    digit_source = checks
    if probe:
        digit_source = Checks()
        one_pass(probe, digit_source)
        checks.merge(digit_source)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(f"passes (wall, at reference): {json.dumps(passes)}", file=sys.stderr)
    print(f"setup: {json.dumps(setup)}", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.mean(ref for _, ref in passes),
        "peak_rss_mb": rss_kb / 1024.0,
        "pass_frac": 1.0 - len(checks.failures) / checks.attempted,
        "eig_digits": digits(digit_source.worst.get("eig", math.nan)),
        "twist_digits": digits(digit_source.worst.get("twist", math.nan)),
        "loop_digits": digits(digit_source.worst.get("loop", math.nan)),
    }
    return checks, {m: (v, UNITS[m]) for m, v in metrics.items()}


def run_traced(workload, seed, jobs, seconds, trace_dir):
    from spans import TWIST_SYSTEMS, Tracer, per_layer_names, unit_of
    from workloads import Checks

    checks = Checks()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(one_pass(jobs, checks)[0])
        tracer = Tracer()
        pass_checks = Checks()
        tracer.install()
        try:
            wall = one_pass(jobs, pass_checks, tracer)[0]
        finally:
            tracer.uninstall()
        checks.merge(pass_checks)
        traced.append((wall, tracer, pass_checks))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(traced) > seconds:
            break
    ranked = sorted(traced, key=lambda item: item[0])
    wall, tracer, pass_checks = ranked[(len(ranked) - 1) // 2]
    twist = {label: digits(pass_checks.worst[f"twist.{label}"])
             for label in TWIST_SYSTEMS if f"twist.{label}" in pass_checks.worst}
    values = tracer.metrics(wall, pass_checks.err_ratios, twist)
    values["trace.overhead_frac"] = (
        statistics.median(w for w, _, _ in traced) / statistics.median(plain) - 1.0
    )
    trace_dir.mkdir(exist_ok=True)
    with open(trace_dir / f"{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "fields": ["name", "start", "end", "parent", "job"],
            "passes": [{"wall": w, "spans": t.spans} for w, t, _ in traced],
        }, fh)
    return checks, {m: (values[m], unit_of(m)) for m in per_layer_names()}


def run_workload(workload, seed, seconds, trace, size="full",
                 setup_samples=SETUP_SAMPLES, trace_dir=TRACE_DIR):
    """Run one workload; returns the result object the benchmark prints.

    ``size="small"``, fewer setup samples and another trace directory are
    for the benchmark's own tests.
    """
    from workloads import algebras, make_jobs

    jobs, probe, info = make_jobs(workload, seed, size, algebras(), str(SRC), trace)
    print(f"workload {workload} seed {seed}: {info}", file=sys.stderr)
    if trace:
        saved = os.environ.get("KZM_THREADS")
        os.environ["KZM_THREADS"] = "1"
        try:
            checks, metrics = run_traced(workload, seed, jobs, seconds, Path(trace_dir))
        finally:
            if saved is None:
                del os.environ["KZM_THREADS"]
            else:
                os.environ["KZM_THREADS"] = saved
    else:
        checks, metrics = run_untraced(workload, jobs, probe, seconds, setup_samples)
    for failure in checks.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("kz_exact", "monodromy", "affine", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kzmono" / "__init__.py").is_file():
        print(f"error: no kzmono sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
