"""The four benchmark workloads: inputs drawn from a seed, the job list each
one runs, and the exact or global oracle every job checks its result against.

Jobs reach kzmono only through its public functions, looked up on the module
at call time (``kz.kz_system``, not a name bound at import), so a traced run
can wrap them in spans without touching the library. A job records each check
in a ``Checks`` object; a ``KzmonoError`` raised inside a job counts as one
failed check and the run goes on with the next job.
"""

from __future__ import annotations

import cmath
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np

from kzmono import cli, kz, liealg, reps, sugawara
from kzmono.errors import KzmonoError

# pinned tolerances of the acceptance suite (criteria 3 and 2)
EIG_TOL = 1e-6
LOOP_TOL = 1e-7
# the full twist is a product of generator monodromies, held to the same bar
TWIST_TOL = 1e-6
# non-integer kappa values with 3 <= |kappa| <= 5
REAL_KAPPAS = (3.25, 3.5, 3.75, 4.25, 4.5, 4.75)
COMPLEX_KAPPAS = (3 + 0.5j, 3.5 + 0.5j, 4 + 0.5j, 3.5 - 0.5j, 4.5 + 0.25j, 3.25 + 0.75j)
# bound on the real and on the imaginary part, so |jitter| < 0.05
JITTER = 0.035
# the acceptance suite's contractible rectangle, as offsets of the last point
RECTANGLE = (0.0, 0.4, 0.4 + 0.3j, 0.3j, 0.0)


class Checks:
    """Checks attempted and failed, plus the worst float deviation per kind."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.worst = {}
        self.err_ratios = []

    def expect(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(label)
        return ok

    def record(self, kind, dev):
        if not dev <= self.worst.get(kind, 0.0):
            self.worst[kind] = dev

    def deviation(self, kind, label, dev, tol):
        dev = float(dev)
        self.record(kind, dev)
        return self.expect(f"{label}: {kind} deviation {dev:.3e}", dev < tol)

    def merge(self, other):
        self.attempted += other.attempted
        self.failures.extend(other.failures)
        for kind, dev in other.worst.items():
            self.record(kind, dev)
        self.err_ratios.extend(other.err_ratios)


def run_job(name, fn, state, checks):
    """Run one job; a library error is a failed check, not an abort."""
    try:
        fn(state, checks)
    except KzmonoError as exc:
        checks.expect(f"{name}: {type(exc).__name__}: {exc}", False)


def algebras():
    return {1: liealg.build_algebra("A", 1), 2: liealg.build_algebra("A", 2)}


# ---------------------------------------------------------------------------
# kz_exact: invariants, exact flatness and exact local spectra
# ---------------------------------------------------------------------------

KZ_EXACT = {
    # label: (rank, weights, invariant dimension)
    "full": [
        ("a1_v1x8", 1, [(1,)] * 8, 14),
        ("a1_v2x6", 1, [(2,)] * 6, 15),
        ("a2_3x3", 2, [(1, 0)] * 3 + [(0, 1)] * 3, 6),
        ("a2_adj4", 2, [(1, 1)] * 4, 8),
    ],
    "small": [
        ("a1_v1x4", 1, [(1,)] * 4, 2),
        ("a2_3x2", 2, [(1, 0), (0, 1), (1, 0), (0, 1)], 2),
    ],
}


def check_kz_exact(sys_, label, dim, checks):
    """Certify one system against exact oracles.

    Flatness must be exactly zero; each local spectrum must account for the
    whole space and for the exact trace of W_ij; and the W_ij must sum to the
    scalar -(1/2) sum_i c_i on invariants, which is the Casimir of the total
    (trivial) representation.
    """
    checks.expect(f"{label}: invariant dimension {sys_.dim} != {dim}", sys_.dim == dim)
    res = kz.flatness_residual(sys_, exact=True)
    checks.expect(
        f"{label}: exact flatness residual {res!r}",
        isinstance(res, Fraction) and res == 0,
    )
    d = sys_.dim
    for i, j in itertools.combinations(range(sys_.n), 2):
        spec = kz.exact_local_spectrum(sys_, i, j)
        om = sys_.omega(i, j)
        trace = sum(om[k][k] for k in range(d))
        checks.expect(
            f"{label}: spectrum of W_{i + 1}{j + 1} disagrees with its trace",
            sum(m for _, m in spec) == d and sum(mu * m for mu, m in spec) == trace,
        )
    scalar = -sum(reps.casimir_value(sys_.algebra, w) for w in sys_.weights) / 2
    total = [[Fraction(0)] * d for _ in range(d)]
    for om in sys_.omegas.values():
        for r in range(d):
            row, out = om[r], total[r]
            for c in range(d):
                out[c] += row[c]
    checks.expect(
        f"{label}: sum of W_ij is not {scalar}",
        all(total[r][c] == (scalar if r == c else 0) for r in range(d) for c in range(d)),
    )


def kz_exact_jobs(rng, size, algs):
    jobs, info = [], {}
    for label, rank, weights, dim in KZ_EXACT[size]:
        weights = list(weights)
        rng.shuffle(weights)
        kappa = rng.choice(REAL_KAPPAS)
        info[label] = {"order": weights, "kappa": kappa}

        def job(state, checks, label=label, alg=algs[rank], weights=weights,
                kappa=kappa, dim=dim):
            check_kz_exact(kz.kz_system(alg, weights, kappa), label, dim, checks)

        jobs.append((label, job))
    return jobs, info


# ---------------------------------------------------------------------------
# monodromy: braid generators, full twist and a contractible loop
# ---------------------------------------------------------------------------

def jittered_basepoint(rng, n):
    return tuple(
        z + complex(rng.uniform(-JITTER, JITTER), rng.uniform(-JITTER, JITTER))
        for z in kz.default_basepoint(n)
    )


def _arc_count(basepoint, i, j):
    path = kz.braid_generator_path(basepoint, i, j)
    return sum(isinstance(s, kz.ArcSegment) for s in path.segments)


def twist_order(n):
    """Pairs in the order of M12.M13.M23.M14.M24.M34...: every M_ij with
    j = 2, 3, ... in turn, i ascending."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def expected_eigenvalues(spec, kappa):
    out = []
    for mu, mult in spec:
        out.extend([cmath.exp(2j * math.pi * complex(mu) / kappa)] * mult)
    return out


def eigen_deviation(matrix, expected):
    """Largest distance in a greedy nearest matching of eigenvalues."""
    remaining = list(expected)
    worst = 0.0
    for g in np.linalg.eigvals(matrix):
        k = min(range(len(remaining)), key=lambda t: abs(remaining[t] - g))
        worst = max(worst, abs(remaining.pop(k) - g))
    return worst


def monodromy_spec(rng, label, rank, weights, kappas, tol, pairs, twist):
    n = len(weights)
    basepoint = jittered_basepoint(rng, n)
    plain = kz.default_basepoint(n)
    for i, j in pairs:
        # the jitter must leave every detour obstacle where it was
        if _arc_count(basepoint, i, j) != _arc_count(plain, i, j):
            raise RuntimeError(f"{label}: jitter moved a detour obstacle of A{i + 1}{j + 1}")
    return {
        "label": label,
        "rank": rank,
        "weights": weights,
        "kappa": rng.choice(kappas),
        "tol": tol,
        "pairs": pairs,
        "twist": twist,
        "basepoint": basepoint,
    }


def monodromy_jobs_for(specs, loop_of, loop_tol, algs):
    """Jobs for a list of systems, then the rectangle loop on ``loop_of``."""
    jobs = []
    for spec in specs:
        label = spec["label"]

        def build(state, checks, spec=spec, label=label):
            sys_ = kz.kz_system(algs[spec["rank"]], spec["weights"], spec["kappa"])
            spectra = {p: kz.exact_local_spectrum(sys_, *p) for p in spec["pairs"]}
            state[label] = {"sys": sys_, "spectra": spectra, "hol": {}}

        jobs.append((f"{label}.system", build))
        for i, j in spec["pairs"]:

            def generator(state, checks, spec=spec, label=label, i=i, j=j):
                name = f"{label}.M{i + 1}{j + 1}"
                if not checks.expect(f"{name}: no system", label in state):
                    return
                entry = state[label]
                hol = kz.braid_monodromy(
                    entry["sys"], i, j, spec["tol"], basepoint=spec["basepoint"]
                )
                entry["hol"][(i, j)] = hol.matrix
                expected = expected_eigenvalues(entry["spectra"][(i, j)], spec["kappa"])
                dev = eigen_deviation(hol.matrix, expected)
                checks.deviation("eig", name, dev, EIG_TOL)
                if dev > 0:
                    checks.err_ratios.append(hol.estimated_error / dev)

            jobs.append((f"{label}.M{i + 1}{j + 1}", generator))
        if spec["twist"]:

            def twist(state, checks, spec=spec, label=label):
                # M12.M13.M23.M14... with the rightmost factor applied first
                entry = state.get(label, {"hol": {}})
                order = twist_order(len(spec["weights"]))
                if not checks.expect(
                    f"{label}.twist: missing generators",
                    all(p in entry["hol"] for p in order),
                ):
                    return
                prod = np.eye(entry["sys"].dim, dtype=complex)
                for p in order:
                    prod = prod @ entry["hol"][p]
                alg = algs[spec["rank"]]
                total = sum(reps.casimir_value(alg, w) for w in spec["weights"])
                scalar = cmath.exp(-1j * math.pi * float(total) / spec["kappa"])
                dev = float(np.max(np.abs(prod - scalar * np.eye(len(prod)))))
                checks.deviation("twist", f"{label}.twist", dev, TWIST_TOL)
                checks.record(f"twist.{label}", dev)

            jobs.append((f"{label}.twist", twist))

    def loop(state, checks, spec=loop_of):
        label = spec["label"]
        if not checks.expect(f"{label}.loop: no system", label in state):
            return
        sys_ = state[label]["sys"]
        base = list(spec["basepoint"])
        points = []
        for dz in RECTANGLE:
            q = list(base)
            q[-1] = base[-1] + dz
            points.append(tuple(q))
        hol = kz.parallel_transport(sys_, kz.path_through(points), loop_tol)
        dev = float(np.max(np.abs(hol.matrix - np.eye(sys_.dim))))
        checks.deviation("loop", f"{label}.loop", dev, LOOP_TOL)

    jobs.append((f"{loop_of['label']}.loop", loop))
    return jobs


def monodromy_jobs(rng, size, algs):
    if size == "small":
        return probe_jobs(rng, size, algs), {}
    a1 = monodromy_spec(rng, "a1_v1x4", 1, [(1,)] * 4, REAL_KAPPAS, 1e-10,
                        list(itertools.combinations(range(4), 2)), True)
    specs = [
        a1,
        monodromy_spec(rng, "a2_3pt", 2, [(1, 0), (0, 1), (1, 1)], COMPLEX_KAPPAS,
                       1e-10, list(itertools.combinations(range(3), 2)), True),
        monodromy_spec(rng, "a1_v1x6", 1, [(1,)] * 6, REAL_KAPPAS, 1e-8,
                       [(0, 5), (1, 4)], False),
    ]
    info = {s["label"]: {"kappa": s["kappa"], "basepoint": s["basepoint"]} for s in specs}
    return monodromy_jobs_for(specs, a1, 1e-8, algs), info


def probe_jobs(rng, size, algs):
    """A small monodromy certificate for the workloads that do no transport:
    every generator and the full twist of V1 (x) V1 (x) V2, and the rectangle
    loop on V1^(x)4. It runs once after the timed passes, so the accuracy
    metrics exist on every workload."""
    tol = 1e-10 if size == "full" else 1e-8
    three = monodromy_spec(rng, "probe_v112", 1, [(1,), (1,), (2,)], REAL_KAPPAS,
                           tol, list(itertools.combinations(range(3), 2)), True)
    four = monodromy_spec(rng, "probe_v1x4", 1, [(1,)] * 4, REAL_KAPPAS, tol, [], False)
    return monodromy_jobs_for([three, four], four, 1e-8, algs)


# ---------------------------------------------------------------------------
# affine: level truncations and the sugawara identity set
# ---------------------------------------------------------------------------

AFFINE = {
    # (level, weight, depth): graded dimensions, the sl2-hat character values
    "full": {(1, 1, 5): [2, 2, 6, 8, 14, 20], (2, 2, 5): [3, 4, 12, 21, 43, 69]},
    "small": {(1, 1, 3): [2, 2, 6, 8], (2, 2, 3): [3, 4, 12, 21]},
}


def affine_jobs(rng, size, algs):
    jobs = []
    for (level, m, depth), dims in AFFINE[size].items():
        label = f"l{level}m{m}d{depth}"
        vir = [
            (p, q)
            for p in range(-2, 3)
            for q in range(-2, 3)
            if max(abs(p), abs(q), abs(p + q)) <= depth
        ]
        lx = [(n, g, k) for n in (-1, 0, 1) for g in "efh" for k in (-1, 0, 1)]
        aff = [(x, y) for x in "efh" for y in "efh"]
        for items in (vir, lx, aff):
            rng.shuffle(items)

        def module(state, checks, level=level, m=m, depth=depth, dims=dims, label=label):
            mod = sugawara.truncated_module(level, m, depth, depth_guard=depth)
            checks.expect(f"{label}: graded dims {mod.graded_dims} != {dims}",
                          mod.graded_dims == dims)
            state[label] = mod

        def identities(kind, items, label=label):
            def job(state, checks):
                if not checks.expect(f"{label}.{kind}: no module", label in state):
                    return
                mod = state[label]
                for item in items:
                    if kind == "virasoro":
                        res = sugawara.virasoro_bracket_check(mod, *item)
                    elif kind == "lx":
                        res = sugawara.lx_commutator_check(mod, *item)
                    else:
                        res = sugawara.affine_bracket_check(mod, item[0], 1, item[1], -1)
                    checks.expect(f"{label}.{kind}{item}: residual {res}", res == 0)
            return job

        jobs.append((f"{label}.module", module))
        jobs.append((f"{label}.virasoro", identities("virasoro", vir)))
        jobs.append((f"{label}.lx", identities("lx", lx)))
        jobs.append((f"{label}.affine", identities("affine", aff)))
    return jobs, {}


# ---------------------------------------------------------------------------
# cli: kzm commands, one process each
# ---------------------------------------------------------------------------

def python_env(src):
    """The environment of a child interpreter that imports kzmono from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def subprocess_runner(src):
    env = python_env(src)

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "kzmono", *argv],
            capture_output=True, env=env, timeout=150, check=False,
        )
        return proc.returncode, proc.stdout

    return run


def inprocess_runner(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue().encode()


def import_kzmono(src):
    """A bare ``python -c "import kzmono"``; returns its exit code."""
    proc = subprocess.run([sys.executable, "-c", "import kzmono"], env=python_env(src),
                          capture_output=True, timeout=120, check=False)
    return proc.returncode


def sl2_rank(weights, level=None):
    """Invariant count of sl2 labels by Clebsch-Gordan folding; with a level,
    the fusion rule a + b + c <= 2 level truncates each step."""
    vec = {0: 1}
    for w in weights:
        nxt = {}
        for a, k in vec.items():
            for c in range(abs(a - w), a + w + 1, 2):
                if level is None or a + w + c <= 2 * level:
                    nxt[c] = nxt.get(c, 0) + k
        vec = nxt
    return vec.get(0, 0)


def _parse(code, out, label, checks):
    if not checks.expect(f"{label}: exit code {code}", code == 0):
        return None
    try:
        return json.loads(out)
    except ValueError:
        checks.expect(f"{label}: output is not JSON", False)
        return None


def cli_jobs(rng, size, algs, src, traced):
    """Untraced, each command is its own ``python -m kzmono`` process. Traced,
    the commands run in-process, after one bare import timed on its own."""
    runner = inprocess_runner if traced else subprocess_runner(src)
    seed = rng.randrange(1, 10**6)
    sym_seeds = [rng.randrange(1, 10**6) for _ in range(2)]
    trials = "100" if size == "full" else "10"
    vl_level, vl_weights, vl_scan = 4, [1, 1, 2, 2, 3, 3], 8
    dim = sl2_rank(vl_weights)
    stab = next(lv for lv in range(max(vl_weights), 64) if sl2_rank(vl_weights, lv) == dim)
    mono_kappa = 3.5
    sys_ = kz.kz_system(algs[1], [(1,), (1,), (2,)], mono_kappa)
    mono_expected = expected_eigenvalues(kz.exact_local_spectrum(sys_, 0, 2), mono_kappa)
    jobs = []

    def selftest(state, checks, again=False):
        label = "selftest" + (".again" if again else "")
        code, out = runner(["selftest", "--seed", str(seed)])
        data = _parse(code, out, label, checks)
        if data is not None:
            checks.expect(f"{label}: {data['failed']} failed", data["failed"] == 0)
        if again:
            checks.expect(f"{label}: output differs from the first run",
                          out == state.get("selftest"))
        state["selftest"] = out

    def symbols(state, checks, rank, sym_seed):
        label = f"symbols.rank{rank}"
        code, out = runner(["symbols", "check", "--rank", str(rank),
                            "--trials", trials, "--seed", str(sym_seed)])
        data = _parse(code, out, label, checks)
        if data is not None:
            checks.expect(f"{label}: not passed", data["passed"] is True)

    def verlinde_cmd(state, checks):
        code, out = runner(["verlinde", "--level", str(vl_level), "--weights",
                            ",".join(map(str, vl_weights)), "--scan-levels", str(vl_scan)])
        data = _parse(code, out, "verlinde", checks)
        if data is not None:
            want = {"rank": sl2_rank(vl_weights, vl_level), "dim_invariants": dim,
                    "stabilization_level": stab}
            got = {k: data[k] for k in want}
            checks.expect(f"verlinde: {got} != {want}", got == want)

    def monodromy_cmd(state, checks):
        code, out = runner(["kz", "monodromy", "--rank", "1", "--weights", "1,1,2",
                            "--kappa", "7/2", "--braid", "A13", "--tol",
                            "1e-10" if size == "full" else "1e-8"])
        data = _parse(code, out, "kz-monodromy", checks)
        if data is not None:
            mat = np.array([[complex(*z) for z in row] for row in data["matrix"]])
            checks.expect(
                "kz-monodromy: eigenvalues off exp(2 pi i mu / kappa)",
                eigen_deviation(mat, mono_expected) < EIG_TOL,
            )

    def algebra_cmd(state, checks):
        code, out = runner(["algebra", "info", "--rank", "2"])
        data = _parse(code, out, "algebra", checks)
        if data is not None:
            checks.expect("algebra: sl3 data", (data["dim"], data["dual_coxeter"]) == (8, 3))

    if traced:
        jobs.append(("import", lambda s, c: c.expect(
            "import: nonzero exit", import_kzmono(src) == 0)))
    jobs.append(("selftest", selftest))
    jobs.append(("selftest.again", lambda s, c: selftest(s, c, again=True)))
    for rank, sym_seed in zip((1, 2), sym_seeds):
        jobs.append((f"symbols.rank{rank}",
                     lambda s, c, rank=rank, sym_seed=sym_seed: symbols(s, c, rank, sym_seed)))
    jobs.append(("verlinde", verlinde_cmd))
    jobs.append(("kz-monodromy", monodromy_cmd))
    jobs.append(("algebra", algebra_cmd))
    return jobs, {"seed": seed, "symbol_seeds": sym_seeds}


WORKLOADS = ("kz_exact", "monodromy", "affine", "cli")


def make_jobs(workload, seed, size, algs, src, traced):
    """The job list of one workload, drawn from ``seed``, and the probe jobs
    that give the accuracy metrics where the workload has no transport."""
    rng = random.Random(f"kzmono-bench:{workload}:{seed}")
    if workload == "kz_exact":
        jobs, info = kz_exact_jobs(rng, size, algs)
    elif workload == "monodromy":
        jobs, info = monodromy_jobs(rng, size, algs)
    elif workload == "affine":
        jobs, info = affine_jobs(rng, size, algs)
    elif workload == "cli":
        jobs, info = cli_jobs(rng, size, algs, src, traced)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    probe = [] if workload == "monodromy" else probe_jobs(rng, size, algs)
    return jobs, probe, info
