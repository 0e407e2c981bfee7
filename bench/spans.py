"""Spans for the traced benchmark run, and the per-layer metrics they give.

A traced run replaces public kzmono functions, as the calling modules see
them, with wrappers that record one span per call: name, start, end, parent
span and job. Spans stay in memory until the run ends. A layer is a kzmono
module and the prefix of a span name; its self time is the time its spans
spend outside their child spans, so the self times of all layers plus the
benchmark's own time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

LAYERS = ("liealg", "reps", "invariants", "kz", "numerics", "sugawara",
          "symbols", "verlinde", "cli", "parallel")


def _count_basis(counts, args, inv):
    counts["invariants.inv_dim"] += inv.dim
    counts["invariants.ambient_dim"] += inv.ambient.dim


def _count_omega(counts, args, op):
    counts["invariants.omega_nnz"] += op.matrix.nnz


def _count_zero_weight(counts, args, result):
    # the kernel computation runs on the zero-weight block: ncols is its size
    counts["invariants.zero_weight_dim"] += args[1]


def _count_steps(counts, args, hol):
    counts["kz.steps"] += hol.steps_taken


def _count_module(counts, args, mod):
    dims = mod.graded_dims
    counts["sugawara.graded_dim_top"] += dims[-1]
    # degree D is spanned by X(-k).b, b of degree D - k: 3 sum_k dims[D - k]
    counts["sugawara.spanning_total"] += sum(
        3 * sum(dims[d - k] for k in range(1, d + 1)) for d in range(1, len(dims))
    )


# (module, attribute, span name, hook on the result)
TARGETS = (
    ("kzmono.sugawara", "build_algebra", "liealg.build", None),
    ("kzmono.cli", "build_algebra", "liealg.build", None),
    ("kzmono.cli", "orthonormal_basis", "liealg.orthonormal", None),
    ("kzmono.kz", "irrep", "reps.irrep", None),
    ("kzmono.sugawara", "irrep", "reps.irrep", None),
    ("kzmono.cli", "irrep", "reps.irrep", None),
    ("kzmono.cli", "casimir", "reps.casimir", None),
    ("kzmono.kz", "tensor_decompose", "reps.decompose", None),
    ("kzmono.kz", "tensor_system", "invariants.tensor", None),
    ("kzmono.cli", "tensor_system", "invariants.tensor", None),
    ("kzmono.kz", "invariant_basis", "invariants.basis", _count_basis),
    ("kzmono.cli", "invariant_basis", "invariants.basis", _count_basis),
    ("kzmono.kz", "omega_pair", "invariants.omega", _count_omega),
    ("kzmono.cli", "omega_pair", "invariants.omega", _count_omega),
    ("kzmono.kz", "restrict", "invariants.restrict", None),
    ("kzmono.cli", "restrict", "invariants.restrict", None),
    ("kzmono.kz", "kz_system", "kz.system", None),
    ("kzmono.cli", "kz_system", "kz.system", None),
    ("kzmono.kz", "flatness_residual", "kz.flatness", None),
    ("kzmono.cli", "flatness_residual", "kz.flatness", None),
    ("kzmono.kz", "exact_local_spectrum", "kz.spectrum", None),
    ("kzmono.kz", "braid_monodromy", "kz.monodromy", None),
    ("kzmono.cli", "braid_monodromy", "kz.monodromy", None),
    ("kzmono.kz", "braid_generator_path", "kz.path", None),
    ("kzmono.kz", "path_through", "kz.path", None),
    ("kzmono.kz", "parallel_transport", "kz.transport", _count_steps),
    ("kzmono.invariants", "nullspace_exact_sparse", "numerics.eliminate", _count_zero_weight),
    ("kzmono.kz", "exact_rank", "numerics.eliminate", None),
    ("kzmono.kz", "rat_commutator", "numerics.commutator", None),
    ("kzmono.numerics", "rat_mul", "numerics.rat_mul", None),
    ("kzmono.reps", "rat_mul", "numerics.rat_mul", None),
    ("kzmono.sugawara", "rat_mul", "numerics.rat_mul", None),
    ("kzmono.reps", "gram_select", "numerics.gram_select", None),
    ("kzmono.sugawara", "gram_select", "numerics.gram_select", None),
    ("kzmono.kz", "ode_transport", "numerics.ode", None),
    ("kzmono.sugawara", "truncated_module", "sugawara.module", _count_module),
    ("kzmono.cli", "truncated_module", "sugawara.module", _count_module),
    ("kzmono.sugawara", "ln_operator", "sugawara.ln", None),
    ("kzmono.sugawara", "virasoro_bracket_check", "sugawara.vir_check", None),
    ("kzmono.cli", "virasoro_bracket_check", "sugawara.vir_check", None),
    ("kzmono.sugawara", "lx_commutator_check", "sugawara.lx_check", None),
    ("kzmono.cli", "lx_commutator_check", "sugawara.lx_check", None),
    ("kzmono.sugawara", "affine_bracket_check", "sugawara.affine_check", None),
    ("kzmono.cli", "affine_bracket_check", "sugawara.affine_check", None),
    ("kzmono.cli", "residue_side", "symbols.residue", None),
    ("kzmono.cli", "symbol_pairing", "symbols.pairing", None),
    ("kzmono.cli", "cocycle_evaluation", "symbols.cocycle", None),
    ("kzmono.cli", "random_laurent_vector", "symbols.random", None),
    ("kzmono.verlinde", "compare_invariants", "verlinde.compare", None),
    ("kzmono.verlinde", "fusion_ring", "verlinde.ring", None),
    ("kzmono.cli", "map_ordered", "parallel.map", None),
    ("kzmono.cli", "run", "cli.cmd", None),
    ("workloads", "import_kzmono", "cli.import", None),
)

# metric -> span name whose outermost calls it totals
TIMES = {
    "reps.irrep_s": "reps.irrep",
    "invariants.basis_s": "invariants.basis",
    "invariants.omega_s": "invariants.omega",
    "invariants.restrict_s": "invariants.restrict",
    "kz.system_s": "kz.system",
    "kz.flatness_s": "kz.flatness",
    "kz.spectrum_s": "kz.spectrum",
    "kz.path_s": "kz.path",
    "kz.transport_s": "kz.transport",
    "numerics.eliminate_s": "numerics.eliminate",
    "numerics.commutator_s": "numerics.commutator",
    "numerics.rat_mul_s": "numerics.rat_mul",
    "numerics.gram_select_s": "numerics.gram_select",
    "numerics.ode_s": "numerics.ode",
    "sugawara.module_s": "sugawara.module",
    "sugawara.ln_s": "sugawara.ln",
    "sugawara.vir_check_s": "sugawara.vir_check",
    "sugawara.lx_check_s": "sugawara.lx_check",
    "sugawara.affine_check_s": "sugawara.affine_check",
    "cli.import_s": "cli.import",
    "cli.cmd_s": "cli.cmd",
    "parallel.map_s": "parallel.map",
    "symbols.residue_s": "symbols.residue",
    "verlinde.compare_s": "verlinde.compare",
}
# metric -> span name whose calls it counts
CALLS = {
    "numerics.eliminate_calls": "numerics.eliminate",
    "numerics.rat_mul_calls": "numerics.rat_mul",
    "numerics.ode_calls": "numerics.ode",
}
COUNTS = ("invariants.ambient_dim", "invariants.zero_weight_dim", "invariants.inv_dim",
          "invariants.omega_nnz", "kz.steps", "sugawara.graded_dim_top",
          "sugawara.spanning_total")


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "kz.us_per_step":
        return "us"
    if "_digits" in metric:
        return "digits"
    if metric in ("kz.err_est_ratio", "trace.overhead_frac"):
        return "ratio"
    return "count"


# the two systems of the monodromy workload whose full twist is checked
TWIST_SYSTEMS = ("a1_v1x4", "a2_3pt")


def per_layer_names():
    names = list(TIMES) + list(CALLS) + list(COUNTS)
    names += ["kz.us_per_step", "kz.err_est_ratio"]
    names += [f"kz.twist_digits.{label}" for label in TWIST_SYSTEMS]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["trace.other_s", "trace.wall_s", "trace.overhead_frac"]
    return names


class Tracer:
    """Collects spans while installed; ``job`` labels the spans it records."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, job]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._saved = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        for modname, attr, name, hook in TARGETS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def metrics(self, wall, err_ratios, twist_digits):
        """Per-layer metrics of one traced pass that took ``wall`` seconds.

        ``twist_digits`` maps a system label to the digits of its full twist.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        total = Counter()
        calls = Counter()
        top = 0.0
        for k, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_time[name.split(".")[0]] += dur - child[k]
            calls[name] += 1
            if parent < 0:
                top += dur
            # count a span into its name's total only if no ancestor has that name
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total[name] += dur
        out = {m: total[s] for m, s in TIMES.items()}
        out.update({m: calls[s] for m, s in CALLS.items()})
        out.update({m: self.counts[m] for m in COUNTS})
        steps = self.counts["kz.steps"]
        out["kz.us_per_step"] = 1e6 * total["kz.transport"] / steps if steps else 0.0
        out["kz.err_est_ratio"] = statistics.median(err_ratios) if err_ratios else 0.0
        for label in TWIST_SYSTEMS:
            out[f"kz.twist_digits.{label}"] = twist_digits.get(label, 0.0)
        for layer, seconds in self_time.items():
            out[f"{layer}.self_s"] = seconds
        out["trace.other_s"] = wall - top
        out["trace.wall_s"] = wall
        return out
