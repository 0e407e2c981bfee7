"""Single command-line entry point with JSON output.

Every numeric in the emitted JSON is either an exact rational string "p/q"
or a float under an explicit "mode": "float" tag; identical argv and seed
produce byte-identical output. Exit codes: 0 success, 2 domain/validation
errors (with a machine-readable error object on stdout), 64 usage errors
(usage text on stderr).
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
from fractions import Fraction

import numpy as np

from . import verlinde
from .errors import KzmonoError, DomainError
from .invariants import invariant_basis, omega_pair, restrict, tensor_system
from .kz import braid_monodromy, flatness_residual, kz_system
from .liealg import build_algebra, level_weights, orthonormal_basis, weight_form
from .numerics import combine, integer_matrix
from .reps import casimir, irrep, rep_matrix
from .sugawara import (
    affine_bracket_check,
    central_charge,
    lx_commutator_check,
    truncated_module,
    virasoro_bracket_check,
)
from .symbols import (
    cocycle_evaluation,
    random_laurent_vector,
    residue_side,
    symbol_pairing,
)

USAGE_EXIT = 64
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _rat_str(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _parse_int_list(text):
    try:
        parts = [p for p in text.split(",")]
        return [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed integer list {text!r}") from None


def _parse_weight_tuples(text, rank):
    flat = _parse_int_list(text)
    if len(flat) % rank:
        raise argparse.ArgumentTypeError(
            f"weight list length {len(flat)} is not a multiple of rank {rank}"
        )
    return [tuple(flat[i : i + rank]) for i in range(0, len(flat), rank)]


def _parse_kappa(text):
    """Parse 'a', 'p/q', 'a+bi', '-bi' into a complex number."""
    t = text.strip().replace(" ", "")
    m = re.fullmatch(
        r"(?P<re>[+-]?(?:\d+(?:\.\d*)?|\.\d+|\d+/\d+))?"
        r"(?:(?P<im>[+-](?:\d+(?:\.\d*)?|\.\d+|\d+/\d+)?)[ij])?",
        t,
    )
    if not m or (m.group("re") is None and m.group("im") is None):
        raise argparse.ArgumentTypeError(f"malformed complex number {text!r}")

    def num(s):
        if "/" in s:
            return float(Fraction(s))
        return float(s)

    re_part = num(m.group("re")) if m.group("re") is not None else 0.0
    im = m.group("im")
    if im is None:
        im_part = 0.0
    elif im in ("+", "-"):
        im_part = 1.0 if im == "+" else -1.0
    else:
        im_part = num(im)
    return complex(re_part, im_part)


def _parse_braid(text):
    t = text.strip().upper()
    m = re.fullmatch(r"A(\d),?(\d)", t) or re.fullmatch(r"A(\d+),(\d+)", t)
    if not m:
        raise argparse.ArgumentTypeError(
            f"malformed braid generator {text!r}; expected like 'A12'"
        )
    i, j = int(m.group(1)), int(m.group(2))
    if i == j or i < 1 or j < 1:
        raise argparse.ArgumentTypeError("braid generator needs distinct 1-based indices")
    return i - 1, j - 1


def _parse_pairs(text):
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"malformed pair {chunk!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed pair {chunk!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty pair list")
    return out


def _emit(payload, pretty):
    text = json.dumps(payload, indent=2 if pretty else None)
    print(text)


def build_parser():
    p = _Parser(prog="kzm", description=__doc__)
    p.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("algebra", help="algebra structure data")
    pa_sub = pa.add_subparsers(dest="subcommand", required=True)
    pai = pa_sub.add_parser("info")
    pai.add_argument("--series", default="A")
    pai.add_argument("--rank", type=int, required=True)
    pai.add_argument("--level", type=int, default=None)

    pr = sub.add_parser("rep", help="irreducible module construction")
    pr_sub = pr.add_subparsers(dest="subcommand", required=True)
    prb = pr_sub.add_parser("build")
    prb.add_argument("--rank", type=int, required=True)
    prb.add_argument("--weight", type=_parse_int_list, required=True)
    prb.add_argument("--emit", default=None)

    pi = sub.add_parser("invariants", help="tensor invariants and two-site operators")
    pi.add_argument("--rank", type=int, required=True)
    pi.add_argument("--weights", required=True)
    pi.add_argument("--level", type=int, default=None)
    pi.add_argument("--json", action="store_true", help="accepted for compatibility; output is always JSON")

    pk = sub.add_parser("kz", help="connection checks and monodromy")
    pk_sub = pk.add_subparsers(dest="subcommand", required=True)
    pkf = pk_sub.add_parser("flatness")
    pkf.add_argument("--rank", type=int, required=True)
    pkf.add_argument("--weights", required=True)
    pkf.add_argument("--exact", action="store_true")
    pkf.add_argument("--level", type=int, default=None)
    pkm = pk_sub.add_parser("monodromy")
    pkm.add_argument("--rank", type=int, required=True)
    pkm.add_argument("--weights", required=True)
    pkm.add_argument("--kappa", type=_parse_kappa, required=True)
    pkm.add_argument("--braid", type=_parse_braid, required=True)
    pkm.add_argument("--tol", type=float, default=1e-8)
    pkm.add_argument("--emit", default=None)
    pkm.add_argument("--level", type=int, default=None)

    ps = sub.add_parser("sugawara", help="graded truncations and quadratic operators")
    ps_sub = ps.add_subparsers(dest="subcommand", required=True)
    psc = ps_sub.add_parser("check")
    psc.add_argument("--level", type=int, required=True)
    psc.add_argument("--weight", type=int, required=True)
    psc.add_argument("--depth", type=int, required=True)
    psc.add_argument("--pairs", type=_parse_pairs, default=None)

    py = sub.add_parser("symbols", help="residue pairing identities")
    py_sub = py.add_subparsers(dest="subcommand", required=True)
    pyc = py_sub.add_parser("check")
    pyc.add_argument("--rank", type=int, default=1)
    pyc.add_argument("--trials", type=int, default=100)
    pyc.add_argument("--seed", type=int, default=0)

    pv = sub.add_parser("verlinde", help="fusion ranks and invariant dimensions")
    pv.add_argument("--level", type=int, required=True)
    pv.add_argument("--weights", type=_parse_int_list, required=True)
    pv.add_argument("--scan-levels", type=int, default=None)

    pt = sub.add_parser("selftest", help="deterministic verification suite")
    pt.add_argument("--seed", type=int, default=0)

    return p


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_algebra_info(args):
    alg = build_algebra(args.series, args.rank)
    out = {
        "series": alg.series,
        "rank": alg.rank,
        "dim": alg.dim,
        "dual_coxeter": alg.dual_coxeter,
        "highest_root": list(alg.highest_root),
        "weyl_vector": list(alg.weyl_vector),
    }
    if args.level is not None:
        out["level"] = args.level
        out["level_weights"] = [list(w) for w in level_weights(alg, args.level)]
    return out


def _cmd_rep_build(args):
    alg = build_algebra("A", args.rank)
    rep = irrep(alg, tuple(args.weight))
    rep_report = casimir(rep)
    out = {
        "rank": args.rank,
        "highest_weight": list(rep.highest_weight),
        "dim": rep.dim,
        "weights": [list(w) for w in rep.weight_of_basis_vector],
        "casimir": _rat_str(rep_report.eigenvalue),
        "casimir_is_scalar": rep_report.is_scalar,
    }
    if args.emit:
        mats = {}
        for i in range(alg.rank):
            for kind in ("e", "f", "h"):
                label = (kind, i + 1) if kind == "h" else (kind, i + 1, i + 2)
                m = rep_matrix(rep, label)
                mats[f"{kind}{i+1}"] = [[_rat_str(x) for x in row] for row in m]
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump({"dim": rep.dim, "generators": mats}, fh)
        out["emitted"] = args.emit
    return out


def _cmd_invariants(args):
    alg = build_algebra("A", args.rank)
    weights = _parse_weight_tuples(args.weights, args.rank)
    if args.level is not None:
        for w in weights:
            if weight_form(alg, w, alg.highest_root) > args.level:
                print(
                    f"warning: weight {list(w)} exceeds the level-{args.level} bound",
                    file=sys.stderr,
                )
    built = {w: irrep(alg, w) for w in dict.fromkeys(weights)}
    sys_ = tensor_system([built[w] for w in weights])
    inv = invariant_basis(sys_, "exact")
    out = {
        "rank": args.rank,
        "weights": [list(w) for w in weights],
        "ambient_dim": sys_.dim,
        "invariant_dim": inv.dim,
    }
    if inv.dim and len(weights) >= 2:
        shape = (inv.dim, inv.dim)
        total, den = combine([
            (1, (integer_matrix(restrict(omega_pair(sys_, i, j), inv), shape),))
            for i, j in itertools.combinations(range(len(weights)), 2)
        ], shape)
        scalar = total[0, 0]
        is_scalar = all(
            total[a, b] == (scalar if a == b else 0)
            for a in range(inv.dim)
            for b in range(inv.dim)
        )
        out["omega_sum_scalar"] = _rat_str(Fraction(scalar, den)) if is_scalar else None
        out["omega_sum_is_scalar"] = is_scalar
    return out


def _kz_from_args(args, kappa):
    alg = build_algebra("A", args.rank)
    weights = _parse_weight_tuples(args.weights, args.rank)
    return kz_system(alg, weights, kappa, level=args.level)


def _cmd_kz_flatness(args):
    sys_ = _kz_from_args(args, kappa=1.0)
    if args.exact:
        res = flatness_residual(sys_, exact=True)
        return {
            "mode": "exact",
            "n": sys_.n,
            "invariant_dim": sys_.dim,
            "residual": _rat_str(res),
        }
    res = flatness_residual(sys_, exact=False)
    return {
        "mode": "float",
        "n": sys_.n,
        "invariant_dim": sys_.dim,
        "residual": res,
    }


def _cmd_kz_monodromy(args):
    sys_ = _kz_from_args(args, kappa=args.kappa)
    i, j = args.braid
    if not (0 <= i < sys_.n and 0 <= j < sys_.n):
        raise DomainError(
            f"braid generator indices {i+1},{j+1} out of range for n={sys_.n}"
        )
    hol = braid_monodromy(sys_, i, j, args.tol)
    mat = [
        [[z.real, z.imag] for z in row]
        for row in np.asarray(hol.matrix)
    ]
    payload = {
        "mode": "float",
        "kappa": [args.kappa.real, args.kappa.imag],
        "braid": f"A{i+1}{j+1}",
        "matrix": mat,
        "estimated_error": hol.estimated_error,
        "steps_taken": hol.steps_taken,
    }
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        payload["emitted"] = args.emit
    return payload


def _cmd_sugawara_check(args):
    mod = truncated_module(args.level, args.weight, args.depth)
    pairs = args.pairs
    if pairs is None:
        pairs = [
            (p, q)
            for p in range(-2, 3)
            for q in range(-2, 3)
            if abs(p) <= args.depth and abs(q) <= args.depth and abs(p + q) <= args.depth
        ]
    bracket_res = {}
    for p, q in pairs:
        bracket_res[f"{p},{q}"] = _rat_str(virasoro_bracket_check(mod, p, q))
    lx_res = {}
    for n in (-1, 0, 1):
        for gen in ("e", "f", "h"):
            for k in (-1, 0, 1):
                lx_res[f"{n},{gen},{k}"] = _rat_str(lx_commutator_check(mod, n, gen, k))
    affine_res = {}
    for x in ("e", "f", "h"):
        for y in ("e", "f", "h"):
            affine_res[f"{x},1,{y},-1"] = _rat_str(affine_bracket_check(mod, x, 1, y, -1))
    return {
        "mode": "exact",
        "level": args.level,
        "weight": args.weight,
        "depth": args.depth,
        "graded_dims": mod.graded_dims,
        "central_charge": _rat_str(central_charge(args.level)),
        "bracket_residuals": bracket_res,
        "lx_residuals": lx_res,
        "affine_residuals": affine_res,
    }


def _cmd_symbols_check(args):
    alg = build_algebra("A", args.rank)
    if args.rank == 1:
        basis = orthonormal_basis(alg, "symbolic", 0)
        basis2 = orthonormal_basis(alg, "symbolic", 1)
    else:
        basis = orthonormal_basis(alg, "float", 0)
        basis2 = orthonormal_basis(alg, "float", 1)
    rng = random.Random(args.seed)
    worst = Fraction(0)
    exact = basis.mode == "symbolic"
    worst_float = 0.0
    for _ in range(args.trials):
        phi = random_laurent_vector(alg, rng)
        level = rng.choice((1, 2, 3))
        m = rng.randint(-3, 3)
        sp = symbol_pairing(phi, m, level)
        for b in (basis, basis2):
            rs = residue_side(phi, m, level, b)
            if exact:
                dev = abs(sp - rs)
                worst = max(worst, dev)
            else:
                worst_float = max(worst_float, abs(complex(sp) - rs))
        co = cocycle_evaluation(phi, m)
        dev = abs(co - 2 * (level + alg.dual_coxeter) * sp)
        worst = max(worst, dev)
    out = {
        "mode": "exact" if exact else "float",
        "rank": args.rank,
        "trials": args.trials,
        "seed": args.seed,
        "max_deviation": _rat_str(worst) if exact else worst_float,
        "passed": (worst == 0) if exact else worst_float < 1e-12,
    }
    if not exact:
        out["max_deviation_float"] = worst_float
    return out


def _cmd_verlinde(args):
    report = verlinde.compare_invariants(
        args.level, args.weights, scan_limit=args.scan_levels
    )
    return {
        "mode": "exact",
        "level": args.level,
        "weights": list(args.weights),
        "rank": report["rank"],
        "dim_invariants": report["dim_invariants"],
        "equal": report["equal"],
        "stabilization_level": report["stabilization_level"],
    }


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_checks(seed):
    def check_algebra():
        alg = build_algebra("A", 1)
        ok = weight_form(alg, alg.highest_root, alg.highest_root) == 2
        alg2 = build_algebra("A", 2)
        ok = ok and alg2.dim == 8 and alg2.dual_coxeter == 3
        return ok, {"theta_norm": "2", "a2_dim": alg2.dim}

    def check_casimir():
        alg = build_algebra("A", 1)
        r1 = casimir(irrep(alg, (1,)))
        r2 = casimir(irrep(alg, (2,)))
        ok = (
            r1.eigenvalue == Fraction(3, 2)
            and r2.eigenvalue == 4
            and r1.is_scalar
            and r2.is_scalar
        )
        return ok, {"c_1": _rat_str(r1.eigenvalue), "c_2": _rat_str(r2.eigenvalue)}

    def check_invariants():
        alg = build_algebra("A", 1)
        v1 = irrep(alg, (1,))
        dims = []
        for n in (2, 3, 4, 6):
            dims.append(invariant_basis(tensor_system([v1] * n), "exact").dim)
        ok = dims == [1, 0, 2, 5]
        return ok, {"dims": dims}

    def check_flatness():
        alg = build_algebra("A", 1)
        res1 = flatness_residual(kz_system(alg, [(1,)] * 4, 3))
        res2 = flatness_residual(kz_system(alg, [(1,), (1,), (2,)], 3))
        ok = res1 == 0 and res2 == 0
        return ok, {"residuals": [_rat_str(res1), _rat_str(res2)]}

    def check_monodromy():
        alg = build_algebra("A", 1)
        sys_ = kz_system(alg, [(1,), (1,)], 3)
        hol = braid_monodromy(sys_, 0, 1, 1e-8)
        dev = abs(hol.matrix[0][0] + 1.0)
        ok = dev < 1e-6
        return ok, {"deviation": float(dev)}

    def check_symbols():
        alg = build_algebra("A", 1)
        rng = random.Random(seed)
        basis = orthonormal_basis(alg, "symbolic", 0)
        ok = True
        for _ in range(40):
            phi = random_laurent_vector(alg, rng)
            level = rng.choice((1, 2, 3))
            m = rng.randint(-3, 3)
            sp = symbol_pairing(phi, m, level)
            ok = ok and residue_side(phi, m, level, basis) == sp
            ok = ok and cocycle_evaluation(phi, m) == 2 * (level + 2) * sp
        return ok, {"trials": 40}

    def check_verlinde():
        ok = True
        for level in range(1, 7):
            ring = verlinde.fusion_ring(level)  # validates against S-matrix
            ok = ok and ring.level == level
        rep = verlinde.compare_invariants(1, [1, 1, 1, 1])
        ok = ok and rep["rank"] == 1 and rep["stabilization_level"] == 2
        return ok, {"rank_1111": rep["rank"]}

    def check_sugawara():
        mod = truncated_module(1, 1, 3)
        r1 = virasoro_bracket_check(mod, 1, -1)
        r2 = lx_commutator_check(mod, 1, "e", -1)
        r3 = affine_bracket_check(mod, "e", 1, "f", -1)
        ok = r1 == 0 and r2 == 0 and r3 == 0
        return ok, {
            "bracket": _rat_str(r1),
            "lx": _rat_str(r2),
            "affine": _rat_str(r3),
            "graded_dims": mod.graded_dims,
        }

    return [
        ("algebra-structure", check_algebra),
        ("casimir-scalars", check_casimir),
        ("invariant-dimensions", check_invariants),
        ("flatness-exact", check_flatness),
        ("local-monodromy", check_monodromy),
        ("symbol-identities", check_symbols),
        ("verlinde-consistency", check_verlinde),
        ("sugawara-identities", check_sugawara),
    ]


def map_ordered(fn, items):
    """Apply fn to each item in turn, in one thread; returns the results in order.

    A named function rather than an inline loop so that bench/spans.py can
    time the selftest checks as one span.
    """
    return [fn(x) for x in items]


def _cmd_selftest(args):
    checks = _selftest_checks(args.seed)

    def run_one(item):
        name, fn = item
        try:
            ok, detail = fn()
        except KzmonoError as exc:
            return {"name": name, "status": "fail", "detail": {"error": str(exc)}}
        return {"name": name, "status": "pass" if ok else "fail", "detail": detail}

    results = map_ordered(run_one, checks)
    failed = sum(1 for r in results if r["status"] != "pass")
    return {
        "seed": args.seed,
        "checks": results,
        "passed": len(results) - failed,
        "failed": failed,
    }, (1 if failed else 0)


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            return _run_command(args)
        except argparse.ArgumentTypeError as exc:
            # --weights is split by --rank in the handler, after parse_args
            parser.error(f"argument --weights: {exc}")
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_EXIT


def _run_command(args):
    try:
        if args.command == "algebra":
            payload = _cmd_algebra_info(args)
        elif args.command == "rep":
            payload = _cmd_rep_build(args)
        elif args.command == "invariants":
            payload = _cmd_invariants(args)
        elif args.command == "kz":
            if args.subcommand == "flatness":
                payload = _cmd_kz_flatness(args)
            else:
                payload = _cmd_kz_monodromy(args)
        elif args.command == "sugawara":
            payload = _cmd_sugawara_check(args)
        elif args.command == "symbols":
            payload = _cmd_symbols_check(args)
        elif args.command == "verlinde":
            payload = _cmd_verlinde(args)
        elif args.command == "selftest":
            payload, code = _cmd_selftest(args)
            _emit(payload, args.pretty)
            return code
        else:  # pragma: no cover - argparse enforces the choices
            return USAGE_EXIT
    except KzmonoError as exc:
        _emit({"error": {"kind": exc.kind, "message": str(exc)}}, args.pretty)
        return DOMAIN_EXIT
    _emit(payload, args.pretty)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
