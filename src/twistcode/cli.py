"""Command line front end.

Every subcommand takes the same configuration flags (field, dimension,
twist) and emits JSON with sorted keys, or csv for the tabular commands,
so output is byte-identical run to run, including across --threads
settings.  Exit codes: 0 success, 1 a search or verification reported
failure, 2 bad usage or invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace
from typing import NoReturn

from . import code as code_ops
from . import hyperplanes as hp
from .embedding import build_system
from .gamma import FAMILIES, base_cardinality, build_gamma, flag_count
from .gf import Q_CAP, _field_size, make_autspec, make_field
from .projgeom import POINT_CAP, num_classes

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _as_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"q must be a prime power >= 2, got {q}")
    if q > Q_CAP:               # before trial division up to sqrt(q)
        raise ValueError(f"q = {q} exceeds the supported cap {Q_CAP}")
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p == 0:
            t = 0
            m = q
            while m % p == 0:
                m //= p
                t += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, t
    return q, 1


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, help="field size as a prime power")
    sub.add_argument("--p", type=int, help="field characteristic")
    sub.add_argument("--t", type=int, help="extension degree over GF(p)")
    sub.add_argument("--modulus",
                     help="defining polynomial coefficients, low degree "
                          "first, comma separated (default: built in)")
    sub.add_argument("--n", type=int, required=True,
                     help="projective dimension (vectors have n+1 entries)")
    sub.add_argument("--j", type=int,
                     help="twist is x -> x^(p^j); default 0")
    sub.add_argument("--sigma-exp", type=int,
                     help="twist exponent e with sigma(x) = x^e; "
                          "must equal p^j for some j")
    sub.add_argument("--out", help="write output to this file (default stdout)")


def _resolve_config(args) -> tuple[int, int, int, tuple | None]:
    if args.q is not None:
        if args.p is not None or args.t is not None:
            raise ValueError("give either --q or --p/--t, not both")
        p, t = _as_prime_power(args.q)
    elif args.p is not None:
        p, t = args.p, args.t if args.t is not None else 1
    else:
        raise ValueError("a field is required: --q or --p [--t]")
    _field_size(p, t)           # bounds t before the --sigma-exp loop
    if args.j is not None and args.sigma_exp is not None:
        raise ValueError("give either --j or --sigma-exp, not both")
    j = args.j or 0
    if args.sigma_exp is not None:
        e = args.sigma_exp
        j = next((jj for jj in range(t) if p ** jj == e), None)
        if j is None:
            raise ValueError(f"--sigma-exp {e} is not p^j for any 0 <= j < "
                             f"{t} (p = {p})")
    modulus = None
    if args.modulus:
        modulus = tuple(int(c) for c in args.modulus.split(","))
    if args.n < 1:
        raise ValueError(f"--n must be >= 1, got {args.n}")
    return p, t, j, modulus


def _check_counts(args) -> None:
    """Reject counts no run can use, for whichever subcommand takes them."""
    for name, low in (("threads", 1), ("attempts", 1), ("trials", 0),
                      ("nonkernel", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise ValueError(f"--{name} must be >= {low}, got {value}")


def _parse_matrix(text: str, m: int) -> list[list[int]]:
    try:
        rows = [[int(e) for e in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ValueError(f"cannot parse matrix {text!r}: {exc}") from None
    if len(rows) != m or any(len(r) != m for r in rows):
        raise ValueError(f"expected an {m} x {m} matrix "
                         f"(rows separated by ';', entries by ',')")
    return rows


def _config_payload(ps) -> dict:
    return {
        "q": ps.ctx.q, "p": ps.ctx.p, "t": ps.ctx.t,
        "modulus": list(ps.ctx.modulus),
        "n": ps.n, "j": ps.spec.j, "sigma_exponent": ps.spec.exponent,
        "fixed_subfield": ps.spec.s, "sigma_order": ps.spec.order,
    }


def _emit(args, payload: dict | str) -> None:
    if isinstance(payload, dict):
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = payload
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _profile(args, allow_identity: bool = False) -> SimpleNamespace:
    """ctx, spec, n and cfg: all that a closed form or a sampled spectrum
    reads.  Building the system could exceed FLAG_CAP or take minutes."""
    p, t, j, modulus = _resolve_config(args)
    if j == 0 and not allow_identity:
        raise ValueError("the identity twist (j = 0) is only supported by "
                         "the system subcommand")
    ctx = make_field(p, t, modulus)
    return SimpleNamespace(ctx=ctx, spec=make_autspec(ctx, j), n=args.n,
                           cfg=(p, t, ctx.modulus, j, args.n))


def _cmd_params(args) -> dict:
    profile = _profile(args, allow_identity=True)
    q, n, j = profile.ctx.q, profile.n, profile.spec.j
    k = (n + 1) ** 2
    _check_printable(q, n, k)
    return {
        "length": flag_count(q, n),
        "ambient_dimension": k,
        "code_dimension": k if j else k - 1,
        "matrix_classes": num_classes(q, k),
        "point_classes": num_classes(q, n + 1),
        "theta_bounds": {str(r): code_ops.m_bound(r, q, n, profile.spec.s)
                         for r in range(1, n + 2)},
        "cardinalities": {
            "base": base_cardinality(q, n),
            "singular": hp.singular_cardinality(q, n),
            "quasi_singular": hp.quasi_singular_cardinality(q, n),
            "spread_type": hp.spread_type_cardinality(q, n),
        },
        "min_distance": (code_ops.closed_form_min_distance(profile)
                         if j and n >= 2 else None),
        "config": _config_payload(profile),
    }


def _check_printable(q: int, n: int, k: int) -> None:
    """Refuse a k whose class count num_classes(q, k), the largest number
    params prints, has more digits than sys.get_int_max_str_digits() lets
    json print (Python's default where that is 0).  The count lies in
    [q^(k-1), q^k), so one far beyond the limit is refused by its
    logarithm, unformed; int-float comparisons are exact."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if k - 1 > (limit + 1) / math.log10(q) or num_classes(q, k) >= 10 ** limit:
        raise ValueError(f"params at --n {n} over GF({q}) would print a class "
                         f"count of more than {limit} digits")


def _system(args, allow_identity: bool = False):
    profile = _profile(args, allow_identity)
    return build_system(profile.ctx, profile.spec, profile.n)


def _cmd_system(args) -> dict:
    ps = _system(args, allow_identity=True)
    return {
        "config": _config_payload(ps),
        "length": ps.N,
        "ambient_dimension": ps.k,
        "span_rank": ps.span_rank,
        "functional_classes": len(ps.gamma.functionals),
        "injective": True,     # build_system asserts distinctness
    }


def _cmd_theta(args) -> dict:
    ps = _system(args)
    M = _parse_matrix(args.matrix, ps.m)
    rep = code_ops.theta(ps, M)
    return {
        "config": _config_payload(ps),
        "matrix": M,
        "theta": rep.theta,
        "kernel_classes": rep.kernel_classes,
        "proportional_classes": rep.proportional_classes,
        "vanishing_flags": rep.intersection,
        "weight": rep.weight,
        "identity_checked": rep.identity_checked,
    }


def _cmd_classify(args) -> dict:
    ps = _system(args)
    M = _parse_matrix(args.matrix, ps.m)
    check = {"auto": None, "on": True, "off": False}[args.check_hyperplane]
    rep = hp.classify(ps, M, check_hyperplane=check)
    return {
        "config": _config_payload(ps),
        "matrix": M,
        "kind": rep.kind,
        "rank": rep.rank,
        "theta": rep.theta,
        "cardinality": rep.cardinality,
        "weight": rep.weight,
        "is_hyperplane": rep.is_hyperplane,
        "defining_point": rep.defining_point,
        "defining_functional": rep.defining_functional,
    }


def _cmd_spectrum(args) -> dict | str:
    ps = _system(args) if args.sample is None else _profile(args)
    F = num_classes(ps.ctx.q, ps.n + 1)     # a built system has F capped
    if F > POINT_CAP:
        raise ValueError(f"{F} functional classes exceed the cap {POINT_CAP}")
    check = {"auto": None, "on": True, "off": False}[args.flag_check]
    table = code_ops.weight_spectrum(ps, sample=args.sample, seed=args.seed,
                                     threads=args.threads, flag_check=check)
    if args.format == "csv":
        lines = ["weight,count"]
        lines += [f"{w},{c}" for w, c in sorted(table.counts.items())]
        return "\n".join(lines) + "\n"
    return {
        "config": _config_payload(ps),
        "mode": table.mode,
        "classes": table.classes,
        "identity_checked": table.identity_checked,
        "counts": {str(w): c for w, c in sorted(table.counts.items())},
    }


def _cmd_minimality(args) -> dict:
    ps = _system(args)
    rep = code_ops.is_minimal(ps, threads=args.threads)
    out = {
        "config": _config_payload(ps),
        "minimal": rep.minimal,
        "classes_checked": rep.classes_checked,
    }
    if not rep.minimal:
        out["witness_index"] = rep.witness_index
        out["witness"] = rep.witness.tolist()
        out["covering"] = (rep.covering.tolist()
                           if rep.covering is not None else None)
    return out


def _cmd_minwords(args) -> dict:
    ps = _system(args)
    res = code_ops.min_weight_sweep(ps, threads=args.threads)
    return {"config": _config_payload(ps), **res}


def _cmd_spread(args) -> NoReturn:
    hp.find_spread(_system(args), attempts=args.attempts, seed=args.seed)


def _cmd_fpf(args) -> dict:
    ps = _system(args)
    w = hp.find_fpf_collineation(ps)
    return {
        "config": _config_payload(ps),
        "seed": hp.FPF_SEED,
        "matrix": w.matrix.tolist(),
        "type": w.kind,
        "theta": w.theta,
        "weight": w.weight,
        "cardinality": w.cardinality,
        "attempts": w.attempts,
    }


def _cmd_autcheck(args) -> dict:
    ps = _system(args)
    rep = code_ops.automorphism_check(ps, trials=args.trials, seed=args.seed,
                                      nonkernel_probes=args.nonkernel)
    return {
        "config": _config_payload(ps),
        "trials": rep.trials,
        "seed": rep.seed,
        "weight_failures": rep.weight_failures,
        "permutation_failures": rep.permutation_failures,
        "kernel_elements_checked": rep.kernel_elements_checked,
        "kernel_ok": rep.kernel_ok,
        "nonkernel_trials": rep.nonkernel_trials,
        "nonkernel_all_moved": rep.nonkernel_all_moved,
        "ok": (rep.weight_failures == 0 and rep.permutation_failures == 0
               and rep.kernel_ok and rep.nonkernel_all_moved),
    }


def _cmd_lines(args) -> dict | str:
    # the lines of Gamma do not depend on sigma: no system is built
    profile = _profile(args, allow_identity=True)
    flags, npp = build_gamma(profile.ctx, profile.n).line_flags()
    blocks = dict(zip(FAMILIES, (flags[:npp], flags[npp:])))
    if args.format == "csv":
        rows = ["family,flags"]
        for family, block in blocks.items():
            fmt = family + "," + " ".join(["%d"] * flags.shape[1])
            rows += [fmt % tuple(row) for row in block.tolist()]
        return "\n".join(rows) + "\n"
    return {
        "config": _config_payload(profile),
        "count": len(flags),
        "families": {f: len(b) for f, b in blocks.items() if len(b)},
        "flags_per_line": profile.ctx.q + 1,
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistcode",
        description="exact computations with twisted flag-embedding codes")
    sp = ap.add_subparsers(dest="command", required=True)

    def sub(name, helptext):
        s = sp.add_parser(name, help=helptext)
        _add_config_args(s)
        return s

    sub("params", "closed-form profile of a configuration")
    sub("system", "build the embedding and report its span")

    s = sub("theta", "fixed-functional count of one matrix")
    s.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','")

    s = sub("classify", "name the hyperplane cut out by one matrix")
    s.add_argument("--matrix", required=True)
    s.add_argument("--check-hyperplane", choices=("auto", "on", "off"),
                   default="auto")

    s = sub("spectrum", "weight distribution, exhaustive or sampled")
    s.add_argument("--sample", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--threads", type=int, default=1)
    s.add_argument("--flag-check", choices=("auto", "on", "off"),
                   default="auto")
    s.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub("minimality", "exhaustive minimality of the code")
    s.add_argument("--threads", type=int, default=1)

    s = sub("minwords", "minimum-weight words versus the solution condition")
    s.add_argument("--threads", type=int, default=1)

    s = sub("spread", "search for a spread-type hyperplane")
    s.add_argument("--attempts", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)

    sub("fpf", "find a fixed-point-free twist (theta 0, maximum weight)")

    s = sub("autcheck", "randomized monomial-action verification")
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--nonkernel", type=int, default=1000)

    s = sub("lines", "line families of the flag geometry")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    return ap


_COMMANDS = {
    "params": _cmd_params,
    "system": _cmd_system,
    "theta": _cmd_theta,
    "classify": _cmd_classify,
    "spectrum": _cmd_spectrum,
    "minimality": _cmd_minimality,
    "minwords": _cmd_minwords,
    "spread": _cmd_spread,
    "fpf": _cmd_fpf,
    "autcheck": _cmd_autcheck,
    "lines": _cmd_lines,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_counts(args)
        payload = _COMMANDS[args.command](args)
    except hp.SearchBudgetExhausted as exc:
        _emit(args, {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": {
                "type": "SearchBudgetExhausted",
                "message": str(exc),
                "attempts": exc.attempts,
                "seed": exc.seed,
                "histogram": {str(k): v for k, v
                              in sorted(exc.histogram.items())},
            },
        })
        return 1
    except ValueError as exc:
        _emit(args, {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "error": {"type": "ValueError", "message": str(exc)},
        })
        return 2
    if isinstance(payload, dict):
        payload = {"schema_version": SCHEMA_VERSION,
                   "command": args.command, **payload}
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
