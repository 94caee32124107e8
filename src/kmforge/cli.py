"""Command-line front end.

Subcommands: ``algebra list|show``, ``auto invariant|realize|order|equivalent``,
``classify involutions|realforms``, ``verify <suite>``.  All output is JSON
with sorted keys; identical configuration and seed give byte-identical
documents.  Exit codes: 0 success, 1 verification failure, 2 input error,
3 catalog or classifier miss.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import jsonio
from .errors import CatalogMissError, ClassifierUnavailableError, InvalidLevelError, KmforgeError
from .field import check_level
from .invariants import (
    extract_invariant_first,
    extract_invariant_second,
    invariants_equal_first,
    invariants_equal_second,
    realize_first,
    realize_second,
)
from .liealg import BUILTIN_NAMES, builtin_algebra
from .realforms import enumerate_involutions, enumerate_real_forms
from .standard import StandardAutomorphism, loop_map_order, standard_order
from .verify import SUITES

LEVEL_ENV = "KMFORGE_LEVEL"

# the flags of ``verify``; --q is passed to a suite as qs=(q,)
_VERIFY_FLAGS = {"algebra": str, "N": int, "bound": int, "seed": int, "trials": int, "q": int}


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _session_level(D=None):
    """The forced field level from KMFORGE_LEVEL, or None.  It must be a valid
    cyclotomic level (see ``field.check_level``) and a multiple of the exponent
    denominator D."""
    raw = os.environ.get(LEVEL_ENV)
    if raw is None:
        return None
    try:
        level = int(raw)
    except ValueError:
        raise _CliError(2, f"{LEVEL_ENV} must be an integer, got {raw!r}")
    try:
        check_level(level)
    except InvalidLevelError as exc:
        raise _CliError(2, f"{LEVEL_ENV}: {exc}")
    if D is not None and level % D:
        raise _CliError(2, f"{LEVEL_ENV}={level} must be a multiple of D={D}")
    return level


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_json(path):
    try:
        if path:
            with open(path) as fh:
                return json.load(fh)
        return json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        raise _CliError(2, f"cannot read JSON input: {exc}")


def _cmd_algebra(args):
    if args.action == "list":
        return {"algebras": list(BUILTIN_NAMES)}
    table = builtin_algebra(args.algebra)
    return jsonio.enc_table(table)


def _cmd_auto_realize(args):
    level = _session_level(args.D)
    if args.kind == "first":
        if args.q is None or args.p is None or not args.rho or not args.beta:
            raise _CliError(2, "first-kind realization needs --q --p --rho --beta")
        _sigma, phi = realize_first(args.algebra, args.p, args.rho, args.beta, args.q, D=args.D)
    elif args.kind == "second":
        if not args.plus or not args.minus:
            raise _CliError(2, "second-kind realization needs --plus --minus")
        _sigma, phi = realize_second(args.algebra, args.plus, args.minus, D=args.D)
    else:
        raise _CliError(2, f"unknown kind {args.kind!r}")
    return jsonio.enc_standard(phi, min_level=level)


def _cmd_auto_invariant(args):
    obj = _read_json(args.infile)
    phi = jsonio.dec_loop_map(obj)
    if not isinstance(phi, StandardAutomorphism):
        raise _CliError(2, "scaling-composed maps carry no classification invariant")
    level = _session_level(phi.source.D)
    if phi.epsilon == 1:
        inv = extract_invariant_first(phi, bound=args.bound)
    else:
        inv = extract_invariant_second(phi, bound=args.bound)
    return jsonio.enc_invariant(inv, min_level=level)


def _cmd_auto_order(args):
    obj = _read_json(args.infile)
    phi = jsonio.dec_loop_map(obj)
    if isinstance(phi, StandardAutomorphism):
        order = standard_order(phi, args.bound)
    else:
        inner = phi.maps[-1]
        order = loop_map_order(phi.apply, inner.source, args.bound)
    return {"order": order if order is not None else "unbounded", "bound": args.bound}


def _cmd_auto_equivalent(args):
    inv_a = jsonio.dec_invariant(_read_json(args.a))
    inv_b = jsonio.dec_invariant(_read_json(args.b))
    kinds = (type(inv_a).__name__, type(inv_b).__name__)
    if kinds[0] != kinds[1]:
        return {"equal": False, "reason": "different kinds"}
    if kinds[0] == "FirstKindInvariant":
        return {"equal": invariants_equal_first(inv_a, inv_b)}
    return {"equal": invariants_equal_second(inv_a, inv_b, bound=args.bound)}


def _cmd_classify(args):
    level = _session_level()
    if args.what == "involutions":
        kinds = [args.kind] if args.kind else ["1a", "1b", "2"]
        out = []
        for kind in kinds:
            for desc in enumerate_involutions(args.algebra, kind):
                out.append(jsonio.enc_involution_descriptor(desc, min_level=level))
        return out
    if args.what == "realforms":
        return [jsonio.enc_real_form(f, min_level=level)
                for f in enumerate_real_forms(args.algebra)]
    raise _CliError(2, f"unknown classification target {args.what!r}")


def _cmd_verify(args):
    fn = SUITES.get(args.suite)
    if fn is None:
        raise _CliError(2, f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    _session_level()
    if args.N is not None and args.N < 0:
        raise _CliError(2, "N must be >= 0")
    if args.bound is not None and args.bound < 1:
        raise _CliError(2, "bound must be >= 1")
    if args.trials is not None and args.trials < 0:
        raise _CliError(2, "trials must be >= 0")
    if args.q is not None and args.q < 1:
        raise _CliError(2, "q must be >= 1")
    # each suite's signature holds its defaults; only flags the user set are passed
    params = inspect.signature(fn).parameters
    kwargs = {}
    for flag in _VERIFY_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        name, value = ("qs", (value,)) if flag == "q" else (flag, value)
        if name not in params:
            raise _CliError(2, f"suite {args.suite!r} takes no --{flag}")
        kwargs[name] = value
    return fn(**kwargs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmforge",
        description="Exact twisted loop algebras and affine Kac-Moody classification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write JSON output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="built-in Lie algebra tables", parents=[common])
    p_alg.add_argument("action", choices=["list", "show"])
    p_alg.add_argument("--algebra", default="sl2C")

    p_auto = sub.add_parser("auto", help="automorphisms and their invariants")
    auto_sub = p_auto.add_subparsers(dest="auto_command", required=True)

    p_real = auto_sub.add_parser("realize", parents=[common],
                                 help="build a representative automorphism")
    p_real.add_argument("--algebra", default="sl2C")
    p_real.add_argument("--kind", choices=["first", "second"], required=True)
    p_real.add_argument("--q", type=int)
    p_real.add_argument("--p", type=int)
    p_real.add_argument("--rho")
    p_real.add_argument("--beta")
    p_real.add_argument("--plus")
    p_real.add_argument("--minus")
    p_real.add_argument("--D", type=int)

    p_inv = auto_sub.add_parser("invariant", parents=[common],
                                help="classification invariant of a map")
    p_inv.add_argument("--in", dest="infile")
    p_inv.add_argument("--bound", type=int, default=48)

    p_ord = auto_sub.add_parser("order", parents=[common],
                                help="order of a map up to a bound")
    p_ord.add_argument("--in", dest="infile")
    p_ord.add_argument("--bound", type=int, default=48)

    p_eq = auto_sub.add_parser("equivalent", parents=[common],
                               help="compare two invariants")
    p_eq.add_argument("--a", required=True)
    p_eq.add_argument("--b", required=True)
    p_eq.add_argument("--bound", type=int, default=48)

    p_cls = sub.add_parser("classify", help="catalog enumerations", parents=[common])
    p_cls.add_argument("what", choices=["involutions", "realforms"])
    p_cls.add_argument("--algebra", default="sl2C")
    p_cls.add_argument("--kind", choices=["1a", "1b", "2"])

    p_ver = sub.add_parser(
        "verify", help="run a verification suite", parents=[common],
        description="Each flag defaults to the suite's own value; a flag the suite "
                    "does not take exits 2.")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    for flag, kind in _VERIFY_FLAGS.items():
        p_ver.add_argument(f"--{flag}", type=kind)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "algebra":
            payload = _cmd_algebra(args)
        elif args.command == "auto":
            if args.auto_command != "realize" and args.bound < 1:
                raise _CliError(2, "bound must be >= 1")
            handler = {
                "realize": _cmd_auto_realize,
                "invariant": _cmd_auto_invariant,
                "order": _cmd_auto_order,
                "equivalent": _cmd_auto_equivalent,
            }[args.auto_command]
            payload = handler(args)
        elif args.command == "classify":
            payload = _cmd_classify(args)
        elif args.command == "verify":
            payload = _cmd_verify(args)
        else:
            raise _CliError(2, f"unknown command {args.command!r}")
    except _CliError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}}, args.out)
        return exc.code
    except (CatalogMissError, ClassifierUnavailableError) as exc:
        _emit({"error": {"code": 3, "type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 3
    except (KmforgeError, KeyError, ValueError, ZeroDivisionError) as exc:
        _emit({"error": {"code": 2, "type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 2
    except ArithmeticError as exc:  # an internal consistency check failed
        _emit({"error": {"code": 1, "type": type(exc).__name__, "message": str(exc)}}, args.out)
        return 1
    _emit(payload, args.out)
    if args.command == "verify" and not payload.get("ok", False):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
