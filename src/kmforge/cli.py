"""Command-line front end.

Subcommands: ``algebra list|show``, ``auto invariant|realize|order|equivalent``,
``classify involutions|realforms``, ``verify <suite>``.  All output is JSON:
the bytes of ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline,
written by ``jsonio.dumps``; identical configuration and seed give
byte-identical documents.  Exit codes: 0 success, 1 verification failure,
2 input error, 3 catalog or classifier miss.  The parser is built on the
first ``main`` call and kept; it holds no state between calls, so the
``KMFORGE_LEVEL`` of each call is read when that call runs.
"""

from __future__ import annotations

import argparse
import functools
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
    invariants_equal,
    realize_first,
    realize_second,
)
from .liealg import BUILTIN_NAMES, ORDER_BOUND, builtin_algebra
from .realforms import enumerate_involutions, enumerate_real_forms
from .standard import StandardAutomorphism, loop_map_order, standard_order
from .verify import SUITES

LEVEL_ENV = "KMFORGE_LEVEL"

# the flags of ``verify``; --q is passed to a suite as qs=(q,)
_VERIFY_FLAGS = {"algebra": str, "N": int, "bound": int, "seed": int, "trials": int, "q": int}

# the least value of each numeric flag, on every subcommand that takes it
_LEAST = {"N": 0, "bound": 1, "trials": 0, "q": 1}


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _session_level():
    """The forced field level from KMFORGE_LEVEL, or None.  It must be a valid
    cyclotomic level (see ``field.check_level``)."""
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
    return level


def _check_multiple(level, D):
    """A forced level must be a multiple of the exponent denominator D; a D
    below 1 is left to the realization, which refuses it."""
    if level and D is not None and D >= 1 and level % D:
        raise _CliError(2, f"{LEVEL_ENV}={level} must be a multiple of D={D}")


def _emit(payload, out_path):
    text = jsonio.dumps(payload) + "\n"
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
    return jsonio.enc_table(builtin_algebra(args.algebra))


def _cmd_auto_realize(args):
    _check_multiple(args.level, args.D)
    if args.kind == "first":
        if args.q is None or args.p is None or not args.rho or not args.beta:
            raise _CliError(2, "first-kind realization needs --q --p --rho --beta")
        _sigma, phi = realize_first(args.algebra, args.p, args.rho, args.beta, args.q, D=args.D)
    else:
        if not args.plus or not args.minus:
            raise _CliError(2, "second-kind realization needs --plus --minus")
        _sigma, phi = realize_second(args.algebra, args.plus, args.minus, D=args.D)
    return jsonio.enc_standard(phi)


def _cmd_auto_invariant(args):
    phi = jsonio.dec_loop_map(_read_json(args.infile))
    if not isinstance(phi, StandardAutomorphism):
        raise _CliError(2, "scaling-composed maps carry no classification invariant")
    _check_multiple(args.level, phi.source.D)
    extract = extract_invariant_first if phi.epsilon == 1 else extract_invariant_second
    return jsonio.enc_invariant(extract(phi, bound=args.bound))


def _cmd_auto_order(args):
    phi = jsonio.dec_loop_map(_read_json(args.infile))
    if isinstance(phi, StandardAutomorphism):
        order = standard_order(phi, args.bound)
    else:
        order = loop_map_order(phi.apply, phi.source, args.bound)
    return {"order": order if order is not None else "unbounded", "bound": args.bound}


def _cmd_auto_equivalent(args):
    inv_a = jsonio.dec_invariant(_read_json(args.a))
    inv_b = jsonio.dec_invariant(_read_json(args.b))
    if type(inv_a) is not type(inv_b):
        return {"equal": False, "reason": "different kinds"}
    return {"equal": invariants_equal(inv_a, inv_b, bound=args.bound)}


def _cmd_classify(args):
    if args.what == "realforms":
        return [jsonio.enc_real_form(f) for f in enumerate_real_forms(args.algebra)]
    kinds = [args.kind] if args.kind else ["1a", "1b", "2"]
    return [jsonio.enc_involution_descriptor(desc)
            for kind in kinds for desc in enumerate_involutions(args.algebra, kind)]


def _cmd_verify(args):
    fn = SUITES[args.suite]
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


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmforge",
        description="Exact twisted loop algebras and affine Kac-Moody classification.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write JSON output to this file instead of stdout")
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--bound", type=int, default=ORDER_BOUND)
    sub = parser.add_subparsers(dest="command", required=True)

    p_alg = sub.add_parser("algebra", help="built-in Lie algebra tables", parents=[common])
    p_alg.add_argument("action", choices=["list", "show"])
    p_alg.add_argument("--algebra", default="sl2C")
    p_alg.set_defaults(run=_cmd_algebra)

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
    p_real.set_defaults(run=_cmd_auto_realize)

    p_inv = auto_sub.add_parser("invariant", parents=[bounded],
                                help="classification invariant of a map")
    p_inv.add_argument("--in", dest="infile")
    p_inv.set_defaults(run=_cmd_auto_invariant)

    p_ord = auto_sub.add_parser("order", parents=[bounded],
                                help="order of a map up to a bound")
    p_ord.add_argument("--in", dest="infile")
    p_ord.set_defaults(run=_cmd_auto_order)

    p_eq = auto_sub.add_parser("equivalent", parents=[bounded],
                               help="compare two invariants")
    p_eq.add_argument("--a", required=True)
    p_eq.add_argument("--b", required=True)
    p_eq.set_defaults(run=_cmd_auto_equivalent)

    p_cls = sub.add_parser("classify", help="catalog enumerations", parents=[common])
    p_cls.add_argument("what", choices=["involutions", "realforms"])
    p_cls.add_argument("--algebra", default="sl2C")
    p_cls.add_argument("--kind", choices=["1a", "1b", "2"])
    p_cls.set_defaults(run=_cmd_classify)

    p_ver = sub.add_parser(
        "verify", help="run a verification suite", parents=[common],
        description="Each flag defaults to the suite's own value; a flag the suite "
                    "does not take exits 2.")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    for flag, kind in _VERIFY_FLAGS.items():
        p_ver.add_argument(f"--{flag}", type=kind)
    p_ver.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag, least in _LEAST.items():
            value = getattr(args, flag, None)
            if value is not None and value < least:
                raise _CliError(2, f"{flag} must be >= {least}")
        args.level = _session_level()
        payload = args.run(args)
        if args.level:
            payload = jsonio.lift_scalars(payload, args.level)
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
    # only a verification report carries "ok"
    return 1 if isinstance(payload, dict) and payload.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
