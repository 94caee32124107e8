"""Layer tracer: spans and counts at the kmforge module boundaries.

The tracer wraps the functions listed in ``LAYER_POINTS`` from outside the
package; nothing under ``src/kmforge`` is edited.  A function is bound in
every module that imported it by name (``from .standard import apply`` in
``verify``, ``realforms`` and ``affine``, for example), so installing a wrapper
replaces the original at every binding site: each ``kmforge`` module's
globals, module-level dicts such as ``verify.SUITES``, and every class
attribute that holds it (``__mul__`` and ``__rmul__`` are one function).
``check_against_profile`` proves that no call site was missed, by comparing
the span counts with cProfile's ``ncalls`` for the same code objects.

A span is one call of a wrapped function.  Its self time is its duration
minus the durations of the wrapped calls made inside it.  A pass makes
millions of spans, so they are folded into per-name totals as they close
instead of being kept one by one.
"""

from __future__ import annotations

import importlib
import sys
import time

# name -> (module, attribute paths, or a prefix naming every function that
# starts with it).  "Class.method" names a method; every attribute of the
# class that holds the same function is wrapped with it.
LAYER_POINTS = {
    "field.mul": ("field", ["CyclotomicNumber.__mul__"]),
    "field.add": ("field", ["CyclotomicNumber.__add__"]),
    "field.inverse": ("field", ["CyclotomicNumber.inverse"]),
    "field.new": ("field", ["CyclotomicNumber.__init__"]),
    "field.lift": ("field", ["CyclotomicNumber.lift"]),
    "linalg.rref": ("linalg", ["rref"]),
    "linalg.solve": ("linalg", ["solve"]),
    "linalg.in_span": ("linalg", ["in_span"]),
    "linalg.mat_vec": ("linalg", ["mat_vec"]),
    "linalg.mat_mul": ("linalg", ["mat_mul"]),
    "linalg.invert": ("linalg", ["invert"]),
    "liealg.bracket": ("liealg", ["bracket"]),
    "liealg.auto_apply": ("liealg", ["FiniteAutomorphism.apply"]),
    "liealg.auto_compose": ("liealg", ["FiniteAutomorphism.compose"]),
    "liealg.auto_inverse": ("liealg", ["FiniteAutomorphism.inverse"]),
    "liealg.exp_ad": ("liealg", ["exp_ad"]),
    "loop.loop_bracket": ("loop", ["loop_bracket"]),
    "loop.validate": ("loop", ["validate"]),
    "loop.cocycle": ("loop", ["cocycle"]),
    "loop.eq": ("loop", ["LoopElement.__eq__"]),
    "affine.affine_bracket": ("affine", ["affine_bracket"]),
    "affine.hat_order": ("affine", ["hat_order"]),
    "standard.apply": ("standard", ["apply"]),
    "standard.compose": ("standard", ["compose"]),
    "standard.standard_order": ("standard", ["standard_order"]),
    "standard.loop_map_order": ("standard", ["loop_map_order"]),
    "invariants.realize": ("invariants", ["realize_first", "realize_second"]),
    "invariants.extract": ("invariants",
                           ["extract_invariant_first", "extract_invariant_second"]),
    "catalog.build": ("catalog", ["Catalog.__init__"]),
    "realforms.coordinates_in_slice": ("realforms", ["_coordinates_in_slice"]),
    "realforms.fixed_point_basis": ("realforms", ["fixed_point_basis"]),
    "realforms.verify_cartan": ("realforms", ["verify_cartan"]),
    "realforms.cartan_decomposition": ("realforms", ["cartan_decomposition"]),
    "jsonio.encode": ("jsonio", "enc_"),
    "jsonio.decode": ("jsonio", "dec_"),
    "cli.main": ("cli", ["main"]),
    "verify.suite": ("verify", ["verify_jacobi", "verify_cocycle", "verify_roundtrip",
                                "verify_realforms", "verify_cartan", "verify_hat"]),
}


def _resolve(name):
    """Original functions of one layer point."""
    modname, paths = LAYER_POINTS[name]
    mod = importlib.import_module(f"kmforge.{modname}")
    if isinstance(paths, str):  # every public function with this prefix
        return [v for k, v in vars(mod).items()
                if k.startswith(paths) and callable(v) and v.__module__ == mod.__name__]
    out = []
    for path in paths:
        obj = mod
        for part in path.split("."):
            obj = vars(obj)[part]
        out.append(obj)
    return out


class _Stat:
    # extra: same-level lifts for field.lift, products above level 4 for field.mul
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    """Installs span-recording wrappers; ``stats`` holds per-name totals."""

    def __init__(self):
        self.stats = {name: _Stat() for name in LAYER_POINTS}
        self.max_rref_cells = 0
        self._stack = [0.0]
        self._patches = []  # (dict or class, key, original value)
        self._originals = {name: _resolve(name) for name in LAYER_POINTS}

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if name == "field.lift":
            def before(args):
                if args[1] == args[0].level:
                    stat.extra += 1
        elif name == "linalg.rref":
            def before(args):
                m = args[0]
                cells = len(m) * len(m[0]) if m else 0
                if cells > tracer.max_rref_cells:
                    tracer.max_rref_cells = cells
        else:
            before = None

        if name == "field.mul":
            def after(result):
                if getattr(result, "level", 4) > 4:
                    stat.extra += 1
        else:
            after = None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat.calls += 1
                stat.self_s += dur - child
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self):
        replace = {}
        for name, fns in self._originals.items():
            for fn in fns:
                replace[id(fn)] = (fn, self._wrap(name, fn))
        for mod in [m for k, m in sys.modules.items()
                    if k == "kmforge" or k.startswith("kmforge.")]:
            for holder in self._holders(vars(mod)):
                items = vars(holder).items() if isinstance(holder, type) else holder.items()
                for key, value in list(items):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(holder, key, hit[1])

    def _holders(self, namespace):
        """The module dict, its module-level dicts, and its classes' dicts."""
        yield namespace
        for value in list(namespace.values()):
            if isinstance(value, dict):
                yield value
            elif isinstance(value, type) and value.__module__.startswith("kmforge"):
                yield value

    def _patch(self, holder, key, new):
        if isinstance(holder, type):
            old = vars(holder)[key]
            setattr(holder, key, new)
            self._patches.append((holder, key, old))
        else:
            self._patches.append((holder, key, holder[key]))
            holder[key] = new

    def uninstall(self):
        for holder, key, old in reversed(self._patches):
            if isinstance(holder, type):
                setattr(holder, key, old)
            else:
                holder[key] = old
        self._patches = []

    # -- results -------------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat.calls = 0
            stat.self_s = 0.0
            stat.extra = 0
        self.max_rref_cells = 0

    def snapshot(self):
        """Per-name calls and self time, plus the derived counts and ratios."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
        lift, mul = self.stats["field.lift"], self.stats["field.mul"]
        out["field.lift.noop_ratio"] = lift.extra / lift.calls if lift.calls else 0.0
        out["field.level_gt4_ratio"] = mul.extra / mul.calls if mul.calls else 0.0
        out["linalg.rref.max_cells"] = self.max_rref_cells
        decomps = self.stats["realforms.cartan_decomposition"].calls
        checks = self.stats["realforms.verify_cartan"].calls
        out["realforms.verify_cartan.per_form"] = checks / decomps if decomps else 0.0
        return out

    def code_keys(self):
        """name -> pstats keys (file, first line, function) of its originals."""
        return {name: [(f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name)
                       for f in fns]
                for name, fns in self._originals.items()}


def check_against_profile(tracer, counts, profile_stats):
    """Mismatches between traced counts and cProfile ncalls, by name.

    ``profile_stats`` is ``pstats.Stats(...).stats``: key -> (cc, nc, tt, ct,
    callers), where nc counts every call, recursive ones included.
    """
    mismatches = {}
    for name, keys in tracer.code_keys().items():
        ncalls = sum(profile_stats[k][1] for k in keys if k in profile_stats)
        if ncalls != counts[f"{name}.calls"]:
            mismatches[name] = {"traced": counts[f"{name}.calls"], "cprofile": ncalls}
    return mismatches
