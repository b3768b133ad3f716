"""Span tracer for the benchmark's traced run.

The tracer wraps every public function of the mouldkit layer modules and
rebinds the wrapper under every name that refers to the original in any
loaded ``mouldkit`` module, so calls across module boundaries (and calls a
module makes to its own public names) record a span.  The term kernels are
looked up as ``_sp.<name>`` at call time, so rebinding them on
``mouldkit._speed`` is enough.  Nothing in ``src/`` changes.

A span is (name, start, end, parent, units); ``units`` is a size taken from
the arguments for the few functions whose work is not one-per-call (matrix
cells, term pairs, the weight of a basis solve).  Spans stay in memory and
are written out once, at the end of the run.  A span's self time is its
length minus the time its direct children cover; the program is single
threaded, so children never overlap.
"""

import gzip
import importlib
import inspect
import sys
import time
from collections import Counter

LAYER_MODULES = ("_speed", "kernel", "ncword", "mould", "symmetry", "liealg", "bridge", "cli")
TERM_KERNELS = ("add_terms", "sub_terms", "scale_terms", "mul_terms", "concat_mul_terms")


def _cells(args):
    return args[0].rows * args[0].cols


def _pairs(args):
    return len(args[0]) * len(args[1])


def _weight(args):
    return args[0]


BASIS_SOLVERS = ("liealg.dmr_basis", "liealg.krv_basis")
SIZERS = {
    "kernel.nullspace": _cells,
    "kernel.solve_linear": _cells,
    "_speed.mul_terms": _pairs,
    "_speed.concat_mul_terms": _pairs,
    "liealg.dmr_basis": _weight,
    "liealg.krv_basis": _weight,
}

# The size metric a group reports besides calls and self_s.
SIZE_METRIC = {"kernel.nullspace": "cells", "kernel.solve_linear": "cells",
               "terms.mul": "pairs", "terms.concat_mul": "pairs"}

# Per-layer groups: metric prefix -> predicate on the span name.
_SENARY = {"senary_lhs", "senary_rhs", "senary_defect", "senary_holds",
           "senary_eq41_holds", "in_ari_sena_pusnu"}
_ALTERNILITY = {"alternality_defect", "is_alternal", "alternility_defect",
                "alternil_up_to_constant", "in_ari_al_star_il"}
_GRADED = {"weight_mould_basis", "ari_alil_space", "ari_sena_pusnu_space"}
# The dmr row build: each Lyndon bracket's flipped star regularization and
# the primitivity defect of its delta_star coproduct.
_ROW_BUILD = {"primitivity_defect", "delta_star", "star_regularize", "pi_Y"}


def _exact(full):
    return lambda name: name == full


def _in_module(module, names=None):
    def match(name):
        mod, _, fn = name.partition(".")
        return mod == module and (names is None or fn in names)
    return match


GROUPS = {
    "kernel.nullspace": _exact("kernel.nullspace"),
    "kernel.solve_linear": _exact("kernel.solve_linear"),
    "kernel.substitute": _exact("kernel.substitute"),
    "kernel.exact_div": _exact("kernel.exact_div"),
    "liealg.primitivity_defect": _in_module("liealg", _ROW_BUILD),
    "terms.mul": _exact("_speed.mul_terms"),
    "terms.concat_mul": _exact("_speed.concat_mul_terms"),
    "terms.add": _exact("_speed.add_terms"),
    "terms.sub": _exact("_speed.sub_terms"),
    "ncword.lyndon_basis": _exact("ncword.lyndon_basis"),
    "ncword.lie_bracket": _exact("ncword.lie_bracket"),
    "bridge.ma": _exact("bridge.ma"),
    "mould.ops": _in_module("mould"),
    "symmetry.senary": _in_module("symmetry", _SENARY),
    "symmetry.alternility": _in_module("symmetry", _ALTERNILITY),
    "symmetry.graded_space": _in_module("symmetry", _GRADED),
    "cli.report": _in_module("cli"),
}

# The per-layer metrics, in the order they are reported: (name, unit).
# trace.overhead_s is filled in by the parent, which alone sees the
# untraced runs.
PER_LAYER = [
    ("kernel.nullspace.calls", "count"),
    ("kernel.nullspace.cells", "count"),
    ("kernel.nullspace.self_s", "s"),
    ("kernel.solve_linear.calls", "count"),
    ("kernel.solve_linear.cells", "count"),
    ("kernel.solve_linear.self_s", "s"),
    ("liealg.primitivity_defect.self_s", "s"),
    ("liealg.basis_solves", "count"),
    ("liealg.basis_distinct", "count"),
    ("liealg.basis_useful_ratio", "ratio"),
    ("terms.mul.calls", "count"),
    ("terms.mul.pairs", "count"),
    ("terms.mul.self_s", "s"),
    ("terms.concat_mul.pairs", "count"),
    ("terms.concat_mul.self_s", "s"),
    ("terms.add.self_s", "s"),
    ("terms.sub.self_s", "s"),
    ("kernel.substitute.calls", "count"),
    ("kernel.substitute.self_s", "s"),
    ("kernel.exact_div.calls", "count"),
    ("kernel.exact_div.self_s", "s"),
    ("ncword.lyndon_basis.calls", "count"),
    ("ncword.lyndon_basis.self_s", "s"),
    ("ncword.lie_bracket.calls", "count"),
    ("ncword.lie_bracket.self_s", "s"),
    ("bridge.ma.calls", "count"),
    ("bridge.ma.self_s", "s"),
    ("mould.ops.calls", "count"),
    ("mould.ops.self_s", "s"),
    ("symmetry.senary.calls", "count"),
    ("symmetry.senary.self_s", "s"),
    ("symmetry.alternility.calls", "count"),
    ("symmetry.alternility.self_s", "s"),
    ("symmetry.graded_space.calls", "count"),
    ("symmetry.graded_space.self_s", "s"),
    ("cli.report.self_s", "s"),
    ("trace.overhead_s", "s"),
]


def _public_functions(layer, mod):
    if layer == "_speed":
        return {name: getattr(mod, name) for name in TERM_KERNELS}
    return {
        name: fn
        for name, fn in vars(mod).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and fn.__module__ == mod.__name__
        and not inspect.isgeneratorfunction(fn)
    }


class Tracer:
    """Records spans for the public functions of the mouldkit layers."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = [-1]

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sizer = SIZERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, sizer(args) if sizer else 0)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every public layer function to a traced wrapper."""
        wrappers = {}
        for layer in LAYER_MODULES:
            mod = importlib.import_module("mouldkit." + layer)
            for name, fn in _public_functions(layer, mod).items():
                wrappers[id(fn)] = (fn, self._wrap(layer + "." + name, fn))
        loaded = [m for k, m in sys.modules.items() if k.startswith("mouldkit")]
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def summary(self):
        """Per-layer metrics (all of PER_LAYER but trace.overhead_s)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, units, self_s = Counter(), Counter(), Counter()
        solved = set()
        for i, (nid, start, end, _, size) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += end - start - covered[i]
            if name in BASIS_SOLVERS:
                solved.add((name, size))
            else:
                units[name] += size
        out = {}
        for group, match in GROUPS.items():
            names = [name for name in calls if match(name)]
            out[group + ".calls"] = sum(calls[name] for name in names)
            out[group + ".self_s"] = sum(self_s[name] for name in names)
            if group in SIZE_METRIC:
                out[group + "." + SIZE_METRIC[group]] = sum(units[name] for name in names)
        solves = sum(calls[name] for name in BASIS_SOLVERS)
        out["liealg.basis_solves"] = solves
        out["liealg.basis_distinct"] = len(solved)
        out["liealg.basis_useful_ratio"] = len(solved) / solves if solves else 0.0
        wanted = {name for name, _ in PER_LAYER}
        return {k: v for k, v in out.items() if k in wanted}

    def write(self, path):
        """Write every span as a tab-separated line: name, start, end, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, start, end, parent, _ in self.spans:
                fh.write("%s\t%.7f\t%.7f\t%d\n" % (self.names[nid], start, end, parent))
