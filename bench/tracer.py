"""Out-of-program tracing for the benchmark's traced run.

`Tracer.install()` wraps every public function and public method of the
syzkit layer modules and rebinds every name that refers to them in every
loaded `syzkit` module, including names imported with `from .x import f`.
Each call records a span (name, start, end, parent span, command id) in
flat in-memory arrays; `save()` writes them once, at the end of the run.
A few calls also feed counters (products, cells, repeated keys) through
hooks that read only the call's arguments and result.

`Tracer.metrics()` gives the per-layer metrics the benchmark reports.
A layer's self time is its spans' time minus the time of their child
spans.  Times include the wrappers' own cost; the run reports that
overhead against an untraced run of the same commands.
"""

import array
import functools
import importlib
import inspect
import sys
import time
import weakref

import numpy as np

LAYERS = ("rings", "linalg", "freemod", "modules", "resolutions", "chainsolve",
          "homological", "complexes", "construction", "io")

# metric stem -> span names it covers.  "<stem>.s" is the time of the
# outermost of these spans (a span nested in another of the same group is
# not counted twice), "<stem>.calls" counts them all.
GROUPS = {
    "linalg.matmul": ["linalg.matmul"],
    "linalg.rref": ["linalg.rref"],
    "linalg.kernel_basis": ["linalg.kernel_basis"],
    "linalg.extend_basis": ["linalg.extend_basis"],
    "linalg.quotient_projection": ["linalg.quotient_projection"],
    "rings.ideal_component": ["rings.TruncatedQuotientRing.ideal_component"],
    "rings.mult_map": ["rings.TruncatedQuotientRing.mult_map"],
    "freemod.induced": ["freemod.FreeMap.induced"],
    "freemod.free_mult_matrix": ["freemod.free_mult_matrix"],
    "freemod.compose": ["freemod.FreeMap.compose"],
    "modules.action_matrix": ["modules.GradedModule.action_matrix"],
    "modules.minimal_generators": ["modules.GradedModule.minimal_generators"],
    "resolutions.resolve": ["resolutions.resolve"],
    "resolutions.depth": ["resolutions.depth"],
    "resolutions.detect_periodicity": ["resolutions.detect_resolution_periodicity"],
    "chainsolve.solve_chain_self_maps": ["chainsolve.solve_chain_self_maps"],
    "chainsolve.find_tail_isomorphism": ["chainsolve.find_tail_isomorphism"],
    "homological.tor": ["homological.tor"],
    "homological.ext_basis": ["homological.ext_basis"],
    "homological.pushout_extension": ["homological.pushout_extension"],
    "complexes.tensor": ["complexes.tensor_pair", "complexes.tensor_many"],
    "complexes.cone": ["complexes.cone"],
    "construction.detect_complex_periodicity": ["construction.detect_complex_periodicity"],
    "construction.build_e_sequence": ["construction.build_e_sequence"],
    "verify": ["resolutions.FreeResolution.verify_complex",
               "resolutions.FreeResolution.is_minimal",
               "complexes.FreeComplex.verify", "complexes.ChainMap.verify",
               "modules.verify_ses"],
    "io.read": ["io.read_ring_file", "io.read_module_file", "io.read_complex_file"],
}

# (metric name, unit, better); "s" and "calls" metrics come from GROUPS,
# "self_s" from the layer's spans, the rest from hook counters.
PER_LAYER = [
    ("linalg.self_s", "s", "lower"),
    ("linalg.matmul.s", "s", "lower"),
    ("linalg.matmul.calls", "count", "lower"),
    ("linalg.matmul.macs", "count", "lower"),
    ("linalg.bytes_computed", "bytes", "lower"),
    ("linalg.rref.s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("linalg.kernel_basis.s", "s", "lower"),
    ("linalg.extend_basis.s", "s", "lower"),
    ("linalg.quotient_projection.s", "s", "lower"),
    ("rings.self_s", "s", "lower"),
    ("rings.ideal_component.calls", "count", "lower"),
    ("rings.mult_map.calls", "count", "lower"),
    ("rings.mult_map.repeat_frac", "frac", "lower"),
    ("freemod.self_s", "s", "lower"),
    ("freemod.induced.s", "s", "lower"),
    ("freemod.induced.calls", "count", "lower"),
    ("freemod.induced.repeat_frac", "frac", "lower"),
    ("freemod.free_mult_matrix.s", "s", "lower"),
    ("freemod.free_mult_matrix.calls", "count", "lower"),
    ("freemod.compose.calls", "count", "lower"),
    ("modules.self_s", "s", "lower"),
    ("modules.action_matrix.calls", "count", "lower"),
    ("modules.minimal_generators.s", "s", "lower"),
    ("resolutions.resolve.s", "s", "lower"),
    ("resolutions.resolve.calls", "count", "lower"),
    ("resolutions.resolve.repeat_frac", "frac", "lower"),
    ("resolutions.depth.calls", "count", "lower"),
    ("resolutions.detect_periodicity.s", "s", "lower"),
    ("chainsolve.solve_chain_self_maps.s", "s", "lower"),
    ("chainsolve.solve_chain_self_maps.calls", "count", "lower"),
    ("chainsolve.solve_chain_self_maps.unknowns", "count", "lower"),
    ("chainsolve.find_tail_isomorphism.found_frac", "frac", "higher"),
    ("homological.tor.s", "s", "lower"),
    ("homological.ext_basis.s", "s", "lower"),
    ("homological.pushout_extension.calls", "count", "lower"),
    ("homological.pushout_extension.ok_frac", "frac", "higher"),
    ("complexes.tensor.s", "s", "lower"),
    ("complexes.cone.s", "s", "lower"),
    ("construction.detect_complex_periodicity.s", "s", "lower"),
    ("construction.build_e_sequence.s", "s", "lower"),
    ("verify.s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("io.read_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# linalg functions that compute on matrices; `linalg.bytes_computed` adds
# the bytes of their array operands and results (outermost calls only).
KERNELS = ("matmul", "matvec", "rref", "rank", "kernel_basis", "solve", "solve_many",
           "coset_complement", "quotient_projection", "extend_basis")

# hook counters: name -> (numerator counter, denominator counter)
FRACTIONS = {
    "rings.mult_map.repeat_frac": ("rings.mult_map.repeats", "rings.mult_map.calls"),
    "freemod.induced.repeat_frac": ("freemod.induced.repeats", "freemod.induced.calls"),
    "resolutions.resolve.repeat_frac": ("resolutions.resolve.repeats",
                                        "resolutions.resolve.calls"),
    "chainsolve.find_tail_isomorphism.found_frac": ("chainsolve.find_tail_isomorphism.found",
                                                    "chainsolve.find_tail_isomorphism.calls"),
    "homological.pushout_extension.ok_frac": ("homological.pushout_extension.ok",
                                              "homological.pushout_extension.calls"),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _nbytes(values):
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, (tuple, list)):
            total += sum(x.nbytes for x in v if isinstance(x, np.ndarray))
    return total


def _seen_before(tracer, kind, owner, key):
    keys = tracer.seen.setdefault(kind, weakref.WeakKeyDictionary()).setdefault(owner, set())
    if key in keys:
        return True
    keys.add(key)
    return False


def _matmul(tracer, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    tracer.count("linalg.matmul.macs", a.shape[0] * a.shape[1] * b.shape[1])


def _rref(tracer, args, kwargs, result):
    rows, cols = np.shape(_arg(args, kwargs, 0, "mat"))
    tracer.count("linalg.rref.cells", rows * cols)


def _mult_map(tracer, args, kwargs, result):
    key = (_arg(args, kwargs, 1, "e"), _arg(args, kwargs, 2, "j"), _arg(args, kwargs, 3, "a"))
    tracer.count("rings.mult_map.repeats", _seen_before(tracer, "mult_map", args[0], key))


def _induced(tracer, args, kwargs, result):
    d = _arg(args, kwargs, 1, "d")
    tracer.count("freemod.induced.repeats", _seen_before(tracer, "induced", args[0], d))


def _resolve(tracer, args, kwargs, result):
    module, n_max = _arg(args, kwargs, 0, "module"), _arg(args, kwargs, 1, "n_max")
    best = tracer.seen.setdefault("resolve", weakref.WeakKeyDictionary())
    tracer.count("resolutions.resolve.repeats", best.get(module, -1) >= n_max)
    best[module] = max(best.get(module, -1), n_max)


def _chain_self_maps(tracer, args, kwargs, result):
    tracer.count("chainsolve.solve_chain_self_maps.unknowns", result[0].total)


def _tail_iso(tracer, args, kwargs, result):
    tracer.count("chainsolve.find_tail_isomorphism.found", result is not None)


def _pushout(tracer, args, kwargs, result):
    tracer.count("homological.pushout_extension.ok", bool(result.ses_ok))


HOOKS = {
    "linalg.matmul": _matmul,
    "linalg.rref": _rref,
    "rings.TruncatedQuotientRing.mult_map": _mult_map,
    "freemod.FreeMap.induced": _induced,
    "resolutions.resolve": _resolve,
    "chainsolve.solve_chain_self_maps": _chain_self_maps,
    "chainsolve.find_tail_isomorphism": _tail_iso,
    "homological.pushout_extension": _pushout,
}


# Cheap accessors: timed and counted like every other call, but their spans
# are not stored, which keeps the span file small.
ACCESSORS = frozenset({
    "rings.PolyRing.dim", "rings.PolyRing.monomial_basis", "rings.PolyRing.monomial_index",
    "rings.TruncatedQuotientRing.dim", "rings.TruncatedQuotientRing.basis_monomials",
    "rings.TruncatedQuotientRing.nf_matrix", "rings.TruncatedQuotientRing.mult_map",
    "linalg.dtype_for", "linalg.zeros", "linalg.identity",
    "freemod.component_dim", "freemod.component_dims", "freemod.component_offsets",
    "modules.GradedModule.proj", "modules.GradedModule.include",
    "complexes.FreeComplex.gen_degrees", "complexes.FreeComplex.diff",
    "complexes.ChainMap.component",
})


class Tracer:
    """Span recorder.  Aggregates (calls, self time per layer, outermost
    time per group) are kept exactly, online; span records are kept for
    every call except the ACCESSORS."""

    def __init__(self):
        self.names = []
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.command = array.array("i")
        self.calls = []                         # per span name
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.group_time = dict.fromkeys(GROUPS, 0.0)
        self._group_depth = dict.fromkeys(list(GROUPS) + ["linalg.kernels"], 0)
        self.counters = {}
        self.seen = {}
        self._stack = [[0.0, -1]]               # per active call: [child time, stored parent]
        self._current = -1

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def begin_command(self, command_index):
        """Spans recorded from now on belong to this command; repeat
        counters start afresh, since no state survives between commands."""
        self._current = command_index
        self.seen = {}

    def install(self, package="syzkit"):
        """Wrap the layers' public functions and methods."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        missing = sorted({s for spans in GROUPS.values() for s in spans} - set(self.names))
        if missing:
            raise RuntimeError(f"traced spans not found in {package}: {', '.join(missing)}")

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, attr, type(obj)(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self._wrap(name, obj))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        layer = name.split(".", 1)[0]
        groups = [g for g, members in GROUPS.items() if name in members]
        if name.startswith("linalg.") and name.split(".", 1)[1] in KERNELS:
            groups.append("linalg.kernels")
        groups = tuple(groups)
        store = name not in ACCESSORS
        hook = HOOKS.get(name)
        clock = time.perf_counter
        stack, calls = self._stack, self.calls
        layer_self, depth = self.layer_self, self._group_depth

        def wrapper(*args, **kwargs):
            up = stack[-1]
            if store:
                idx = len(self.start)
                self.name_id.append(nid)
                self.parent.append(up[1])
                self.command.append(self._current)
                self.start.append(0.0)
                self.end.append(0.0)
                frame = [0.0, idx]
            else:
                frame = [0.0, up[1]]
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                up[0] += dur
                layer_self[layer] += dur - frame[0]
                calls[nid] += 1
                if store:
                    self.start[idx] = t0
                    self.end[idx] = t1
                if groups:
                    kernel_outermost = self._leave(groups, dur)
            if hook is not None:
                hook(self, args, kwargs, result)
            if groups and kernel_outermost:
                self.count("linalg.bytes_computed", _nbytes(args) + _nbytes([result]))
            return result

        return functools.update_wrapper(wrapper, fn)

    def _leave(self, groups, dur):
        """Close a call in `groups`; True if it was an outermost kernel call."""
        kernel_outermost = False
        for g in groups:
            self._group_depth[g] -= 1
            if not self._group_depth[g]:
                if g == "linalg.kernels":
                    kernel_outermost = True
                else:
                    self.group_time[g] += dur
        return kernel_outermost

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 command=np.frombuffer(self.command, dtype=np.int32))

    def metrics(self):
        """Per-layer metrics, all but the tracing overhead."""
        out = {f"{layer}.self_s": self.layer_self[layer]
               for layer in ("linalg", "rings", "freemod", "modules")}
        counts = dict(self.counters)
        calls = dict(zip(self.names, self.calls))
        for stem, members in GROUPS.items():
            counts[f"{stem}.calls"] = sum(calls[m] for m in members)
            out[f"{stem}.calls"] = counts[f"{stem}.calls"]
            out["io.read_s" if stem == "io.read" else f"{stem}.s"] = self.group_time[stem]
        for metric, (num, den) in FRACTIONS.items():
            out[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
        for metric, _, _ in PER_LAYER:
            if metric not in out and metric in counts:
                out[metric] = counts[metric]
        return {m: out.get(m, 0) for m, _, _ in PER_LAYER if m != "trace.overhead_frac"}
