"""Per-layer tracing of one dgkit CLI job, done from outside the program.

`Tracer.install()` wraps the public functions of every dgkit layer.  dgkit
modules import `kernel_of`, `invert`, `cohomology`, ... by name, so a
module-level function is replaced in every loaded `dgkit.*` module that holds
the original object, not only in the module that defines it; methods are
replaced on their class.  Install it only in a process that is thrown away
afterwards (the benchmark's forked job child): nothing is ever unwrapped.

Each wrapped call records a span (id, parent id, layer, start, end) in
memory.  A call into a layer from inside the same layer (kernel_of calling
nullspace_and_image) stays part of the outer span.  A layer's self time is
the time of its spans minus the time of their child spans.  Work the tracer
does for its own counters runs in spans of the pseudo-layer "trace", so it
is not charged to the layer that called the wrapped function.  Scalar
arithmetic is only counted: a span per field operation would cost more than
the operation.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# layer -> "module:attribute" of every public function it covers
LAYERS = {
    "linalg.rref": ["dgkit.linalg:Matrix.rref"],
    "linalg.kernel_image": ["dgkit.linalg:nullspace_and_image", "dgkit.linalg:kernel_of",
                            "dgkit.linalg:image_of"],
    "linalg.intersect": ["dgkit.linalg:Subspace.intersect"],
    "linalg.subspace": ["dgkit.linalg:Subspace.from_vectors", "dgkit.linalg:Subspace.add",
                        "dgkit.linalg:Subspace.contains",
                        "dgkit.linalg:Subspace.contains_subspace"],
    "linalg.solve": ["dgkit.linalg:linear_solve", "dgkit.linalg:solve_batch",
                     "dgkit.linalg:coordinates_in_basis", "dgkit.linalg:invert"],
    "linalg.matmul": ["dgkit.linalg:Matrix.__mul__", "dgkit.linalg:Matrix.__add__",
                      "dgkit.linalg:Matrix.scale"],
    "linalg.apply": ["dgkit.linalg:Matrix.apply"],
    "graded.mul": ["dgkit.graded:StructuredAlgebra.mul"],
    "graded.bracket": ["dgkit.graded:StructuredAlgebra.bracket"],
    "graded.map": ["dgkit.graded:GradedMap.compose", "dgkit.graded:GradedMap.add",
                   "dgkit.graded:GradedMap.scale", "dgkit.graded:GradedMap.apply"],
    "graded.cohomology": ["dgkit.graded:cohomology",
                          "dgkit.graded:CohomologyPresentation.induced_structure",
                          "dgkit.graded:CohomologyPresentation.check_well_defined",
                          "dgkit.graded:induced_map_on_cohomology"],
    "graded.validate": ["dgkit.graded:StructuredAlgebra.validate_dg_algebra",
                        "dgkit.graded:StructuredAlgebra.validate_dgla"],
    "ddbar.strong_lemma": ["dgkit.ddbar:ddbar_condition_check", "dgkit.ddbar:strong_lemma_check",
                           "dgkit.ddbar:is_ddbar_algebra"],
    "ddbar.formality": ["dgkit.ddbar:formality_zigzag"],
    "ddbar.induced": ["dgkit.ddbar:induced_differential_triviality"],
    "ddbar.twist": ["dgkit.ddbar:sum_twist"],
    "sl2.integer_spectrum": ["dgkit.sl2:integer_spectrum"],
    "sl2.weight_decomposition": ["dgkit.sl2:weight_decomposition"],
    "sl2.low_weight_ideal": ["dgkit.sl2:low_weight_ideal"],
    "sl2.plus_quotient": ["dgkit.sl2:plus_quotient"],
    "qdolbeault.autoduality": ["dgkit.qdolbeault:autoduality_check"],
    "qdolbeault.build": ["dgkit.qdolbeault:build_quaternionic_complex"],
    "qdolbeault.factorization": ["dgkit.qdolbeault:quaternionic_cohomology_check"],
    "qdolbeault.spectral": ["dgkit.qdolbeault:double_complex_spectral_sequence"],
    "qdolbeault.phi": ["dgkit.qdolbeault:phi_isomorphism"],
    "qdolbeault.extended": ["dgkit.qdolbeault:extended_strong_lemma_interior"],
    "deform.qa_mc_split": ["dgkit.deform:qa_mc_split"],
    "deform.mc_check": ["dgkit.deform:DeformationContext.mc_check"],
    "deform.gauge_transform": ["dgkit.deform:DeformationContext.gauge_transform"],
    "deform.bracket_series": ["dgkit.deform:DeformationContext.bracket_series"],
    "deform.correspondence": ["dgkit.deform:connection_correspondence"],
    "deform.first_order": ["dgkit.deform:first_order_dictionary"],
    "deform.tangent": ["dgkit.deform:tangent_and_obstruction"],
    "modelfile.parse": ["dgkit.modelfile:parse_model_file", "dgkit.modelfile:parse_model"],
}

# counter -> Scalar methods whose calls it counts.  Scalar.inverse is
# `ONE / x`, so inverses are counted through __truediv__, once each.
SCALAR_COUNTERS = {
    "scalars.mul.calls": ["__mul__"],
    "scalars.add.calls": ["__add__", "__sub__", "__neg__"],
    "scalars.div.calls": ["__truediv__"],
}

ROOT = "cli"
TRACE = "trace"


def _entry_bits(scalar) -> int:
    return max(scalar.re.numerator.bit_length(), scalar.re.denominator.bit_length(),
               scalar.im.numerator.bit_length(), scalar.im.denominator.bit_length())


def dgkit_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "dgkit" or n.startswith("dgkit."))]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (span id, parent id or -1, layer, start, end)
        self._stack: list = []  # (span id, layer) of the open spans
        self.counts: Counter = Counter()
        self.bits_max = 0
        self._rref_inputs: set = set()
        self.wrappers: dict = {}  # "module:attribute" -> (original, wrapper)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, layer: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, layer, start, end)
            if observe is not None:
                observe(args, result)
                spans.append((len(spans), parent, TRACE, end, clock()))
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_rref(self, args, result):
        m = args[0]
        self.counts["linalg.rref.cells"] += m.rows * m.cols
        self.counts["linalg.rref.nonzeros"] += sum(
            1 for row in m.data for e in row if not e.is_zero())
        self._rref_inputs.add((m.rows, m.cols, tuple(tuple(row) for row in m.data)))
        for row in result[0].data:
            for e in row:
                b = _entry_bits(e)
                if b > self.bits_max:
                    self.bits_max = b

    def _observe_parse_file(self, args, result):
        self.counts["modelfile.bytes"] += os.path.getsize(args[0])

    def _observe_parse_text(self, args, result):
        self.counts["modelfile.bytes"] += len(args[0].encode())

    def install(self):
        """Wrap every layer function and Scalar operation in this process."""
        importlib.import_module("dgkit.cli")
        modules = dgkit_modules()
        observers = {"dgkit.linalg:Matrix.rref": self._observe_rref,
                     "dgkit.modelfile:parse_model_file": self._observe_parse_file,
                     "dgkit.modelfile:parse_model": self._observe_parse_text}
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                mod = importlib.import_module(mod_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(mod, cls_name)
                    raw = owner.__dict__[meth]
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    wrapper = self._wrap(layer, fn, observers.get(target))
                    setattr(owner, meth, staticmethod(wrapper) if is_static else wrapper)
                else:
                    fn = getattr(mod, attr)
                    wrapper = self._wrap(layer, fn, observers.get(target))
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, name, wrapper)
                self.wrappers[target] = (fn, wrapper)
        from dgkit.scalars import Scalar
        for key, methods in SCALAR_COUNTERS.items():
            for meth in methods:
                setattr(Scalar, meth, self._count(key, Scalar.__dict__[meth]))

    def run_root(self, fn, *args):
        """Call fn inside the job's root span, which the "cli" layer owns."""
        return self._wrap(ROOT, fn)(*args)

    # -- results -------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls and self time, the counters, and the root span."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        root_s = 0.0
        for _, parent, layer, start, end in self.spans:
            calls[layer] += 1
            self_s[layer] += end - start
            if parent >= 0:
                self_s[self.spans[parent][2]] -= end - start
            else:
                root_s += end - start
        counts = dict(self.counts)
        counts["linalg.rref.distinct"] = len(self._rref_inputs)
        counts["linalg.rref.bits.max"] = self.bits_max
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": counts,
                "root_s": root_s, "spans": len(self.spans)}
