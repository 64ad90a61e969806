"""Span recording around calls into odeident's layers, from outside `src/`.

`Tracer.install()` replaces each traced function by a wrapper in every
odeident namespace that bound it (a module that did `from .expr import
compile_program` holds its own reference, which is replaced too) and
restores the originals on `uninstall()`. Nothing is wrapped while no
tracer is installed.

Only stage-level functions are traced. The node constructors (`add`,
`mul`, `const`, ...) run once per DAG node built; a span each would
multiply the traced run's time and measure the tracer, not the program.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter

# span name -> (module, attribute path); a dotted path names a method
TRACED = {
    "expr.differentiate": ("odeident.expr", "differentiate"),
    "expr.substitute_many": ("odeident.expr", "substitute_many"),
    "expr.normalize": ("odeident.expr", "normalize"),
    "expr.compile_program": ("odeident.expr", "compile_program"),
    "expr.compile_float_fn": ("odeident.expr", "compile_float_fn"),
    "expr.run_mod": ("odeident.expr", "Program.run_mod"),
    "model.parse_model": ("odeident.model", "parse_model"),
    "model.output_jet": ("odeident.model", "output_jet"),
    "model.total_time_derivative": ("odeident.model", "total_time_derivative"),
    "ranktest.build_phi": ("odeident.ranktest", "build_phi"),
    "ranktest.build_phi_system": ("odeident.ranktest", "build_phi_system"),
    "ranktest.parameter_jacobian": ("odeident.ranktest", "parameter_jacobian"),
    "ranktest.substitute_dynamics": ("odeident.ranktest", "substitute_dynamics"),
    "ranktest.phi_vanishes_on_dynamics": ("odeident.ranktest",
                                          "phi_vanishes_on_dynamics"),
    "ranktest.generic_rank": ("odeident.ranktest", "generic_rank"),
    "ranktest.run_rank_test": ("odeident.ranktest", "run_rank_test"),
    "transform.eta_prime_value": ("odeident.transform", "eta_prime_value"),
    "transform.verify_identities": ("odeident.transform", "verify_identities"),
    "sim.integrate": ("odeident.sim", "integrate"),
    "sim.run_indistinguishability": ("odeident.sim", "run_indistinguishability"),
    "sim.tau_sweep": ("odeident.sim", "tau_sweep"),
    "sim.phi_residual_along": ("odeident.sim", "phi_residual_along"),
    "cli.main": ("odeident.cli", "main"),
}

# spans whose arguments and result are kept for the benchmark's own
# counters (node and instruction counts), computed after the traced cycle
KEEP_IO = {"expr.compile_program", "expr.compile_float_fn", "model.output_jet"}

# span tuple fields
NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """In-memory span recorder. A span is (name, start, end, parent index,
    operation id, exception type name or None); the parent index is -1 at
    the top."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.io: dict[int, tuple] = {}  # span index -> (args, result)
        self.counters: Counter = Counter()
        self.op_id = -1
        self.paused = False  # while set, wrapped calls record nothing
        self.op_kinds: dict[int, str] = {}  # operation id -> kind
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, io = self.spans, self._stack, self.io
        keep = name in KEEP_IO
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            stack.append(index)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id, error)
            if keep:
                io[index] = (args, result)
            return result

        return traced

    def install(self, extra: dict | None = None) -> None:
        """Wrap every traced function in every odeident namespace holding
        it. `extra` maps original objects to replacements bound the same
        way (the counting eta signal class)."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for name, (module, path) in TRACED.items():
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if outer:  # a method: the class is its only binding
                self._set(owner, attr, wrapper)
            else:
                replacements[id(original)] = (original, wrapper)
        for original, replacement in (extra or {}).items():
            replacements[id(original)] = (original, replacement)
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "odeident" or key.startswith("odeident.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])

    def _set(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading spans --------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "error": s[ERROR]}) + "\n")


def outermost(spans: list, names) -> list[tuple]:
    """Spans named in `names` with no ancestor also named in `names`, so
    nested and recursive calls are not counted twice."""
    names = set(names)
    out = []
    for s in spans:
        if s[NAME] not in names:
            continue
        parent = s[PARENT]
        while parent != -1 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent == -1:
            out.append(s)
    return out


def busy_s(spans: list, names) -> float:
    """Wall time covered by the outermost spans of `names`."""
    return sum(s[END] - s[START] for s in outermost(spans, names))


def self_s(spans: list, name: str) -> float:
    """Duration of the spans called `name` minus the part of each that
    its child spans cover (children of one call never overlap: the load
    is one thread)."""
    child_time = Counter()
    for s in spans:
        if s[PARENT] != -1:
            child_time[s[PARENT]] += s[END] - s[START]
    return sum(s[END] - s[START] - child_time[i]
               for i, s in enumerate(spans)
               if s[NAME] == name)
