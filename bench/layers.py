"""Layer tracing from outside the package.

Tracer.installed() replaces public functions on the package's module
objects with timing wrappers and puts the originals back on exit. The
package calls across modules through module attributes (`poly.stieltjes`,
`sf.spectral_factorize`, ...) and within a module through its globals,
which are the same dictionary, so the wrappers see every boundary
without any change to the package.

Spans are kept in memory as tuples and turned into per-layer numbers
once at the end: a span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = {
    "specio": ("parse_measure_spec", "build_measure", "spec_hash"),
    "measure": ("make_measure", "szego_weight"),
    "outer": ("spectral_factorize", "boundary_logdet_mean", "s_function"),
    "blaschke": ("construct_product", "residue_kernel"),
    "polynomials": (
        "stieltjes",
        "orthonormality_defect",
        "recurrence_residual",
        "to_type",
        "apply_transform",
        "eval_scaled_many",
    ),
    "limits": ("build_pipeline", "verify_pointwise", "verify_l2", "h_diagnostic"),
    "sumrule": ("check_sum_rule", "z_quantity", "weight_logdet_mean"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Functions whose repeated calls within one job are counted as duplicate
# work, and the part of their arguments that identifies the input.
DUP_TRACKED = ("outer.spectral_factorize", "measure.szego_weight",
               "blaschke.residue_kernel", "polynomials.stieltjes")

COUNTERS = ("outer.sweeps", "outer.wilson_calls", "polynomials.stieltjes.blocks",
            "measure.szego_weight.refine2_calls")


def _digest(a: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).digest()


def _input_key(name: str, args: tuple, kwargs: dict):
    """Identity of the input a tracked call works on (the objects are kept alive)."""
    if name == "outer.spectral_factorize":
        order = args[1] if len(args) > 1 else kwargs.get("order")
        return (_digest(args[0].values), order)
    if name == "measure.szego_weight":
        refine = args[1] if len(args) > 1 else kwargs.get("refine", 1)
        return (id(args[0]), refine)
    if name == "blaschke.residue_kernel":
        fn = args[0]
        return (id(getattr(fn, "__self__", fn)), complex(args[1]))
    return (id(args[0]),)  # polynomials.stieltjes: any second run on a measure


class Tracer:
    """Collects spans (job, name, parent, start, end) and call counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, float, float]] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._job = -1
        self._seen: dict = {}
        self._keep: list = []

    def start_job(self, job: int) -> None:
        self._job = job
        self._seen = defaultdict(set)
        self._keep = []

    def _wrap(self, name: str, fn):
        module = name.split(".")[0]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in DUP_TRACKED:
                key = _input_key(name, args, kwargs)
                if key in tracer._seen[name]:
                    tracer.counts[f"{name}.dup"] += 1
                tracer._seen[name].add(key)
                tracer._keep.append(args)
            parent, caller = tracer._stack[-1] if tracer._stack else (-1, "")
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append((index, module))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if caller != module:
                    tracer.errors[module] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (tracer._job, name, parent, start, end)
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        if name == "outer.spectral_factorize":
            self.counts["outer.sweeps"] += result.sweeps
            self.counts["outer.wilson_calls"] += int(result.sweeps > 0)
        elif name == "polynomials.stieltjes":
            self.counts["polynomials.stieltjes.blocks"] += int(
                args[1] if len(args) > 1 else kwargs["n_max"]
            )
        elif name == "measure.szego_weight":
            refine = args[1] if len(args) > 1 else kwargs.get("refine", 1)
            self.counts["measure.szego_weight.refine2_calls"] += int(refine == 2)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        saved = []
        try:
            for mod, fns in LAYERS.items():
                module = importlib.import_module(f"matszego.{mod}")
                for fn in fns:
                    original = getattr(module, fn)
                    saved.append((module, fn, original))
                    setattr(module, fn, self._wrap(f"{mod}.{fn}", original))
            yield self
        finally:
            for module, fn, original in reversed(saved):
                setattr(module, fn, original)


def self_times(spans) -> tuple[dict[str, float], Counter]:
    """Total self time and call count per function name.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; spans of different jobs never nest.
    """
    child = [0.0] * len(spans)
    for job, name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (job, name, parent, start, end) in enumerate(spans):
        out[name] += (end - start) - child[i]
        calls[name] += 1
    return dict(out), calls


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer numbers, every name present even when zero."""
    self_s, calls = self_times(tracer.spans)
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    for mod, fns in LAYERS.items():
        out[f"{mod}.self_s"] = sum(self_s.get(f"{mod}.{fn}", 0.0) for fn in fns) / passes
        out[f"{mod}.errors"] = tracer.errors[mod] / passes
    for name in COUNTERS:
        out[name] = tracer.counts[name] / passes
    for name in DUP_TRACKED:
        out[f"{name}.dup"] = tracer.counts[f"{name}.dup"] / passes
    return out
