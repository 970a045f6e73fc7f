"""Span tracing of fewdet's public functions, from outside the package.

The tracer wraps chosen module-level functions and, while installed, rebinds
every fewdet namespace that holds one of them, so names imported with
``from ... import`` are traced too (``fewshot.backward`` is the same object
as ``tensor.backward``). Nothing in the package is edited on disk, and
``uninstall`` puts every original binding back.

Each wrapped call records a span: its inclusive time, and its self time,
which is the inclusive time minus the footprint of the wrapped calls it made.
Spans are summed per function name into the current ``Phase``.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from spec import TAPE_OPS

# module -> public functions traced in it
TRACED = {
    "tensor": TAPE_OPS + ("backward", "sgd_momentum_step", "grad_check",
                          "grad_check_sampled"),
    "attention": ("gc_block", "topdown_map", "fuse_bottom_up", "pool_saliency"),
    "saliency": ("bms_saliency",),
    "detector": ("forward", "detect", "evaluate_detector", "base_loss", "nms",
                 "evaluate_map", "hard_negative_mining", "background_ce",
                 "match_anchors"),
    "fewshot": ("train_base", "train_novel", "init_novel_detector", "novel_loss",
                "object_concentration_loss", "background_concentration_loss",
                "distillation_loss", "sample_support_set"),
    "synthdata": ("build_benchmark", "generate_scene"),
    "cli": ("gradcheck_suite",),
}


@dataclass
class SpanStats:
    calls: int = 0
    incl: float = 0.0
    self: float = 0.0


@dataclass
class Phase:
    """Span totals for one stretch of traced work (set-up or measured reps)."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    _distinct_before: int = 0
    _rep_images: set = field(default_factory=set)

    def span(self, name: str) -> SpanStats:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = SpanStats()
        return s

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def start_rep(self) -> None:
        """Images seen before this call no longer count as seen."""
        self._distinct_before += len(self._rep_images)
        self._rep_images = set()

    def see_image(self, key: bytes) -> None:
        self._rep_images.add(key)

    @property
    def bms_distinct(self) -> int:
        """Distinct images handed to BMS, summed over reps."""
        return self._distinct_before + len(self._rep_images)


def _count_backward(phase, bound, result):
    phase.count("tensor.backward.nodes", len(bound.arguments["tape"]))


def _count_nms(phase, bound, result):
    args = bound.arguments
    score_thr = args.get("score_thr", 0.0)
    phase.count("detector.nms.candidates",
                int(np.count_nonzero(np.asarray(args["scores"]) >= score_thr)))
    phase.count("detector.nms.kept", len(result))


def _count_bms(phase, bound, result):
    image = np.ascontiguousarray(bound.arguments["image"])
    phase.see_image(hashlib.blake2b(image.tobytes(), digest_size=16).digest())


COUNTERS = {
    "tensor.backward": _count_backward,
    "detector.nms": _count_nms,
    "saliency.bms_saliency": _count_bms,
}


class Tracer:
    def __init__(self):
        self.phase: Phase | None = None
        self._stack: list[float] = []  # child footprint of each open span
        self._traced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        for short, names in TRACED.items():
            module = sys.modules[f"fewdet.{short}"]
            for fn_name in names:
                fn = getattr(module, fn_name)
                self._traced[id(fn)] = (fn, self._wrap(f"{short}.{fn_name}", fn))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            phase = self.phase
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                s = phase.span(name)
                s.calls += 1
                s.incl += t1 - t0
                s.self += t1 - t0 - child
            if counter is not None:
                counter(phase, signature.bind(*args, **kwargs), result)
            if stack:
                # the parent's self time excludes this call and its bookkeeping
                stack[-1] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def recording(self, phase: Phase):
        """Trace into ``phase`` for the duration of the block."""
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()
            self.phase = None

    def _bindings(self):
        """(module, attribute, original, wrapper) for every fewdet binding
        that holds an unwrapped traced function."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fewdet" and not mod_name.startswith("fewdet."):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._traced.get(id(value))
                if entry is not None and entry[0] is value:
                    yield module, attr, value, entry[1]

    def install(self) -> list[str]:
        """Rebind every fewdet namespace that holds a traced function.

        Returns the patched bindings as ``module.attribute`` strings.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr, original, wrapper in list(self._bindings()):
            setattr(module, attr, wrapper)
            self._patched.append((module, attr, original))
        return [f"{m.__name__}.{a}" for m, a, _ in self._patched]

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def unpatched(self) -> list[str]:
        """fewdet bindings that still hold an unwrapped traced function."""
        return [f"{m.__name__}.{a}" for m, a, _, _ in self._bindings()]
