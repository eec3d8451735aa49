"""Span tracer that attributes time to the char2cat modules from outside.

``Tracer.install`` wraps every public module-level function of the traced
modules and the arithmetic methods of the ring element classes, then
rebinds every alias the package holds (``fusion.d_basis_element`` is the
object ``cyclotomic.d_basis_element``; ``__rmul__`` is ``__mul__``), so a
call is recorded whichever name it goes through.  Nothing under ``src/``
is edited.

Each call becomes one span: name, start, end, parent span and job id, kept
in flat arrays until the run ends.  Self time (a span's duration minus the
time its wrapped children cover) and call counts are accumulated as the
spans close.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array

MODULES = ("cyclotomic", "fusion", "chebyshev", "tilting", "invariants", "homology", "cli")

# (module, class) pairs whose arithmetic methods are wrapped
CLASSES = (
    ("cyclotomic", "CycInt"),
    ("cyclotomic", "IntPoly"),
    ("fusion", "FusionElt"),
    ("tilting", "WeightChar"),
)
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
              "__mul__", "__rmul__", "__pow__")

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, _LRU_TYPE))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.cached: dict[str, object] = {}  # name -> lru_cache wrapper
        self.job = -1
        # spans, one entry per call
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self._stack: list[list] = []  # [span index, time covered by children]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        if isinstance(fn, _LRU_TYPE):
            self.cached[name] = fn
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_job = self.span_parent, self.span_job
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_job.append(self.job)
            s_start.append(0.0)
            s_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                s_start[idx] = t0
                s_end[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self) -> None:
        """Wrap the package's functions and methods and rebind every alias."""
        modules = {m: importlib.import_module(f"char2cat.{m}") for m in MODULES}
        replace: dict[int, object] = {}  # id(original) -> wrapper
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not _is_function(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or id(obj) in replace):
                    continue
                replace[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for short, cls_name in CLASSES:
            cls = getattr(modules[short], cls_name)
            for attr in ARITHMETIC:
                obj = cls.__dict__.get(attr)
                if obj is None:
                    continue
                if id(obj) not in replace:
                    replace[id(obj)] = self._wrap(
                        f"{short}.{cls_name}.{attr.strip('_')}", obj)
                self._undo.append((cls, attr, obj))
                setattr(cls, attr, replace[id(obj)])
        for name, mod in list(sys.modules.items()):
            if name != "char2cat" and not name.startswith("char2cat."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- results

    def stats(self) -> dict:
        """Per wrapped name: calls, self_s, and cache figures for lru_cache."""
        out = {}
        for nid, name in enumerate(self.names):
            row = {"calls": self.calls[nid], "self_s": self.self_s[nid]}
            fn = self.cached.get(name)
            if fn is not None:
                info = fn.cache_info()
                row["cache_hits"] = info.hits
                row["cache_misses"] = info.misses
                row["cache_entries"] = info.currsize
            out[name] = row
        return out

    def write_spans(self, path) -> None:
        """Write the spans as a numpy archive with a name table."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32),
        )
