"""Per-function spans around qformula's public functions, from outside.

``Tracer.install`` wraps every public module-level function of the
layer modules and rebinds the wrapper under every name any loaded
``qformula`` module holds for it (``rewrite.apply_gate``,
``cli.squeeze_all``, ...), so calls through from-imports are counted
too.  Each wrapper keeps a call count, total time, and self time (total
minus the time of measured calls made inside it).  ``uninstall`` puts
the original functions back.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "fileio", "circuit", "simulator", "analysis",
    "rewrite", "tensor", "nechiporuk", "counting", "verification",
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "nested", "amp_updates", "bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.nested = False  # some call enclosed another measured call
        self.amp_updates = 0
        self.bytes = 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_amp_updates(stat, args, kwargs):
    state, gate = _arg(args, kwargs, 0, "state"), _arg(args, kwargs, 1, "gate")
    stat.amp_updates += int(np.size(state)) * 2 ** len(gate.targets)


def _count_bytes(stat, args, kwargs):
    stat.bytes += os.path.getsize(_arg(args, kwargs, 1, "path"))


HOOKS = {
    "simulator.apply_gate": _count_amp_updates,
    "fileio.write_circuit": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []  # time of measured children, per open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children
                if children:
                    stat.nested = True
                if stack:
                    stack[-1] += elapsed
                if done and hook is not None:
                    hook(stat, args, kwargs)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qformula.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qformula" or n.startswith("qformula.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()
