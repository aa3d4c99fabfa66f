"""Per-layer tracing from outside the program.

Every public function of the uqec modules, every public method of their
classes and the construction of each class (its __init__, which for the
dataclasses includes __post_init__ validation) is wrapped in a timer. A
module-level function is rebound at every place it is imported, so a call
through `analysis.apply_channel` is traced like one through
`recovery.apply_channel`. Calls that go through a private helper or a
dictionary of functions reach the original and count toward the caller's
self time.

Self time is a span's duration minus the part covered by traced spans it
called. Spans are accumulated per phase in memory and read at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "codes", "recovery", "analysis", "cli")


class Tracer:
    def __init__(self) -> None:
        self.phases: dict[str, dict[str, list]] = {}
        self.current: dict[str, list] = {}
        self._stack: list[list[float]] = []

    def phase(self, name: str) -> None:
        """Accumulate the following spans under `name`."""
        self.current = self.phases.setdefault(name, {})

    def wrap(self, key: str, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                rec = self.current.get(key)
                if rec is None:
                    rec = self.current[key] = [0, 0.0]
                rec[0] += 1
                rec[1] += elapsed - children[0]

        return traced


def _wrap_class(tracer: Tracer, cls: type, key: str) -> list[str]:
    keys = []
    for attr, member in list(vars(cls).items()):
        if attr == "__init__":
            name = key
        elif attr.startswith("_"):
            continue
        else:
            name = f"{key}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(tracer.wrap(name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(name, member))
        else:
            continue
        keys.append(name)
    return keys


def install(tracer: Tracer, package: str = "uqec") -> set[str]:
    """Wrap the public callables of each layer module; returns the span keys
    ("<module>.<name>" or "<module>.<Class>.<method>") that were wrapped."""
    keys: set[str] = set()
    wrapped: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"{package}.{layer}")
        except ImportError as exc:
            print(f"trace: module {package}.{layer} absent ({exc})", file=sys.stderr)
            continue
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    keys.update(_wrap_class(tracer, obj, f"{layer}.{name}"))
            elif callable(obj):
                key = f"{layer}.{name}"
                wrapped[id(obj)] = (obj, tracer.wrap(key, obj))
                keys.add(key)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
    return keys
