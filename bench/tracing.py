"""Per-layer tracing from outside the program.

Tracer.install() replaces every public function of the given cxlab modules,
and the public methods of trees.SparseFn, with a timing wrapper, in every
module namespace that binds it (lemmas, experiments and counterexamples
import hardy_up_table and the verifiers by name).  uninstall() puts the
originals back.  The wrappers are made at the first install and reused, so
installing is a few hundred attribute stores and can be done per operation.
A span's self time is its duration minus the durations of the wrapped calls
made inside it.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

# Wrapped SparseFn methods count as one layer, "trees.SparseFn".
_SPARSEFN_DUNDERS = ("__init__", "__call__")


class Tracer:
    def __init__(self, modules, package):
        self.modules = list(modules)
        self.package = package
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.nodes = 0                  # hardy_up_table: requested nodes
        self.qp_iterations = 0          # capacity_qp / capacity_qp_instance
        self.search_trials = 0          # search_new23: sum of budgets
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] | None = None
        self._hooks = self._result_hooks()

    def _wrap(self, key: str, fn):
        calls, self_ns, incl_ns, stack = self.calls, self.self_ns, self.incl_ns, self._stack
        clock = time.perf_counter_ns
        on_result = self._hooks.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                calls[key] += 1
                self_ns[key] += dt - child
                incl_ns[key] += dt
                if stack:
                    stack[-1] += dt
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def _result_hooks(self):
        def nodes(result, args, kwargs):
            self.nodes += len(result)

        def iterations(result, args, kwargs):
            self.qp_iterations += result.iterations

        def budget(result, args, kwargs):
            self.search_trials += kwargs.get("budget", args[2] if len(args) > 2 else 0)

        return {
            "hardy.hardy_up_table": nodes,
            "capacity.capacity_qp": iterations,
            "capacity.capacity_qp_instance": iterations,
            "counterexamples.search_new23": budget,
        }

    def _patches(self) -> list[tuple[object, str, object, object]]:
        """(namespace, name, original, wrapper) for every binding to replace."""
        wrapped = {}
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
        patches = []
        for ns in self.modules + [self.package]:
            for name, obj in vars(ns).items():
                if inspect.isfunction(obj) and obj in wrapped:
                    patches.append((ns, name, obj, wrapped[obj]))
        cls = self.package.trees.SparseFn
        for name, obj in vars(cls).items():
            if name.startswith("_") and name not in _SPARSEFN_DUNDERS:
                continue
            if isinstance(obj, classmethod):
                new = classmethod(self._wrap("trees.SparseFn", obj.__func__))
            elif inspect.isfunction(obj):
                new = self._wrap("trees.SparseFn", obj)
            else:
                continue
            patches.append((cls, name, obj, new))
        return patches

    def install(self) -> None:
        if self._patched is None:
            self._patched = self._patches()
        for ns, name, _, new in self._patched:
            setattr(ns, name, new)

    def uninstall(self) -> None:
        for ns, name, old, _ in reversed(self._patched or ()):
            setattr(ns, name, old)
