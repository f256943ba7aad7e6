"""In-memory span tracer that wraps the program's public functions.

The program has no tracing of its own, so the benchmark wraps each public
function of the layer modules from outside. Several modules bind functions
of other modules by name (`training` imports `decode`, `encode_structural`,
`build_index` and more), so a wrapper is installed under every name in
every module namespace that binds the same function object. Methods are
wrapped on their class. `Tracer.uninstall` puts every original back.

A span records its name, start, end, parent span and the run id. Spans stay
in memory until `write` is called at the end of the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYER_MODULES = ("tkg", "history", "evaluation", "encoders", "decoder", "model",
                 "training", "autodiff")

# `active_tape` runs inside the recording of every autodiff op; a span there
# would measure only the tracer itself.
SKIP = {"autodiff.active_tape"}

METHODS = {"history": {"FrequencyIndex": ("indicator",)}}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"meshtkg.{m}") for m in LAYER_MODULES}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                owner = fn.__module__.rsplit(".", 1)[-1]
                name = f"{owner}.{fn.__name__}"
                if owner not in modules or name in SKIP:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patches.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])
        for short, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[short], cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, fn = self._patches.pop()
            setattr(obj, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: str) -> None:
        """One JSON object per line: id, name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": self.run_id}) + "\n")


def layer_totals(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} from [name, start, end, parent]
    spans; self time is a span's duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out


def read(path: str) -> list[list]:
    """Spans of a trace file as [name, start, end, parent] rows."""
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [[r["name"], r["start"], r["end"], r["parent"]] for r in rows]
