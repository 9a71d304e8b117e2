"""Tracing of wavelqg from outside the package, by wrapping its functions.

``Tracer.install()`` replaces each public function defined in a
``wavelqg`` module with a wrapper that records a span (id, function, start,
end, parent span, operation id) and adds the span's self time -- its
duration minus the time its child spans cover -- to the function's total.
The wrapper is put into every ``wavelqg`` namespace that holds the
function, so internal calls such as ``analysis.assemble_gains`` or
``simulator.build_closed_loop`` are traced too.  ``uninstall()`` restores
the originals.

Spans stay in memory (up to ``span_cap``; later ones are only aggregated)
and are written as JSON lines by ``write_jsonl``.  Self times and counts
are aggregated as spans close, so they cover every traced call.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# The layers are the modules of the package; a function belongs to the
# layer of the module that defines it (``wavelqg._kernels._stepper_py``
# belongs to ``_kernels``).
LAYERS = ("cli", "params", "spectral", "synthesis", "analysis", "oracle",
          "simulator", "_kernels", "svgplot")

# Computed, not measured: one Euler-Maruyama step of ``_stepper_py.advance``
# does a (4n)^2 matvec plus two (2n)^2 quadratic forms, i.e. 48 n^2 flops,
# and streams the (4n)^2 generator and the two (2n)^2 weights once, i.e.
# 192 n^2 bytes of float64.
FLOPS_PER_STEP_N2 = 48
BYTES_PER_STEP_N2 = 192


def _layer(modname: str) -> str | None:
    parts = modname.split(".")
    if parts[0] != "wavelqg" or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.names: list[str] = []      # function id -> "layer.function"
        self.layers: list[str] = []     # function id -> layer
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.active: list[int] = []     # open spans per function id
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self.counts = {"steps": 0, "flops": 0, "bytes": 0, "newton_iters": 0}
        self._stack: list[list] = []    # [span id, time covered by children]
        self._next_id = 1
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._originals: dict[int, object] = {}
        self._patched: list[tuple] = []  # (module, attribute, original)
        self._fid: dict[str, int] = {}

    # -- wrapping ----------------------------------------------------------

    def _targets(self):
        for modname, mod in sorted(sys.modules.items()):
            layer = _layer(modname)
            if layer is None or mod is None:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != modname):
                    continue
                yield layer, attr, obj

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for layer, attr, obj in self._targets():
            if id(obj) not in self._wrappers:
                name = f"{layer}.{attr}"
                fid = self._fid.setdefault(name, len(self.names))
                if fid == len(self.names):
                    self.names.append(name)
                    self.layers.append(layer)
                    self.self_s.append(0.0)
                    self.calls.append(0)
                    self.active.append(0)
                self._wrappers[id(obj)] = self._wrap(obj, fid, name)
                self._originals[id(obj)] = obj
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wavelqg"
                                   or modname.startswith("wavelqg.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and self._originals[id(obj)] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _hook(self, name: str):
        counts = self.counts
        if name == "_kernels.advance":
            def hook(args, kwargs):
                z = args[0] if args else kwargs["z"]
                noise = args[4] if len(args) > 4 else kwargs["noise"]
                steps = noise.shape[0]
                n = z.shape[0] // 4
                counts["steps"] += steps
                counts["flops"] += FLOPS_PER_STEP_N2 * n * n * steps
                counts["bytes"] += BYTES_PER_STEP_N2 * n * n * steps
            return hook
        if name == "oracle.care_residual":
            def hook(args, kwargs):
                solve = self._fid.get("oracle.solve_care_dense")
                if solve is not None and self.active[solve]:
                    counts["newton_iters"] += 1
            return hook
        return None

    def _wrap(self, fn, fid: int, name: str):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s, calls, active = self.self_s, self.calls, self.active
        hook = self._hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            active[fid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[fid] -= 1
                stack.pop()
                dur = t1 - t0
                self_s[fid] += dur - frame[1]
                calls[fid] += 1
                if stack:
                    stack[-1][1] += dur
                if len(spans) < self.span_cap:
                    spans.append((sid, fid, t0, t1, parent, self.op_id))
                else:
                    self.dropped += 1
        return traced

    # -- results -----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        """Self time per layer, summed over every traced call so far."""
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, s in zip(self.layers, self.self_s):
            out[layer] += s
        return out

    def function_self(self, name: str) -> float:
        fid = self._fid.get(name)
        return 0.0 if fid is None else self.self_s[fid]

    def function_calls(self, name: str) -> int:
        fid = self._fid.get(name)
        return 0 if fid is None else self.calls[fid]

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans),
                                 "dropped": self.dropped,
                                 "functions": self.names}) + "\n")
            for sid, fid, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": self.names[fid],
                                     "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
