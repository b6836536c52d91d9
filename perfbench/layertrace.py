"""Outside-in layer trace for oflux CLI commands.

The tracer wraps the public functions of each oflux module (its layers)
without touching the package: every module namespace that holds a
reference to one of them, including ``cli._COMMANDS``, is rebound to a
wrapper that records a span.  ``numpy.fft`` entry points are wrapped to
count calls and transformed points, charged to the innermost open span.
Spans stay in memory and are written once, after the command returns, to a
file outside the command's output directory, so the command's outputs stay
byte-identical with tracing on and off.

Run as a script it is the traced stand-in for ``python -m oflux.cli``:

    python3 perfbench/layertrace.py --spans FILE --cmd ID -- gen --kind ...
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = (
    "cli", "synth", "mollify", "commutator", "energy_balance", "grids",
    "pressure", "boundary", "solver", "fieldio", "reports",
)
FFT_FUNCS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2")

# Spans of these functions carry a content key of their first argument
# (a Snapshot or an array), so waste ratios can count distinct snapshots.
CONTENT_KEYED = {
    "synth.estimate_holder_exponent",
    "synth.holder_norm",
    "pressure.solve_pressure_channel",
}
# fieldio functions whose file sizes are counted: name -> (counter, where
# the path comes from: the return value or the first argument).
FILE_BYTES = {
    "fieldio.write_snapshot": ("bytes_written", "result"),
    "fieldio.write_scalar_field": ("bytes_written", "result"),
    "fieldio.read_snapshot": ("bytes_read", "arg"),
    "fieldio.read_scalar_field": ("bytes_read", "arg"),
}


def content_key(obj) -> str:
    arr = np.ascontiguousarray(getattr(obj, "velocity", obj))
    digest = hashlib.blake2b(arr.tobytes(), digest_size=12)
    digest.update(repr(arr.shape).encode())
    return digest.hexdigest()


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".json"):
        try:
            total += os.stat(p).st_size
        except OSError:
            pass
    return total


class Tracer:
    """In-memory span recorder for one command.

    A span is a dict: ``id``, ``name`` (``layer.function``), ``parent`` (span
    id or None), ``cmd`` (the command id), ``start``/``end`` (perf_counter
    seconds), ``fft_calls``/``fft_points``/``fft_bytes`` charged to it
    directly, and optional ``key`` or byte counters.
    """

    def __init__(self, cmd: str = ""):
        self.cmd = cmd
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.fft_outside = {"fft_calls": 0, "fft_points": 0, "fft_bytes": 0}

    def wrap(self, fn, name: str):
        tracer = self
        keyed = name in CONTENT_KEYED
        file_bytes = FILE_BYTES.get(name)

        def traced(*args, **kwargs):
            span = {
                "id": len(tracer.spans), "name": name, "cmd": tracer.cmd,
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                "fft_calls": 0, "fft_points": 0, "fft_bytes": 0,
            }
            if keyed and args:
                span["key"] = content_key(args[0])
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if file_bytes:
                counter, source = file_bytes
                path = result if source == "result" else args[0]
                span[counter] = _file_bytes(path)
            return result

        return functools.wraps(fn)(traced)

    def wrap_fft(self, fn):
        tracer = self

        def counted(a, *args, **kwargs):
            target = tracer._stack[-1] if tracer._stack else tracer.fft_outside
            arr = np.asarray(a)
            target["fft_calls"] += 1
            target["fft_points"] += arr.size
            # computed traffic: read the input once, write complex128 output
            target["fft_bytes"] += arr.size * (arr.itemsize + 16)
            return fn(a, *args, **kwargs)

        return functools.wraps(fn)(counted)

    def dump(self, path, extra: dict | None = None) -> None:
        payload = {"cmd": self.cmd, "spans": self.spans, "fft_outside": self.fft_outside}
        payload.update(extra or {})
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def public_functions(module) -> dict:
    """Public functions defined in ``module`` (not re-exported imports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def install(tracer: Tracer):
    """Rebind every public layer function, wherever the package holds it.

    Returns a callable that restores the original bindings.
    """
    modules = {layer: importlib.import_module(f"oflux.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, fn in public_functions(mod).items():
            wrappers[id(fn)] = tracer.wrap(fn, f"{layer}.{name}")
    undo = []
    namespaces = [vars(m) for m in modules.values()] + [vars(importlib.import_module("oflux"))]
    namespaces.append(modules["cli"]._COMMANDS)
    for ns in namespaces:
        for attr, val in list(ns.items()):
            if id(val) in wrappers:
                undo.append((ns, attr, val))
                ns[attr] = wrappers[id(val)]
    for name in FFT_FUNCS:
        fn = getattr(np.fft, name)
        undo.append((vars(np.fft), name, fn))
        setattr(np.fft, name, tracer.wrap_fft(fn))

    def restore():
        for ns, attr, val in reversed(undo):
            ns[attr] = val

    return restore


def aggregate(spans: list[dict]) -> dict:
    """Per-function totals over a list of spans.

    Returns ``{name: {calls, total_s, self_s, fft_calls, fft_points,
    fft_bytes}}``.  A span's self time is its duration minus the durations
    of its direct children; ``total_s`` counts only spans with no ancestor
    of the same name, so recursion is not double counted.
    """
    by_id = {(s["cmd"], s["id"]): s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["cmd"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + (s["end"] - s["start"])
    out: dict = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = out.setdefault(
            s["name"],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fft_calls": 0, "fft_points": 0, "fft_bytes": 0},
        )
        row["calls"] += 1
        row["self_s"] += dur - child_time.get((s["cmd"], s["id"]), 0.0)
        for k in ("fft_calls", "fft_points", "fft_bytes"):
            row[k] += s.get(k, 0)
        parent, nested = s["parent"], False
        while parent is not None:
            anc = by_id[(s["cmd"], parent)]
            if anc["name"] == s["name"]:
                nested = True
                break
            parent = anc["parent"]
        if not nested:
            row["total_s"] += dur
    return out


def _main(argv: list[str]) -> int:
    spans_path, cmd = None, ""
    while argv and argv[0] != "--":
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--spans":
            spans_path = value
        elif flag == "--cmd":
            cmd = value
        else:
            raise SystemExit(f"layertrace.py: unknown flag {flag}")
    if spans_path is None or not argv:
        raise SystemExit("usage: layertrace.py --spans FILE [--cmd ID] -- <oflux arguments>")
    t0 = time.perf_counter()
    import oflux.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(cmd)
    restore = install(tracer)
    try:
        code = oflux.cli.main(argv[1:])
    finally:
        restore()
        tracer.dump(spans_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
