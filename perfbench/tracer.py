"""Outside-in tracing of rho_tensor's layers.

The tracer replaces named library functions with timing wrappers. Modules
import these functions by name, so a function is replaced at every binding
site: in each ``rho_tensor`` module whose namespace holds it, and on the
class for methods. A name that no longer exists is skipped, which leaves its
metrics out of the report instead of failing the run.

Each call records a span (layer, parent span, request index, start, end,
time spent in child spans, counters). Spans stay in memory; ``write`` dumps
them as JSON lines once the run is over.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer, module, attribute path, counters the layer reports besides calls and self_s)
TARGETS = [
    ("rootdata.build_root_system", "rho_tensor.rootdata", "build_root_system", ()),
    ("rootdata.weyl_dimension", "rho_tensor.rootdata", "RootSystem.weyl_dimension", ()),
    ("rootdata.orbit", "rho_tensor.rootdata", "RootSystem.orbit", ("terms",)),
    ("charcalc.dominant_weights_below", "rho_tensor.charcalc", "dominant_weights_below", ("weights",)),
    ("charcalc.freudenthal", "rho_tensor.charcalc", "freudenthal", ("memo_hits", "disk_hits", "computed")),
    ("charcalc.cache_load", "rho_tensor.charcalc", "CharCache.load", ("hits",)),
    ("charcalc.cache_store", "rho_tensor.charcalc", "CharCache.store", ("bytes",)),
    ("tensor.klimyk", "rho_tensor.tensor", "klimyk", ("components",)),
    ("harness.predicted_weights", "rho_tensor.harness", "predicted_weights", ("weights",)),
    ("harness.verify_conjecture", "rho_tensor.harness", "verify_conjecture", ("fails",)),
    ("affine.affine_freudenthal", "rho_tensor.affine", "affine_freudenthal", ("computed",)),
    ("affine.truncated_tensor", "rho_tensor.affine", "truncated_tensor", ("components",)),
    ("cli.main", "rho_tensor.cli", "main", ("output_bytes",)),
]

UNITS = {"self_s": "s", "bytes": "bytes", "output_bytes": "bytes"}

# span fields
NAME, PARENT, REQUEST, START, END, CHILD_S, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1  # -1 while setting up
        self.installed: list[tuple[str, tuple]] = []
        self._seen: dict[str, dict[int, object]] = {}  # results returned so far, by layer

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for layer, module, path, counters in TARGETS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            wrapped = self._wrap(layer, original, getattr(self, "_after_" + layer.split(".")[1], None))
            if outer:
                setattr(owner, attr, wrapped)
            else:
                for name, mod in list(sys.modules.items()):
                    if name == "rho_tensor" or name.startswith("rho_tensor."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)
            self.installed.append((layer, counters))

    def _wrap(self, layer, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, self.request, 0.0, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = clock()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD_S] += end - span[START]
            if after is not None:
                try:
                    after(span, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature or result type drops the counter, not the run
            return result

        traced.__wrapped__ = fn
        return traced

    def _parent(self, span):
        return self.spans[span[PARENT]] if span[PARENT] >= 0 else None

    def _first_seen(self, layer, result) -> bool:
        """Memo hits return the memoised object itself; a result object seen
        before is a memo hit. Results are kept so their ids stay unique."""
        seen = self._seen.setdefault(layer, {})
        if seen.get(id(result)) is result:
            return False
        seen[id(result)] = result
        return True

    # -- per-layer counters ------------------------------------------------

    def _after_orbit(self, span, args, kwargs, result):
        span[ATTRS]["terms"] = len(result)
        parent = self._parent(span)
        if parent is not None and parent[NAME] == "tensor.klimyk":
            parent[ATTRS]["orbit_terms"] = parent[ATTRS].get("orbit_terms", 0) + len(result)

    def _after_dominant_weights_below(self, span, args, kwargs, result):
        span[ATTRS]["weights"] = len(result)
        parent = self._parent(span)
        if parent is not None and parent[NAME] == "charcalc.freudenthal":
            parent[ATTRS]["enumerated"] = True

    def _after_freudenthal(self, span, args, kwargs, result):
        attrs = span[ATTRS]
        if not self._first_seen("freudenthal", result):
            attrs["memo_hits"] = 1
        elif attrs.pop("disk", False):
            attrs["disk_hits"] = 1
        elif attrs.pop("enumerated", False) or not any(result.highest):
            # the zero weight's table is built without enumerating weights
            attrs["computed"] = 1

    def _after_cache_load(self, span, args, kwargs, result):
        if result is not None:
            span[ATTRS]["hits"] = 1
            parent = self._parent(span)
            if parent is not None and parent[NAME] == "charcalc.freudenthal":
                parent[ATTRS]["disk"] = True

    def _after_cache_store(self, span, args, kwargs, result):
        cache, rs, lam = args[:3]
        try:
            span[ATTRS]["bytes"] = cache._path(str(rs.algebra), lam).stat().st_size
        except (AttributeError, OSError):
            pass

    def _after_klimyk(self, span, args, kwargs, result):
        rs, lam, mu = args[:3]
        span[ATTRS].update(components=len(result.components), args=[str(rs.algebra), list(lam), list(mu)])

    def _after_predicted_weights(self, span, args, kwargs, result):
        span[ATTRS]["weights"] = len(result)

    def _after_verify_conjecture(self, span, args, kwargs, result):
        span[ATTRS]["fails"] = int(result.verdict == "FAILS")

    def _after_affine_freudenthal(self, span, args, kwargs, result):
        span[ATTRS]["computed"] = int(self._first_seen("affine_freudenthal", result))

    def _after_truncated_tensor(self, span, args, kwargs, result):
        span[ATTRS]["components"] = len(result.components)

    def _after_main(self, span, args, kwargs, result):
        out = args[1] if len(args) > 1 else kwargs.get("out")
        if hasattr(out, "getvalue"):  # the benchmark hands each request a fresh buffer
            span[ATTRS]["output_bytes"] = len(out.getvalue().encode())

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls, self_s and counters per installed layer; zero where the
        layer never ran."""
        out: dict[str, float] = {}
        for layer, counters in self.installed:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            for c in counters:
                out[f"{layer}.{c}"] = 0
        for span in self.spans:
            layer = span[NAME]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += span[END] - span[START] - span[CHILD_S]
            for c, v in span[ATTRS].items():
                key = f"{layer}.{c}"
                if key in out:
                    out[key] += v
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "parent": s[PARENT], "request": s[REQUEST],
                    "start": s[START], "end": s[END], "self_s": s[END] - s[START] - s[CHILD_S],
                    "attrs": s[ATTRS],
                }) + "\n")


def units(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "count")
