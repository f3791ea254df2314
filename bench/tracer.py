"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions (``__all__``) of each
``schwarzian_lab`` module and rebinds every module-level reference to them
inside the package, so calls between layers pass through a timing
wrapper.  References inside ``jets`` are left alone: jet operations are
counted where another layer calls into ``jets``.  ``Tracer.uninstall``
restores the originals.

Each wrapped call adds one to its function's call count, its duration to
the function's busy time, and its self time (duration minus the time its
wrapped callees took) to the function and to its layer.  Coarse calls
(everything not listed in ``_FINE``) also keep a span (id, name, request,
start, end, parent) in memory; fine-grained calls -- jet ops,
``eval_jet``, ``schwarzian`` -- are only aggregated, since a scan makes
millions of them.
"""

from __future__ import annotations

import inspect
import time

LAYERS = ("jets", "dsl", "schwarzian", "probe", "cli")
# per layer, the functions aggregated without spans (None: all of them)
_FINE = {
    "jets": None,
    "dsl": {"eval_jet", "eval_jet_seeded", "lex_number", "pretty_print"},
    "schwarzian": {
        "schwarzian",
        "spherical_derivative",
        "mobius_apply",
        "mobius_compose",
        "mobius_inverse",
        "mobius_on_jet",
        "mobius_jet",
    },
    "cli": {"parse_complex", "format_complex"},
}


class Stat:
    """Figures of one wrapped function."""

    __slots__ = ("calls", "busy", "own", "under", "raised")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.own = 0.0
        self.under = 0  # calls made while the count_under layer was open
        self.raised: dict[str, int] = {}


class Tracer:
    """Counts, busy and self times per wrapped function, plus coarse spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}  # "layer.function" -> Stat
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.request = 0  # set by the caller; tags spans
        self.spans: list = []
        self._open = {layer: [0] for layer in LAYERS}  # wrapped frames open
        self._stack: list[float] = []  # child seconds of each open frame
        self._span_ids: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, layer: str, fn, count_under: str | None = None):
        key = f"{layer}.{fn.__name__}"
        stat = self.stats.setdefault(key, Stat())
        fine = _FINE.get(layer, set())
        keep_span = fine is not None and fn.__name__ not in fine
        clock, stack, layer_self = time.perf_counter, self._stack, self.layer_self
        opened = self._open[layer]
        under = self._open[count_under] if count_under else None
        spans, span_ids = self.spans, self._span_ids

        def traced(*args, **kwargs):
            if under is not None and under[0]:
                stat.under += 1
            stack.append(0.0)
            if keep_span:
                span_id = len(spans)
                parent = span_ids[-1] if span_ids else None
                spans.append(None)
                span_ids.append(span_id)
            opened[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                name = type(exc).__name__
                stat.raised[name] = stat.raised.get(name, 0) + 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                opened[0] -= 1
                mine = dur - stack.pop()
                stat.calls += 1
                stat.busy += dur
                stat.own += mine
                layer_self[layer] += mine
                if stack:
                    stack[-1] += dur
                if keep_span:
                    span_ids.pop()
                    spans[span_id] = (span_id, key, self.request, t0, t1, parent)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        wrapped = {}
        for layer, module in modules.items():
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    under = "probe" if layer == "dsl" else None
                    wrapped[id(fn)] = (fn, self.wrap(layer, fn, under))
        for layer, module in modules.items():
            if layer == "jets":
                continue  # jet ops calling jet ops stay inside the layer
            for name, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    # -- summaries -----------------------------------------------------

    def select(self, layer: str, names=None) -> list[Stat]:
        """Stats of a layer's functions, or of the named ones only."""
        prefix = layer + "."
        return [
            s
            for k, s in self.stats.items()
            if k.startswith(prefix) and (names is None or k[len(prefix):] in names)
        ]

    def calls(self, layer: str, names=None) -> int:
        return sum(s.calls for s in self.select(layer, names))

    def busy(self, layer: str, names=None) -> float:
        return sum(s.busy for s in self.select(layer, names))

    def own(self, layer: str, names=None) -> float:
        return sum(s.own for s in self.select(layer, names))

    def raised(self, layer: str, exc_name: str, names=None) -> int:
        return sum(s.raised.get(exc_name, 0) for s in self.select(layer, names))

    def span_records(self) -> list[dict]:
        keys = ("id", "name", "request", "start", "end", "parent")
        return [dict(zip(keys, s)) for s in self.spans if s is not None]
