"""Spans around the public functions of each cohpres layer.

The wrappers live here, not in cohpres: ``install`` replaces each listed
function at every place it is bound.  Several modules import functions by
name (``coherence`` binds ``check_cylinder``, ``enumerate_critical_*``,
``trivial_equational_base_samples``, ``check_equational_termination`` and
``derive_residual_table``; ``constructions`` binds ``normalize``; ``cli``
binds ``parse_presentation``), so patching only the defining module would
miss those calls.  ``Residuator`` methods are patched on
the class.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until ``write`` is called at the end of the run.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute, extra counter, how to count it from
# (args, result)).  The counters are work done as a count, next to the time.
SPANS = {
    "cli.main": ("cli", "main", None, None),
    "core.parse": ("core", "parse_presentation", None, None),
    "objects.termination": (
        "objects", "check_equational_termination", "termination_words",
        lambda args, r: r.explored,
    ),
    "objects.normalize": (
        "objects", "normalize", "normalize_steps", lambda args, r: len(r.path.steps)
    ),
    "residuation.table": ("residuation", "derive_residual_table", None, None),
    "residuation.pair": (
        "residuation", "Residuator.pair", "pair_steps",
        lambda args, r: len(args[1].steps) + len(args[2].steps),
    ),
    "residuation.witness": (
        "residuation", "Residuator.pair_with_witness", "witness_cells",
        lambda args, r: len(r[2].cells),
    ),
    "critical.pairs": ("critical", "enumerate_critical_pairs", None, None),
    "critical.cylinders": ("critical", "enumerate_critical_cylinders", None, None),
    "critical.check_cylinder": ("critical", "check_cylinder", None, None),
    "critical.base_samples": (
        "critical", "trivial_equational_base_samples", "base_samples", lambda args, r: len(r)
    ),
    "coherence.check_all": ("coherence", "check_all", None, None),
    "coherence.a1": ("coherence", "check_a1", None, None),
    "coherence.a2": ("coherence", "check_a2", None, None),
    "coherence.a3": ("coherence", "check_a3", None, None),
    "coherence.a4": ("coherence", "check_a4", None, None),
    "constructions.opposite": ("constructions", "opposite", None, None),
    "constructions.nf_functor": ("constructions", "nf_functor_apply", None, None),
    "constructions.fraction_equal": ("constructions", "fraction_equal", None, None),
    "constructions.quotient": ("constructions", "quotient_presentation", None, None),
    "constructions.localization": ("constructions", "localization_presentation", None, None),
    "oracle.search": (
        "oracle", "search_trace", "search_found", lambda args, r: r is not None
    ),
    "oracle.canonical": ("oracle", "exchange_canonical", None, None),
    "oracle.hom": (
        "oracle", "enumerate_hom_classes", "hom_paths",
        lambda args, r: sum(len(c) for c in r.classes),
    ),
    "oracle.rewrite_moves": ("oracle", "rewrite_moves", None, None),
    "oracle.compare": ("oracle", "compare_constructions", None, None),
}
OP = "op"  # the root span of each benchmark op


def per_layer_metrics() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    names = [*Tracer().metrics(), "trace.overhead_ratio"]
    units = {"_s": "s", "ratio": "ratio"}
    return [(n, next((u for k, u in units.items() if n.endswith(k)), "count")) for n in names]


class Tracer:
    def __init__(self) -> None:
        self.names = [OP, *SPANS]
        self.self_time = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.extra = [0] * len(self.names)
        self.op = 0
        self._next_id = 0
        # open spans: [span id, name index, start, time covered by children]
        self._stack: list[list] = []
        # closed spans, six numbers each: id, name, start, end, parent, op
        self._spans = array("d")

    def enter(self, name: int) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        sid, name, start, covered = self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - covered
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self._spans.extend((sid, name, start, end, parent, self.op))

    def span_count(self) -> int:
        return len(self._spans) // 6

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span, (_, _, extra, _) in SPANS.items():
            i = self.names.index(span)
            out[f"{span}_s"] = self.self_time[i]
            out[f"{span}_calls"] = self.calls[i]
            if extra == "search_found":
                out["oracle.search_found_ratio"] = (
                    self.extra[i] / self.calls[i] if self.calls[i] else 0.0
                )
            elif extra is not None:
                out[f"{span.split('.')[0]}.{extra}"] = self.extra[i]
        return out

    def fired(self) -> set[str]:
        return {n for n, c in zip(self.names, self.calls) if c}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            s = self._spans
            for k in range(0, len(s), 6):
                fh.write(
                    f"{int(s[k])}\t{self.names[int(s[k + 1])]}\t{s[k + 2]!r}\t"
                    f"{s[k + 3]!r}\t{int(s[k + 4])}\t{int(s[k + 5])}\n"
                )


def _wrap(tracer: Tracer, fn, name: int, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if count is not None:
            tracer.extra[name] += count(args, result)
        return result

    return wrapper


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every listed function wherever a cohpres module binds it.

    Returns span name -> number of bindings replaced, and raises if a
    binding of an original function survives.
    """
    modules = [m for k, m in sys.modules.items() if k == "cohpres" or k.startswith("cohpres.")]
    originals = {}
    sites: dict[str, int] = {}
    for span, (mod, attr, _, count) in SPANS.items():
        module = sys.modules[f"cohpres.{mod}"]
        name = tracer.names.index(span)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            fn = getattr(cls, meth)
            setattr(cls, meth, _wrap(tracer, fn, name, count))
            sites[span] = 1
            continue
        fn = getattr(module, attr)
        wrapped = _wrap(tracer, fn, name, count)
        originals[span] = fn
        sites[span] = 0
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapped)
                    sites[span] += 1
    for span, fn in originals.items():
        for m in modules:
            for key, value in vars(m).items():
                if value is fn:
                    raise RuntimeError(f"{m.__name__}.{key} still calls unwrapped {span}")
    return sites
