"""Benchmark for cohpres: end-to-end metrics per workload, or per-layer
metrics with ``--trace 1``.

Run from the root of a source checkout:

    python3 bench/run.py --workload check --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in one process.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the provenance, every
metric with its unit, and the type of each failed op.  A traced run also
writes its spans to ``.bench_out/<workload>-seed<seed>.spans.tsv``.

Only the standard library is used; cohpres is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Env  # noqa: E402

MODULES = ("cli", "core", "objects", "residuation", "critical", "coherence",
           "constructions", "oracle")
# set-up is timed this many times before the timed loop, then once more each
# time another SETUP_EVERY_S seconds of ops have run, so that its median
# covers the whole run like the other metrics
SETUP_BEFORE = 3
SETUP_EVERY_S = 1.5
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def check_checkout() -> None:
    if not (ROOT / "src" / "cohpres" / "__init__.py").is_file():
        fail(f"no cohpres sources under {ROOT / 'src'}")
    for name in reference.STRICT:
        if not (ROOT / "corpus" / f"{name}.cp").is_file():
            fail(f"missing corpus file corpus/{name}.cp")
    sys.path.insert(0, str(ROOT / "src"))


def load(env: Env, names) -> None:
    """Parse, validate and build the residual table of each presentation."""
    for name in names:
        p = env.cp["core"].parse_presentation(Path(env.file(name)).read_text(encoding="utf-8"))
        env.pres[name] = p
        env.tables[name] = env.cp["residuation"].derive_residual_table(p)


def cohpres_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "cohpres" or k.startswith("cohpres.")}


def setup(workload) -> tuple[float, Env]:
    """Import cohpres afresh, then parse, validate and build the residual
    table of each presentation the workload uses."""
    for key in cohpres_modules():
        del sys.modules[key]
    gc.collect()
    t0 = perf_counter()
    env = Env(ROOT / "corpus", {m: importlib.import_module(f"cohpres.{m}") for m in MODULES})
    load(env, workload.presentations)
    elapsed = perf_counter() - t0
    core_file = env.cp["core"].__file__
    if Path(core_file).resolve().parent != ROOT / "src" / "cohpres":
        fail(f"imported cohpres from {core_file}, not from this checkout")
    return elapsed, env


def time_setup_again(workload) -> float:
    """Time another set-up, then put back the modules the run is using."""
    in_use = cohpres_modules()
    elapsed, _ = setup(workload)
    for key in cohpres_modules():
        del sys.modules[key]
    sys.modules.update(in_use)
    gc.collect()
    return elapsed


class Pass:
    """Counts and latencies of one closed-loop pass over some cycles."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.busy = 0.0
        self.failed: Counter = Counter()
        self.wrong: list[str] = []
        self.cycles = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return self.attempted - sum(self.failed.values())


def run_pass(
    workload, env: Env, cycles, seconds: float | None = None, tracer=None, after_op=None
) -> Pass:
    """Issue the ops one after another; check each output afterwards.

    The clock covers the op calls only.  With ``seconds`` the pass stops at
    the end of the first cycle that brings the clock past it.
    """
    out = Pass()
    for cycle in cycles:
        for op in cycle:
            call = workload.call(env, op)
            if tracer is not None:
                tracer.op += 1
                tracer.enter(0)  # the op's root span
            t0 = perf_counter()
            try:
                result = call()
            except Exception as exc:  # a failed op is counted, never retried
                result = exc
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.exit()
            out.latencies.append(dt)
            out.busy += dt
            if isinstance(result, Exception):
                out.failed[type(result).__name__] += 1
            else:
                try:
                    workload.verify(op, result)
                except reference.Mismatch as exc:
                    out.wrong.append(f"{op.kind} {op.pres} {op.args!r}: {exc}"[:300])
            if after_op is not None:
                after_op(out)
        out.cycles += 1
        if seconds is not None and out.busy >= seconds:
            break
    return out


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    It weights every order statistic by the mass that a Beta((n+1)q,
    (n+1)(1-q)) distribution puts on its slot, so it moves smoothly with the
    samples.  The single order statistic at q instead jumps between the
    speeds a shared host runs at from one run to the next.  The Beta mass is
    integrated by the midpoint rule on 64 cells per slot.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    cells = 64
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(cells):
            x = (i + (k + 0.5) / cells) / n
            mass += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    setups = [setup(workload) for _ in range(SETUP_BEFORE)]
    env = setups[-1][1]
    setup_times = [s for s, _ in setups]
    timed_at = 0.0  # busy time of the last set-up timed during the loop

    def time_setup(run: Pass) -> None:
        nonlocal timed_at
        if run.busy - timed_at >= SETUP_EVERY_S:
            timed_at = run.busy
            setup_times.append(time_setup_again(workload))

    rng = random.Random(f"{name}/{seed}")
    result = {"workload": name, "seed": seed}
    if not trace:
        run = run_pass(
            workload, env, workload.cycles(rng), seconds,
            after_op=time_setup,
        )
        lat = run.latencies
        result["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": run.completed / run.busy,
            "latency_p50_s": quantile(lat, 0.5),
            "latency_tail_s": quantile(lat, workload.tail_percentile / 100),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result["units"] = dict(END_TO_END)
        beyond = sum(1 for x in lat if x > result["metrics"]["latency_tail_s"])
        result["tail"] = f"p{workload.tail_percentile} of {len(lat)} ops, {beyond} beyond it"
        result["setups"] = len(setup_times)
        passes = [run]
    else:
        cycles = list(itertools.islice(workload.cycles(rng), workload.trace_cycles))
        plain = run_pass(workload, env, cycles)
        tracer = tracing.Tracer()
        sites = tracing.install(tracer)
        tracer.enter(0)  # op 0: set-up, traced once
        load(env, workload.presentations)
        tracer.exit()
        traced = run_pass(workload, env, cycles, tracer=tracer)
        missing = [s for s in workload.spans if s not in tracer.fired()]
        if missing:
            fail(f"{name}: spans never fired in the traced run: {', '.join(missing)}")
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = 1 - (traced.completed / traced.busy) / (
            plain.completed / plain.busy
        )
        result["metrics"] = metrics
        result["units"] = dict(tracing.per_layer_metrics())
        result["wrapped_bindings"] = sites
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"{name}-seed{seed}.spans.tsv"
        tracer.write(spans_file)
        result["spans"] = f"{tracer.span_count()} spans in {spans_file.relative_to(ROOT)}"
        passes = [plain, traced]
    result["cycles"] = [p.cycles for p in passes]
    result["attempted"] = sum(p.attempted for p in passes)
    result["failed"] = sum(sum(p.failed.values()) for p in passes)
    result["failed_ratio"] = result["failed"] / result["attempted"]
    result["failures"] = dict(sum((p.failed for p in passes), Counter()))
    result["wrong_outputs"] = sum(len(p.wrong) for p in passes)
    result["wrong"] = [w for p in passes for w in p.wrong][:5]
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_checkout()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance " + json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": "closed loop, one caller, no threads or subprocesses",
    }))
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]

    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        details = {k: v for k, v in res.items() if k not in ("metrics", "units")}
        print("result " + json.dumps(details))
        for key, value in res["metrics"].items():
            unit = res["units"][key]
            print(f"  {prefix}{key} = {value} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["wrong_outputs"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
