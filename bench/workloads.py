"""The three benchmark workloads.

Each workload is a closed loop with a single caller: the next op is issued
only after the previous one returns, with no threads and no subprocesses.
Ops come in cycles.  Every cycle holds the same kinds of op in the same
numbers; the seed draws the inputs inside each kind and the order of the
cycle, so a run's cost depends on how many cycles it runs, not on the luck
of the draw.  Each workload is a generator of cycles.

The seed is the benchmark's; cohpres only receives the generated inputs.
Expected answers come from ``reference``, never from cohpres.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference


@dataclass(frozen=True)
class Op:
    kind: str
    pres: str
    args: tuple


@dataclass
class Env:
    """What set-up leaves behind: the cohpres modules and parsed corpus."""

    corpus: Path
    cp: dict  # cohpres submodule name -> module
    pres: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def file(self, pres: str) -> str:
        return str(self.corpus / f"{pres}.cp")


# ---------------------------------------------------------------------------
# check: `cohpres check` on the README's invocation mix


ASSUMPTIONS = ("a1", "a2", "a3", "a4")


def check_cycles(rng: random.Random):
    # Five quick ops, five that cost the same (ds2 without the opposite
    # probe, whatever assumption is reported), two ds2op and three ds2 ops
    # with the probe, and the slowest, ds2op a3x --strong.  The median falls
    # among the five ds2 ops without the probe and p82 among the three ds2
    # ops with it, so each rests on many samples of ops that cost the same.
    # The seed draws the reported assumptions, which leave the cost as it
    # is, and the order.
    while True:
        ops = [
            Op("check", "huet", ("all", False, True)),
            Op("check", "deltas", ("all", False, True)),
            Op("check", "ds2op", ("all", False, False)),
            Op("check", "huet", (rng.choice(ASSUMPTIONS), False, True)),
            Op("check", "deltas", (rng.choice(ASSUMPTIONS), False, True)),
            Op("check", "ds2", ("all", False, False)),
            *(Op("check", "ds2", (rng.choice(ASSUMPTIONS), False, False)) for _ in range(4)),
            Op("check", "ds2", ("all", False, True)),
            *(Op("check", "ds2", (rng.choice(ASSUMPTIONS), False, True)) for _ in range(2)),
            Op("check", "ds2op", ("all", False, True)),
            Op("check", "ds2op", (rng.choice(ASSUMPTIONS), False, True)),
            Op("check", "ds2op", ("a3x", True, True)),
        ]
        rng.shuffle(ops)
        yield ops


def _cli(env: Env, argv: list[str]):
    buf = io.StringIO()
    main = env.cp["cli"].main

    def call():
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
        return code, buf.getvalue()

    return call


def check_call(env: Env, op: Op):
    assumption, strong, opposite = op.args
    argv = ["check", env.file(op.pres), "--assumption", assumption]
    if strong:
        argv.append("--strong")
    if not opposite:
        argv.append("--no-opposite")
    return _cli(env, argv)


def check_verify(op: Op, out) -> None:
    reference.check_check_output(op.pres, *op.args, *out)


# ---------------------------------------------------------------------------
# residuate: normal-form images and residual witnesses along long
# normalization paths of ds2 and ds2op

# normalization path lengths drawn in every cycle, for each presentation.
# Residuation recurses once per step, so today the rungs past about 1,000
# steps raise RecursionError; they stay in so that the defect shows.  The
# middle rung comes three times so that the median op latency rests on many
# samples of one kind of op.
NF_STEPS = (4, 8, 16, 32, 64, 125, 125, 125, 250, 400, 550, 700, 850, 1150, 1300)
# pair_with_witness cost grows much faster, so its paths stay short
WITNESS_STEPS = (6, 12, 24, 48)


def _word_with_steps(rng: random.Random, pres: str, n: int) -> str:
    """A random word whose normalization path has exactly n steps.

    Starting from a normal word, each move undoes one normalization step at
    a random place, so n moves leave n inversions.
    """
    first = reference.NORMAL_FIRST[pres]
    second = "b" if first == "a" else "a"
    side = math.isqrt(n) + 2
    w = [first] * side + [second] * side
    for _ in range(n):
        spots = [i for i in range(len(w) - 1) if w[i] == first and w[i + 1] == second]
        i = rng.choice(spots)
        w[i], w[i + 1] = second, first
    return "".join(w)


def _inert_steps(pres: str, word: str) -> list[tuple[str, str, str]]:
    out = []
    for gen in ("m", "n"):
        src = reference.GENERATORS[pres][gen][0]
        for pos in range(len(word) - len(src) + 1):
            if word[pos : pos + len(src)] == src:
                out.append((word[:pos], gen, word[pos + len(src) :]))
    return out


def _draw(rng: random.Random, pres: str, n: int):
    while True:
        word = _word_with_steps(rng, pres, n)
        steps = _inert_steps(pres, word)
        if steps:
            return word, rng.choice(steps)


def residuate_cycles(rng: random.Random):
    while True:
        ops = []
        for pres in ("ds2", "ds2op"):
            for n in NF_STEPS:
                ops.append(Op("nf", pres, _draw(rng, pres, n)))
            for n in WITNESS_STEPS:
                word, step = _draw(rng, pres, n)
                steps = reference.normalization_steps(pres, word)
                ops.append(Op("witness", pres, (word, step, steps)))
        rng.shuffle(ops)
        yield ops


def _path(env: Env, word: str, steps):
    core = env.cp["core"]
    return core.Path(
        tuple(word),
        tuple(core.RewriteStep(tuple(l), g, tuple(r)) for l, g, r in steps),
    )


def _steps(path) -> list[tuple[str, str, str]]:
    return [("".join(s.left), s.gen, "".join(s.right)) for s in path.steps]


def residuate_call(env: Env, op: Op):
    p, table = env.pres[op.pres], env.tables[op.pres]
    word, step = op.args[0], op.args[1]
    f = _path(env, word, [step])
    if op.kind == "nf":
        nf_functor_apply = env.cp["constructions"].nf_functor_apply
        return lambda: nf_functor_apply(f, p, table)
    u = _path(env, word, op.args[2])
    Residuator = env.cp["residuation"].Residuator
    return lambda: Residuator(p, table).pair_with_witness(f, u)


def residuate_verify(op: Op, out) -> None:
    word, step = op.args[0], op.args[1]
    if op.kind == "nf":
        reference.check_nf_image(op.pres, word, step, "".join(out.source), _steps(out))
        return
    gf, fg, trace = out
    cells = [
        (
            _steps(c.prefix),
            c.inst.name,
            None if c.inst.exch is None else (c.inst.exch[0], "".join(c.inst.exch[1]), c.inst.exch[2]),
            "".join(c.inst.left),
            "".join(c.inst.right),
            c.inst.forward,
            _steps(c.suffix),
        )
        for c in trace.cells
    ]
    reference.check_witness(
        op.pres, word, step, op.args[2], _steps(gf), _steps(fg), _steps(trace.source), cells
    )


# ---------------------------------------------------------------------------
# compare: the README's `cohpres compare` calls plus hom enumeration in seeded
# order

# The ds2 comparison comes twice, so that p96 falls between its two calls.
COMPARE_CALLS = (
    ("huet", ("--max-word", "1", "--max-steps", "8")),
    ("ds2", ("--max-word", "6", "--max-steps", "7", "--oracle", "ds2")),
    ("ds2", ("--max-word", "6", "--max-steps", "7", "--oracle", "ds2")),
    ("ds2op", ("--max-word", "3", "--max-steps", "4")),
)
# (a's, b's, bound) of the larger word of the hom-sets enumerated in every
# cycle, each against every normal word that takes exactly bound - 1 merges
# (ds2) or duplications (ds2op) to reach, which includes empty hom-sets such
# as a^3 b^3 -> b^3 in ds2.  The 47 enumerations cost 0.4 to 100 ms and
# spread evenly over that range, so the median falls among many ops of
# nearly the same cost.  With the four compare calls a cycle holds 51 ops,
# so p96 falls between the two ds2 compare calls, which cost several times
# more than every enumeration and several times less than the huet compare
# call.
HOM_TIERS = {
    "ds2": ((3, 3, 3), (3, 3, 4), (4, 3, 4), (4, 4, 4), (5, 4, 4), (4, 4, 5), (5, 4, 5)),
    "ds2op": ((3, 3, 3), (4, 4, 3), (3, 3, 4), (4, 3, 4), (4, 4, 4)),
}


def _hom_ops(pres: str, p: int, q: int, bound: int) -> list[Op]:
    """The hom-set enumerations of one tier, one per smaller word."""
    ops = []
    for r in range(p + 1):
        s = q - (bound - 1 - (p - r))
        if 0 <= s <= q:
            big = reference.normal_form(pres, "a" * p + "b" * q)
            small = reference.normal_form(pres, "a" * r + "b" * s)
            src, tgt = (big, small) if pres == "ds2" else (small, big)
            ops.append(Op("hom", pres, (src, tgt, bound)))
    return ops


def compare_cycles(rng: random.Random):
    # Every cycle holds the same ops, so that every run enumerates the same
    # hom-sets: an enumeration's cost depends on both words, and a seeded
    # choice among them would make the latency percentiles depend on the
    # luck of the draw.  The seed draws the order.
    ops = [Op("compare", pres, flags) for pres, flags in COMPARE_CALLS]
    ops += [op for pres, ts in HOM_TIERS.items() for tier in ts for op in _hom_ops(pres, *tier)]
    while True:
        rng.shuffle(ops)
        yield list(ops)


def compare_call(env: Env, op: Op):
    if op.kind == "compare":
        return _cli(env, ["compare", env.file(op.pres), *op.args])
    src, tgt, bound = op.args
    enumerate_hom_classes = env.cp["oracle"].enumerate_hom_classes
    p = env.pres[op.pres]
    return lambda: enumerate_hom_classes(tuple(src), tuple(tgt), p, bound).count


def compare_verify(op: Op, out) -> None:
    if op.kind == "compare":
        reference.check_compare_output(op.pres, int(op.args[1]), *out)
        return
    src, tgt, _ = op.args
    want = reference.hom_count(op.pres, src, tgt)
    if out != want:
        raise reference.Mismatch(f"hom({src}, {tgt}) has {out} classes, expected {want}")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    presentations: tuple[str, ...]
    cycles: object  # rng -> endless iterator of lists of Op
    call: object  # (env, op) -> zero-argument callable
    verify: object  # (op, output) -> None, raises reference.Mismatch
    # leaves at least ten samples beyond it at the baseline, inside one kind
    # of op whatever the number of cycles
    tail_percentile: int
    trace_cycles: int  # cycles of the traced run
    spans: tuple[str, ...]  # spans that must fire in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "check", ("ds2", "ds2op", "huet", "deltas"),
            check_cycles, check_call, check_verify, 82, 2,
            ("cli.main", "core.parse", "objects.termination", "residuation.table",
             "residuation.pair", "critical.pairs", "critical.cylinders",
             "critical.check_cylinder", "critical.base_samples", "coherence.check_all",
             "coherence.a1", "coherence.a2", "coherence.a3", "coherence.a4",
             "constructions.opposite", "oracle.search", "oracle.canonical"),
        ),
        Workload(
            "residuate", ("ds2", "ds2op"),
            residuate_cycles, residuate_call, residuate_verify, 92, 3,
            ("core.parse", "residuation.table", "objects.normalize", "residuation.pair",
             "residuation.witness", "constructions.nf_functor"),
        ),
        Workload(
            "compare", ("huet", "ds2", "ds2op"),
            compare_cycles, compare_call, compare_verify, 96, 2,
            ("cli.main", "core.parse", "residuation.table", "constructions.fraction_equal",
             "constructions.quotient", "constructions.localization", "oracle.search",
             "oracle.hom", "oracle.rewrite_moves", "oracle.compare"),
        ),
    )
}
