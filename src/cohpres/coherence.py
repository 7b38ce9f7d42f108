"""Weight evaluation and the orchestrated assumption checkers.

The checks mirror the convergence, one-dimensional termination, cylinder and
two-dimensional termination assumptions, plus the derived conclusions
(coherence of the presentation and faithfulness of the embedding via the
opposite presentation).  Weight quantifications over infinite instance sets
are verified on deterministic bounded samples and reported as such.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from operator import add, mul, sub

from .core import (
    CellTrace,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    WeightSpec,
    Word,
    position,
)
from .critical import (
    CriticalCylinder,
    CriticalPair,
    CylinderVerdict,
    check_cylinder,
    close_exchange_core,
    enumerate_critical_cylinders,
    enumerate_critical_pairs,
    trivial_equational_base_samples,
)
from .objects import check_equational_termination, transposition_number, words_upto
from .residuation import (
    Residuator,
    TableEntry,
    derive_residual_table,
    retype_step,
    steps_disjoint,
)


class WeightError(Exception):
    pass


# ---------------------------------------------------------------------------
# weight evaluation


def _item_data(item, p: Presentation) -> tuple[str, tuple, tuple, tuple]:
    """(entry key, left ctx, right ctx, source body) of a weighted item."""
    if isinstance(item, RewriteStep):
        return item.gen, item.left, item.right, p.gen(item.gen).source
    if isinstance(item, RelationInstance):
        if item.name is not None:
            rel = p.relation_map[item.name]
            return item.name, item.left, item.right, rel.lhs.source
        f, mid, g = item.exch  # type: ignore[misc]
        return "exch", item.left, item.right, p.gen(f).source + mid + p.gen(g).source
    raise WeightError(f"cannot weigh {item!r}")


def eval_weight(
    spec: WeightSpec, item, p: Presentation, x: Word = (), y: Word = ()
) -> tuple[int, ...]:
    """The weight of ``item``, a step or an instance, whiskered by ``x`` on
    the left and ``y`` on the right."""
    key, left, right, body = _item_data(item, p)
    left, right = x + left, right + y
    terms = spec.entries.get(key)
    if terms is None:
        raise WeightError(f"weight {spec.name}: no entry for '{key}'")
    out = []
    for t in terms:
        kind, args = t.kind, t.args
        if kind == "const":
            out.append(t.value)
        elif kind == "countL":
            out.append(left.count(args[0]))
        elif kind == "countR":
            out.append(right.count(args[0]))
        elif kind == "ctx_transp":
            out.append(transposition_number(left + right, args[0], args[1]))
        elif kind == "word_transp":
            out.append(transposition_number(left + body + right, args[0], args[1]))
        else:
            raise WeightError(f"unknown weight term kind '{kind}'")
    return tuple(out)


def weight_of_path(
    spec: WeightSpec, path: Path, p: Presentation, x: Word = (), y: Word = ()
) -> tuple[int, ...]:
    """The weight of ``path`` whiskered by ``x`` and ``y``."""
    total = (0,) * spec.dim
    for s in path.steps:
        total = tuple(map(add, total, eval_weight(spec, s, p, x, y)))
    return total


def weight_of_trace(spec: WeightSpec, trace: CellTrace, p: Presentation) -> tuple[int, ...]:
    """The weight of ``trace``, the sum of its cells' weights."""
    total = (0,) * spec.dim
    for _, inst in trace.moves:
        total = tuple(map(add, total, eval_weight(spec, inst, p)))
    return total


class _Whiskered:
    """Weights under ``spec`` of items whiskered by a context ``(x, y)``,
    each item weighed once and each context once.

    A part ``(w, rows)`` is the items' summed weight and, per coordinate,
    what whiskering adds to it: coefficients (None when all are zero) of the
    context features ``("L", a)`` = #a(x), ``("R", a)`` = #a(y) and ``("T",
    b, a)`` = ``transposition_number(x + y, b, a)``.  Counts add up over
    x·item·y, and T(u·v) = T(u) + T(v) + #b(u)·#a(v), so a (b, a)
    transposition term over the item's word C gains T(x·y) + #b(x)·#a(C) +
    #b(C)·#a(y)."""

    def __init__(self, spec: WeightSpec, p: Presentation):
        self.spec, self.p = spec, p
        feats: dict[tuple, None] = {}
        for terms in spec.entries.values():
            for t in terms:
                if t.kind in ("countL", "countR"):
                    feats[t.kind[-1], t.args[0]] = None
                elif t.kind in ("ctx_transp", "word_transp"):
                    b, a = t.args
                    feats.update(dict.fromkeys([("T", b, a), ("L", b), ("R", a)]))
        self.feats = {k: i for i, k in enumerate(feats)}
        self.zero = (0,) * spec.dim
        self._contexts: dict[tuple[Word, Word], tuple[int, ...]] = {}

    def part(self, items) -> tuple:
        """The summed weight of ``items``, steps or instances, and its
        coefficient rows; raises WeightError where ``eval_weight`` would."""
        w, rows = self.zero, [[0] * len(self.feats) for _ in self.zero]
        for item in items:
            w = tuple(map(add, w, eval_weight(self.spec, item, self.p)))
            key, left, right, body = _item_data(item, self.p)
            for row, t in zip(rows, self.spec.entries[key]):
                if t.kind in ("countL", "countR"):
                    row[self.feats[t.kind[-1], t.args[0]]] += 1
                elif t.kind in ("ctx_transp", "word_transp"):
                    b, a = t.args
                    c = left + right if t.kind == "ctx_transp" else left + body + right
                    row[self.feats["T", b, a]] += 1
                    row[self.feats["L", b]] += c.count(a)
                    row[self.feats["R", a]] += c.count(b)
        return w, tuple(tuple(r) if any(r) else None for r in rows)

    def at(self, part: tuple, x: Word, y: Word) -> tuple[int, ...]:
        """The weight of a part's items, each whiskered by ``x`` and ``y``."""
        phi = self._contexts.get((x, y))
        if phi is None:
            phi = self._contexts[x, y] = tuple(
                x.count(k[1]) if k[0] == "L" else y.count(k[1]) if k[0] == "R"
                else transposition_number(x + y, k[1], k[2])
                for k in self.feats
            )
        return tuple([v + sum(map(mul, r, phi)) if r else v for v, r in zip(*part)])

    def settled(self, a: tuple, b: tuple) -> bool | None:
        """True when, whiskered by every context, part ``a``'s items weigh
        less than ``b``'s; False when by none; None when that depends on the
        context.  Both orders compare a - b with zero, and features are never
        negative, so a coordinate of a - b whose coefficients all have its
        weight's sign keeps that sign."""
        w = tuple(map(sub, a[0], b[0]))
        none = (0,) * len(self.feats)
        rows = [tuple(map(sub, ra or none, rb or none)) for ra, rb in zip(a[1], b[1])]
        if self.spec.order != "lex":
            return weight_less(self.spec, w, self.zero) if not any(map(any, rows)) else None
        for v, r in zip(w, rows):
            if any(r):
                return v < 0 if v < 0 and max(r) <= 0 or v > 0 and min(r) >= 0 else None
            if v:
                return v < 0
        return False


def _whisker(x: Word, item, y: Word):
    """The step or instance ``item`` whiskered by ``x`` and ``y``."""
    return replace(item, left=x + item.left, right=item.right + y)


def weight_less(spec: WeightSpec, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if spec.order == "lex":
        return a < b
    return all(x <= y for x, y in zip(a, b)) and a != b


# ---------------------------------------------------------------------------
# verdicts and report


@dataclass
class Verdict:
    status: str  # "pass" | "fail" | "inconclusive"
    witnesses: list[str] = field(default_factory=list)
    note: str = ""


@dataclass
class CheckReport:
    mode: str
    a3_mode: str
    strong: bool
    assumptions: dict[str, Verdict]
    critical_pairs: list[CriticalPair]
    cylinders: list[tuple[CriticalCylinder, CylinderVerdict | None]]
    coherent: str
    faithful_embedding: str
    faithful_note: str = ""
    timings: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# the per-run check context


BaseRecord = tuple[RewriteStep, RelationInstance, Word, Word, CellTrace | None, Path | None]

# bounds of the top search of each sampled base core left to check_cylinder
BASE_MAX_CELLS, BASE_BUDGET = 8, 20_000


class CheckContext:
    """One presentation under one set of bounds: the only input of the
    assumption checks.  It derives the residual table and computes, on first
    use and at most once, the critical pairs and cylinders, one memoizing
    ``Residuator``, the verdict of each critical cylinder, the sampled
    equational-base coincidences and their records, and each assumption
    verdict asked of ``check_assumption``.  The attempts of an opposite
    probe and ``cohpres critical`` share them.

    ``term_budget`` and ``max_len`` bound the termination exploration of A1;
    ``max_cells`` and ``budget`` bound each critical cylinder's top-trace
    search, and ``BASE_MAX_CELLS`` and ``BASE_BUDGET`` that of each base
    core left to ``check_cylinder``.

    A base record ``(f, inst, x, y, top, fg)`` stands for one sampled
    trivially completable coincidence x·(f | inst)·y of a vertical step with
    an equational-sided base, in sample order.  It holds the sample's
    context-stripped core ``(f, inst)``, its context ``(x, y)`` and the
    core's results: the vertical residual ``fg`` along the base's second
    side and the top trace joining the two residuals of the base's sides
    (``None`` when residuation fails, the residuals are not cofinal or the
    search runs out).  Each core is closed once.  An exchange core whose
    side residuals naturality of exchange fixes, and finds exchange-equal,
    is built directly (``critical.close_exchange_core``); the others, named
    bases among them, go to ``check_cylinder`` as critical cylinders do.
    Both give the results ``check_cylinder`` gives.  A core's results,
    whiskered by ``(x, y)``, are the sample's: the checks read them so,
    weigh them as the core's weight plus the context's contribution
    (``_Whiskered``), and whisker a step or instance only to print it.

    This is exact because every step of the computation commutes with
    whiskering.  The residual of x·g·y after x·f·y is x·(g/f)·y: equality,
    disjointness, retyping and tile lookup only see the positions relative
    to the shared context, in the zig-zag and in the construction alike.
    Exchange-canonical forms and their moves whisker move for move, so the
    exchange trace of two whiskered paths is the whiskered trace.  The
    top-trace search from x·l·y to x·r·y visits the whiskerings of the
    states it visits from l to r, move for move and in the same order, so
    it returns the whiskered trace and runs out of its cell or node budget
    exactly when the core search does.  The search needs one condition for
    this: every side of every relation has a step with empty left context
    and one with empty right context.  A side whose outer letters no step
    touches (an identity side above all) can match with its window reaching
    into the context, a move the core does not have, so a presentation with
    such a side is sampled without stripping.  The shared ``Residuator``
    spends its budget across the whole run rather than per call, and memo
    hits cost nothing.
    """

    def __init__(
        self,
        p: Presentation,
        term_budget: int = 10_000,
        max_len: int = 6,
        max_cells: int = 12,
        budget: int = 50_000,
    ):
        self.p = p
        self.term_budget = term_budget
        self.max_len = max_len
        self.max_cells = max_cells
        self.budget = budget
        self.table = derive_residual_table(p)
        self.verdicts: dict[tuple, Verdict] = {}

    @cached_property
    def pairs(self) -> list[CriticalPair]:
        return enumerate_critical_pairs(self.p, self.table)

    @cached_property
    def cylinders(self) -> list[CriticalCylinder]:
        return enumerate_critical_cylinders(self.p, self.table)

    @cached_property
    def residuator(self) -> Residuator:
        return Residuator(self.p, self.table)

    @cached_property
    def cylinder_verdicts(self) -> list[tuple[CriticalCylinder, CylinderVerdict]]:
        return [
            (c, check_cylinder(c.f, c.base, self.residuator, self.max_cells, self.budget))
            for c in self.cylinders
        ]

    @cached_property
    def base_samples(self) -> list[tuple[tuple[RewriteStep, RelationInstance], Word, Word]]:
        return trivial_equational_base_samples(self.p)

    @cached_property
    def base_records(self) -> list[BaseRecord]:
        closed: dict[int, tuple] = {}  # by core; a core's samples share one object
        records = []
        for core, x, y in self.base_samples:
            done = closed.get(id(core))
            if done is None:
                done = closed[id(core)] = self._close(*core)
            records.append((*core, x, y, *done))
        return records

    def _close(self, f: RewriteStep, inst: RelationInstance) -> tuple:
        """``(top, fg)`` of a base core: by naturality for an exchange base
        where it fixes them, else from ``check_cylinder``."""
        if inst.exch is not None:
            built = close_exchange_core(f, inst, self.residuator)
            if built is not None:
                return built
        v = check_cylinder(f, inst, self.residuator, BASE_MAX_CELLS, BASE_BUDGET)
        return v.top, None if v.vertical_residuals is None else v.vertical_residuals[1]


# ---------------------------------------------------------------------------
# A1: residuation tiles + equational termination


def check_a1(ctx: CheckContext) -> Verdict:
    p = ctx.p
    witnesses: list[str] = []
    for cp in ctx.pairs:
        if not cp.resolved:
            witnesses.append(
                f"unresolved critical pair ({p.fmt_step(cp.f)}, {p.fmt_step(cp.g)}) "
                f"on {p.fmt_word(cp.word)}"
            )
    for msg in ctx.table.conflicts:
        witnesses.append(msg)
    term = check_equational_termination(p, budget=ctx.term_budget, max_len=ctx.max_len)
    if term.status == "cycle":
        witnesses.append(
            "equational cycle: " + " -> ".join(p.fmt_word(w) for w in term.cycle)
        )
    if witnesses:
        return Verdict("fail", witnesses)
    if term.status == "budget_exhausted":
        return Verdict(
            "inconclusive",
            [],
            f"termination exploration exhausted its budget of {term.budget} words",
        )
    return Verdict("pass", [], f"{len(ctx.pairs)} critical pairs resolved; terminating")


# ---------------------------------------------------------------------------
# A2: one-dimensional termination weight


def check_a2(ctx: CheckContext) -> Verdict:
    p = ctx.p
    if not p.equational_names:
        return Verdict("pass", [], "vacuous: no equational generators")
    w1 = p.weights.get("omega1")
    if w1 is None:
        return Verdict("inconclusive", [], "no omega1 weight block supplied")
    witnesses: list[str] = []

    def strict(res_w, orig_w, what: str) -> None:
        if not weight_less(w1, res_w, orig_w):
            witnesses.append(f"omega1 not decreasing on {what}: {res_w} !< {orig_w}")

    contexts = words_upto(p, 3)
    weights = _Whiskered(w1, p)
    try:
        # the tiles in the order of the text of (window, sorted heads), the
        # order of A2's witness lines; a sort on ``tile_key`` would reorder them
        def order(e: TableEntry) -> str:
            heads = sorted((s.gen, len(s.left)) for s in (e.first, e.second))
            return str((p.step_source(e.first), tuple(heads)))

        for e in sorted(ctx.table.entries.values(), key=order):
            if p.is_equational_step(e.second):
                continue
            res, orig = weights.part(e.second_after_first.steps), weights.part([e.second])
            strict(
                res[0],
                orig[0],
                f"tile residual {p.fmt_path(e.second_after_first)} of {p.fmt_step(e.second)}",
            )
            if p.mode != "monoidal":
                continue
            # context compatibility, sampled over whiskering contexts
            if weights.settled(res, orig):
                continue
            for x, y in product(contexts, contexts):
                if not (x or y):
                    continue
                wres, worig = weights.at(res, x, y), weights.at(orig, x, y)
                if not weight_less(w1, wres, worig):
                    witnesses.append(
                        f"omega1 strictness lost under whiskering ({p.fmt_word(x)})...({p.fmt_word(y)}) "
                        f"of tile for {p.fmt_step(e.second)}: {wres} !< {worig}"
                    )
                    break
        # exchange residuals: all generator pairs, middle words up to length 2
        if p.mode == "monoidal":
            mids = words_upto(p, 2)
            for e in p.generators:
                if not e.equational:
                    continue
                for h in p.generators:
                    for mid in mids:
                        for e_left in (True, False):
                            if e_left:
                                f = RewriteStep((), e.name, mid + h.source)
                                g = RewriteStep(e.source + mid, h.name, ())
                            else:
                                f = RewriteStep(h.source + mid, e.name, ())
                                g = RewriteStep((), h.name, mid + e.source)
                            if not steps_disjoint(p, position(f), position(g)):
                                continue
                            res = p.step_at(p.step_target(f), retype_step(p, position(g), position(f)))
                            strict(
                                eval_weight(w1, res, p),
                                eval_weight(w1, g, p),
                                f"exchange residual {p.fmt_step(res)} of {p.fmt_step(g)} "
                                f"after {p.fmt_step(f)}",
                            )
    except WeightError as exc:
        return Verdict("inconclusive", [], str(exc))
    if witnesses:
        return Verdict("fail", witnesses)
    return Verdict("pass", [], "strict decrease on tiles and sampled exchange residuals")


# ---------------------------------------------------------------------------
# A3 / A3': cylinder property


def check_a3(ctx: CheckContext, mode: str = "strict") -> Verdict:
    p = ctx.p
    failures: list[str] = []
    open_questions: list[str] = []
    ok = ("equal",) if mode == "strict" else ("equal", "exchange_equal")
    for cyl, v in ctx.cylinder_verdicts:
        label = f"cylinder ({p.fmt_step(cyl.f)} | {p.fmt_instance(cyl.base)})"
        if v.residual_targets_equal not in ok:
            detail = ""
            if v.vertical_residuals:
                r1, r2 = v.vertical_residuals
                detail = f": {p.fmt_path(r1)} vs {p.fmt_path(r2)}"
            failures.append(
                f"{label}: vertical residuals {v.residual_targets_equal}{detail}"
            )
        if v.top is None:
            # search exhaustion alone is inconclusive, never a failure
            open_questions.append(f"{label}: no top trace found ({v.notes})")
    if mode == "up_to_exchange":
        # condition 2: residuals of exchange cells stay composites of exchanges
        for cyl, v in ctx.cylinder_verdicts:
            if cyl.base.exch is None or v.top is None:
                continue
            if any(m.inst.exch is None for m in v.top.moves):
                failures.append(
                    f"residual of exchange base {p.fmt_instance(cyl.base)} uses "
                    "non-exchange cells"
                )
        for f, inst, x, y, top, _ in ctx.base_records:
            if inst.exch is None:
                continue
            if top is None:
                open_questions.append(
                    f"sampled exchange residual after {p.fmt_step(_whisker(x, f, y))} "
                    "not reconstructed"
                )
            elif any(m.inst.exch is None for m in top.moves):
                failures.append(
                    f"sampled residual of {p.fmt_instance(_whisker(x, inst, y))} after "
                    f"{p.fmt_step(_whisker(x, f, y))} uses non-exchange cells"
                )
    if failures:
        return Verdict("fail", failures + open_questions)
    if open_questions:
        return Verdict("inconclusive", open_questions, "top-trace search exhausted")
    return Verdict("pass", [], f"{len(ctx.cylinder_verdicts)} critical cylinders close ({mode})")


# ---------------------------------------------------------------------------
# A4: two-dimensional termination weight


def check_a4(ctx: CheckContext, strong: bool = False) -> Verdict:
    p = ctx.p
    if not p.equational_names:
        return Verdict("pass", [], "vacuous: no equational generators")
    # the vertical and base weights, each defaulting to a shared omega2
    w2v = p.weights.get("omega2v") or p.weights.get("omega2")
    w2b = p.weights.get("omega2b") or p.weights.get("omega2")
    witnesses: list[str] = []
    inconclusive_notes: list[str] = []

    def exempt(rv: Path | None) -> bool:
        return strong and rv is not None and len(rv.steps) <= 1

    if w2b is None and ctx.base_samples:
        return Verdict("inconclusive", [], "missing omega2 weight block")
    try:
        for cyl, v in ctx.cylinder_verdicts:
            spec = w2v if cyl.flavor == "equational_vertical" else w2b
            if spec is None:
                return Verdict("inconclusive", [], "missing omega2 weight block")
            if v.top is None:
                inconclusive_notes.append(
                    f"no top trace for ({p.fmt_step(cyl.f)} | {p.fmt_instance(cyl.base)})"
                )
                continue
            if exempt(v.vertical_residual):
                continue
            base_w = eval_weight(spec, cyl.base, p)
            top_w = weight_of_trace(spec, v.top, p)
            if not weight_less(spec, top_w, base_w):
                witnesses.append(
                    f"omega2({p.fmt_instance(cyl.base)}) = {base_w} !> {top_w} = omega2(top)"
                )
        weights = _Whiskered(w2b, p) if w2b is not None else None
        parts: dict[int, tuple] = {}  # by top; the records of a core share one
        for f, inst, x, y, top, rv in ctx.base_records:
            if top is None:
                inconclusive_notes.append(
                    f"sample after {p.fmt_step(_whisker(x, f, y))}: residual not reconstructed"
                )
                continue
            if exempt(rv):
                continue
            if id(top) not in parts:
                base, over = weights.part([inst]), weights.part([m.inst for m in top.moves])
                parts[id(top)] = base, over, weights.settled(over, base)
            base, over, settled = parts[id(top)]
            if settled:
                continue
            base_w, top_w = weights.at(base, x, y), weights.at(over, x, y)
            if not weight_less(w2b, top_w, base_w):
                if len(top) == 1:
                    res_txt = f"omega2({p.fmt_instance(_whisker(x, top.moves[0].inst, y))})"
                else:
                    res_txt = "omega2(residual)"
                witnesses.append(
                    f"omega2({p.fmt_instance(_whisker(x, inst, y))}) = {base_w} !> {top_w}"
                    f" = {res_txt} [vertical {p.fmt_step(_whisker(x, f, y))}]"
                )
    except WeightError as exc:
        return Verdict("inconclusive", [], str(exc))
    if witnesses:
        return Verdict("fail", witnesses)
    if inconclusive_notes:
        return Verdict("inconclusive", inconclusive_notes, "some tops unavailable")
    note = "strict decrease on cylinder tops"
    if strong:
        note += " (single-step vertical residuals exempted)"
    return Verdict("pass", [], note)


# ---------------------------------------------------------------------------
# the full report

# the assumptions each verdict is gated on, in the order they are checked
GATES = {"a1": (), "a2": ("a1",), "a3": ("a1",), "a4": ("a1", "a3")}


def check_assumption(
    ctx: CheckContext, name: str, a3_mode: str = "strict", strong: bool = False
) -> Verdict:
    """The verdict of assumption ``name``, computed at most once per context.
    Only its gates are computed before it; if one does not pass, the
    assumption is skipped as inconclusive."""
    key = (name, a3_mode if name in ("a3", "a4") else "", strong and name == "a4")
    if key not in ctx.verdicts:
        for gate in GATES[name]:
            if check_assumption(ctx, gate, a3_mode, strong).status != "pass":
                v = Verdict("inconclusive", [], f"skipped: {gate.upper()} did not pass")
                break
        else:
            if name == "a1":
                v = check_a1(ctx)
            elif name == "a2":
                v = check_a2(ctx)
            elif name == "a3":
                v = check_a3(ctx, a3_mode)
            else:
                v = check_a4(ctx, strong)
        ctx.verdicts[key] = v
    return ctx.verdicts[key]


def check_all(
    p: Presentation,
    a3_mode: str = "strict",
    strong: bool = False,
    term_budget: int = 10_000,
    max_len: int = 6,
    max_cells: int = 12,
    budget: int = 50_000,
    run_opposite: bool = True,
) -> CheckReport:
    """Run A1 to A4 in order, derive coherence, and probe the opposite
    presentation for the faithful-embedding conclusion."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    ctx = CheckContext(p, term_budget, max_len, max_cells, budget)
    assumptions: dict[str, Verdict] = {}
    for name in GATES:
        assumptions[name] = check_assumption(ctx, name, a3_mode, strong)
        if name == "a1" or assumptions["a1"].status == "pass":
            timings[name] = time.perf_counter() - t0
        t0 = time.perf_counter()
    if assumptions["a1"].status == "pass":
        results = ctx.cylinder_verdicts
    else:
        results = [(c, None) for c in ctx.cylinders]
    statuses = [v.status for v in assumptions.values()]
    if all(s == "pass" for s in statuses):
        coherent = "pass"
    elif "fail" in statuses:
        coherent = "fail"
    else:
        coherent = "inconclusive"
    faithful, note = "inconclusive", "opposite presentation not checked"
    if run_opposite:
        from .constructions import opposite

        op = opposite(p)
        t0 = time.perf_counter()
        # the opposite keeps the default search bounds
        op_ctx = CheckContext(op, term_budget, max_len)
        faithful, note = _faithful_embedding(op_ctx, a3_mode, strong)
        timings["opposite"] = time.perf_counter() - t0
    return CheckReport(
        p.mode, a3_mode, strong, assumptions, ctx.pairs, results, coherent, faithful, note,
        timings=timings,
    )


def _faithful_embedding(ctx: CheckContext, a3_mode: str, strong: bool) -> tuple[str, str]:
    """The faithful-embedding verdict and note from the opposite
    presentation's context: A1 and A2 once, then A3 and A4 for each
    ``(a3_mode, strong)`` attempt until one passes."""
    if check_assumption(ctx, "a2").status == "pass":
        attempts = [("strict", False), (a3_mode, strong), ("up_to_exchange", True)]
        for mode, strg in dict.fromkeys(attempts):
            if check_assumption(ctx, "a4", mode, strg).status == "pass":
                suffix = ", strong)" if strg else ")"
                return "pass", f"opposite presentation coherent ({mode}{suffix}"
    if check_assumption(ctx, "a1").status == "fail":
        return "fail", "opposite presentation fails convergence (A1)"
    return "inconclusive", "opposite presentation not verified with the carried-over weights"


# ---------------------------------------------------------------------------
# structured report serialization


def report_to_dict(report: CheckReport, p: Presentation, include_timings: bool = False) -> dict:
    out: dict = {
        "mode": report.mode,
        "a3_mode": report.a3_mode,
        "strong": report.strong,
        "assumptions": {
            name: {"verdict": v.status, "witnesses": list(v.witnesses), "note": v.note}
            for name, v in report.assumptions.items()
        },
        "criticalPairs": [
            {
                "word": p.fmt_word(cp.word),
                "f": p.fmt_step(cp.f),
                "g": p.fmt_step(cp.g),
                "resolved": cp.resolved,
            }
            for cp in report.critical_pairs
        ],
        "cylinders": [
            {
                "vertical": p.fmt_step(c.f),
                "base": p.fmt_instance(c.base),
                "flavor": c.flavor,
                "verdict": None if v is None else v.residual_targets_equal,
                "topCells": None if v is None or v.top is None else len(v.top),
            }
            for c, v in report.cylinders
        ],
        "coherent": report.coherent,
        "faithfulEmbedding": report.faithful_embedding,
        "faithfulNote": report.faithful_note,
    }
    if include_timings:
        out["timings"] = dict(report.timings)
    return out
