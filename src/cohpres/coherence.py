"""Weight evaluation and the orchestrated assumption checkers.

The checks mirror the convergence, one-dimensional termination, cylinder and
two-dimensional termination assumptions, plus the derived conclusions
(coherence of the presentation and faithfulness of the embedding via the
opposite presentation).  Weight quantifications over infinite instance sets
are verified on deterministic bounded samples and reported as such.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

from .core import (
    CellTrace,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    WeightSpec,
    instance_sides,
    tensor_ctx,
    trace_tensor_ctx,
)
from .critical import (
    CriticalCylinder,
    CriticalPair,
    CylinderVerdict,
    check_cylinder,
    enumerate_critical_cylinders,
    enumerate_critical_pairs,
    trivial_equational_base_samples,
)
from .objects import check_equational_termination, transposition_number, words_upto
from .residuation import (
    ResiduationError,
    Residuator,
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


def eval_weight(spec: WeightSpec, item, p: Presentation) -> tuple[int, ...]:
    key, left, right, body = _item_data(item, p)
    terms = spec.entries.get(key)
    if terms is None:
        raise WeightError(f"weight {spec.name}: no entry for '{key}'")
    out = []
    for t in terms:
        if t.kind == "const":
            out.append(t.value)
        elif t.kind == "countL":
            out.append(sum(1 for c in left if c == t.args[0]))
        elif t.kind == "countR":
            out.append(sum(1 for c in right if c == t.args[0]))
        elif t.kind == "ctx_transp":
            out.append(transposition_number(left + right, t.args[0], t.args[1]))
        elif t.kind == "word_transp":
            out.append(transposition_number(left + body + right, t.args[0], t.args[1]))
        else:
            raise WeightError(f"unknown weight term kind '{t.kind}'")
    return tuple(out)


def weight_of_path(spec: WeightSpec, path: Path, p: Presentation) -> tuple[int, ...]:
    total = (0,) * spec.dim
    for s in path.steps:
        total = tuple(a + b for a, b in zip(total, eval_weight(spec, s, p)))
    return total


def weight_of_trace(spec: WeightSpec, trace: CellTrace, p: Presentation) -> tuple[int, ...]:
    total = (0,) * spec.dim
    for cell in trace.cells:
        total = tuple(a + b for a, b in zip(total, eval_weight(spec, cell.inst, p)))
    return total


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


def omega1(p: Presentation) -> WeightSpec | None:
    return p.weights.get("omega1")


def omega2_vertical(p: Presentation) -> WeightSpec | None:
    return p.weights.get("omega2v") or p.weights.get("omega2")


def omega2_base(p: Presentation) -> WeightSpec | None:
    return p.weights.get("omega2b") or p.weights.get("omega2")


# ---------------------------------------------------------------------------
# the per-run check context


BaseRecord = tuple[RewriteStep, RelationInstance, CellTrace | None, Path | None]


class CheckContext:
    """One presentation under one set of bounds: the only input of the
    assumption checks.  It derives the residual table and computes, on first
    use and at most once, everything that does not depend on
    ``(a3_mode, strong)``: the critical pairs and cylinders, one memoizing
    ``Residuator``, the verdict of each critical cylinder and the sampled
    equational-base records.  The attempts of an opposite probe and
    ``cohpres critical`` share them.

    ``term_budget`` and ``max_len`` bound the termination exploration of A1;
    ``max_cells`` and ``budget`` bound each cylinder's top-trace search.

    A base record ``(f, inst, top, fg)`` holds, for a sampled trivially
    completable coincidence of the vertical ``f`` with the equational-sided
    base ``inst``, the vertical residual ``fg`` along the base's second side
    and the top trace joining the two residuals of the base's sides (``None``
    when residuation fails or the search runs out).  The samples are
    whiskerings x·(f' | inst')·y of far fewer cores, so each core is computed
    once and whiskered back.  This is exact because every step of the
    computation commutes with whiskering: the residual of x·g·y after x·f·y is
    x·(g/f)·y (equality, disjointness, retyping and tile lookup only see the
    positions relative to the shared context), and the top-trace search from
    x·l·y to x·r·y visits the whiskerings of the states it visits from l to r,
    move for move and in the same order, so it returns the whiskered trace
    and runs out of its cell or node budget exactly when the core search
    does.  The search needs one condition for this: every side of every
    relation has a step with empty left context and one with empty right
    context.  A side whose outer letters no step touches (an identity side
    above all) can match with its window reaching into the context, a move
    the core does not have, so a presentation with such a side is sampled
    without stripping.  The shared ``Residuator`` spends its budget across
    the whole run rather than per call, and memo hits cost nothing.
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
            (c, check_cylinder(c, self.residuator, self.max_cells, self.budget))
            for c in self.cylinders
        ]

    @cached_property
    def base_records(self) -> list[BaseRecord]:
        p = self.p
        strip = all(
            any(not s.left for s in side.steps) and any(not s.right for s in side.steps)
            for r in p.relations
            for side in (r.lhs, r.rhs)
        )
        cores: dict[tuple[RewriteStep, RelationInstance], tuple] = {}
        records = []
        for f, inst in trivial_equational_base_samples(p):
            # x and y: the context f and inst share on the left and the right
            nl = min(len(f.left), len(inst.left)) if strip else 0
            nr = min(len(f.right), len(inst.right)) if strip else 0
            x, y = f.left[:nl], f.right[len(f.right) - nr :]
            core = (
                RewriteStep(f.left[nl:], f.gen, f.right[: len(f.right) - nr]),
                RelationInstance(
                    inst.left[nl:],
                    inst.right[: len(inst.right) - nr],
                    inst.forward,
                    inst.name,
                    inst.exch,
                ),
            )
            if core not in cores:
                cores[core] = self._base_core(*core)
            top, fg = cores[core]
            if top is not None:
                top = trace_tensor_ctx(p, x, top, y)
            if fg is not None:
                fg = tensor_ctx(p, x, fg, y)
            records.append((f, inst, top, fg))
        return records

    def _base_core(
        self, f: RewriteStep, inst: RelationInstance
    ) -> tuple[CellTrace | None, Path | None]:
        """(top, fg) for the coincidence of ``f`` with ``inst``."""
        from . import oracle

        p = self.p
        lhs, rhs = instance_sides(p, inst)
        fpath = Path(lhs.source, (f,))
        try:
            _, l_res = self.residuator.pair(fpath, lhs)
            fg, r_res = self.residuator.pair(fpath, rhs)
        except ResiduationError:
            return None, None
        if l_res == r_res:
            return CellTrace(l_res, ()), fg
        return oracle.search_trace(p, l_res, r_res, max_cells=8, budget=20_000), fg


# ---------------------------------------------------------------------------
# A1: residuation tiles + equational termination


def check_a1(ctx: CheckContext) -> Verdict:
    p = ctx.p
    witnesses: list[str] = []
    for cp in ctx.pairs:
        if cp.resolved is None:
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
    w1 = omega1(p)
    if w1 is None:
        return Verdict("inconclusive", [], "no omega1 weight block supplied")
    witnesses: list[str] = []

    def strict(res_w, orig_w, what: str) -> None:
        if not weight_less(w1, res_w, orig_w):
            witnesses.append(f"omega1 not decreasing on {what}: {res_w} !< {orig_w}")

    contexts = words_upto(p, 3)
    try:
        entries = sorted(ctx.table.entries.items(), key=lambda kv: str(kv[0]))
        for _, e in entries:
            if p.is_equational_step(e.second):
                continue
            strict(
                weight_of_path(w1, e.second_after_first, p),
                eval_weight(w1, e.second, p),
                f"tile residual {p.fmt_path(e.second_after_first)} of {p.fmt_step(e.second)}",
            )
            if p.mode != "monoidal":
                continue
            # context compatibility, sampled over whiskering contexts
            for x in contexts:
                for y in contexts:
                    if not x and not y:
                        continue
                    wres = weight_of_path(
                        w1, tensor_ctx(p, x, e.second_after_first, y), p
                    )
                    worig = eval_weight(
                        w1, RewriteStep(x + e.second.left, e.second.gen, e.second.right + y), p
                    )
                    if not weight_less(w1, wres, worig):
                        witnesses.append(
                            f"omega1 strictness lost under whiskering ({p.fmt_word(x)})...({p.fmt_word(y)}) "
                            f"of tile for {p.fmt_step(e.second)}: {wres} !< {worig}"
                        )
                        break
                else:
                    continue
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
                            if not steps_disjoint(p, f, g):
                                continue
                            res = retype_step(p, g, f)
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
            if any(c.inst.exch is None for c in v.top.cells):
                failures.append(
                    f"residual of exchange base {p.fmt_instance(cyl.base)} uses "
                    "non-exchange cells"
                )
        for f, inst, top, _ in ctx.base_records:
            if inst.exch is None:
                continue
            if top is None:
                open_questions.append(
                    f"sampled exchange residual after {p.fmt_step(f)} not reconstructed"
                )
            elif any(c.inst.exch is None for c in top.cells):
                failures.append(
                    f"sampled residual of {p.fmt_instance(inst)} after {p.fmt_step(f)} "
                    "uses non-exchange cells"
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
    w2v, w2b = omega2_vertical(p), omega2_base(p)
    witnesses: list[str] = []
    inconclusive_notes: list[str] = []

    def exempt(rv: Path | None) -> bool:
        return strong and rv is not None and len(rv.steps) <= 1

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
        if w2b is not None:
            for f, inst, top, rv in ctx.base_records:
                if top is None:
                    inconclusive_notes.append(
                        f"sample after {p.fmt_step(f)}: residual not reconstructed"
                    )
                    continue
                if exempt(rv):
                    continue
                base_w = eval_weight(w2b, inst, p)
                top_w = weight_of_trace(w2b, top, p)
                if not weight_less(w2b, top_w, base_w):
                    if len(top.cells) == 1:
                        res_txt = f"omega2({p.fmt_instance(top.cells[0].inst)})"
                    else:
                        res_txt = "omega2(residual)"
                    witnesses.append(
                        f"omega2({p.fmt_instance(inst)}) = {base_w} !> {top_w} = {res_txt}"
                        f" [vertical {p.fmt_step(f)}]"
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
    a1 = check_a1(ctx)
    timings["a1"] = time.perf_counter() - t0

    if a1.status == "pass":
        t0 = time.perf_counter()
        a2 = check_a2(ctx)
        timings["a2"] = time.perf_counter() - t0
        a3, a4 = _check_a3_a4(ctx, a3_mode, strong, timings)
        assumptions = {"a1": a1, "a2": a2, "a3": a3, "a4": a4}
        results = ctx.cylinder_verdicts
    else:
        skip = Verdict("inconclusive", [], "skipped: A1 did not pass")
        assumptions = {"a1": a1, "a2": skip, "a3": skip, "a4": skip}
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


def _check_a3_a4(
    ctx: CheckContext, a3_mode: str, strong: bool, timings: dict[str, float]
) -> tuple[Verdict, Verdict]:
    """The A3 and A4 verdicts; only these depend on ``(a3_mode, strong)``."""
    t0 = time.perf_counter()
    a3 = check_a3(ctx, a3_mode)
    timings["a3"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if a3.status == "pass":
        a4 = check_a4(ctx, strong)
    else:
        a4 = Verdict("inconclusive", [], "skipped: A3 did not pass")
    timings["a4"] = time.perf_counter() - t0
    return a3, a4


def _faithful_embedding(ctx: CheckContext, a3_mode: str, strong: bool) -> tuple[str, str]:
    """The faithful-embedding verdict and note from the opposite
    presentation's context: A1 and A2 once, then A3 and A4 for each
    ``(a3_mode, strong)`` attempt until one passes."""
    a1 = check_a1(ctx)
    if a1.status == "pass" and check_a2(ctx).status == "pass":
        attempts = [("strict", False), (a3_mode, strong), ("up_to_exchange", True)]
        for mode, strg in dict.fromkeys(attempts):
            a3, a4 = _check_a3_a4(ctx, mode, strg, {})
            if a3.status == a4.status == "pass":
                suffix = ", strong)" if strg else ")"
                return "pass", f"opposite presentation coherent ({mode}{suffix}"
    if a1.status == "fail":
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
                "resolved": cp.resolved is not None,
            }
            for cp in report.critical_pairs
        ],
        "cylinders": [
            {
                "vertical": p.fmt_step(c.f),
                "base": p.fmt_instance(c.base),
                "flavor": c.flavor,
                "verdict": None if v is None else v.residual_targets_equal,
                "topCells": None if v is None or v.top is None else len(v.top.cells),
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
