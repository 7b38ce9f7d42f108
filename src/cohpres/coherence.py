"""Weight evaluation and the orchestrated assumption checkers.

The checks mirror the convergence, one-dimensional termination, cylinder and
two-dimensional termination assumptions, plus the derived conclusions
(coherence of the presentation and faithfulness of the embedding via the
opposite presentation).  Weight quantifications over infinite instance sets
are verified on deterministic bounded samples and reported as such.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product
from operator import add, itemgetter, sub

from . import constructions
from .core import (
    CellTrace,
    Move,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    WeightSpec,
    Word,
    instance_sides,
    trace_from_moves,
)
from .critical import (
    SLOTS,
    BaseSamples,
    BaseShape,
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
    ResidualTable,
    Residuator,
    TableEntry,
    derive_residual_table,
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


def weight_of_path(spec: WeightSpec, path: Path, p: Presentation) -> tuple[int, ...]:
    """The weight of ``path``, the sum of its steps' weights."""
    total = (0,) * spec.dim
    for s in path.steps:
        total = tuple(map(add, total, eval_weight(spec, s, p)))
    return total


def weight_of_trace(spec: WeightSpec, trace: CellTrace, p: Presentation) -> tuple[int, ...]:
    """The weight of ``trace``, the sum of its cells' weights."""
    total = (0,) * spec.dim
    for _, inst in trace.moves:
        total = tuple(map(add, total, eval_weight(spec, inst, p)))
    return total


# the letters of the contexts x and y of a whiskered item, and every slot letter
_X, _Y = "<x>", "<y>"
_MARKS = frozenset((_X, _Y, *SLOTS))


class _Whiskered:
    """Weights under ``spec`` of items whiskered by a context ``(x, y)``,
    each item weighed once and each context once.  An item's words may hold
    a marked shape's slot letters (``critical.SLOTS``), each any gap word.

    A part ``(w, rows)`` is the items' summed weight with every slot empty
    and, per coordinate, the coefficients (a dict, None when empty) of the
    features of the slots, x and y being two more slots at the two ends:
    ``("#", s, a)`` = #a(s), ``("T", s, b, a)`` = ``transposition_number(s,
    b, a)`` and ``("*", s, b, t, a)`` = #b(s)·#a(t) for a slot s left of t.
    Counts add up over a word, and T(u·v) = T(u) + T(v) + #b(u)·#a(v), so a
    (b, a) transposition term over a word of letters and slots is its
    letters' term plus these features, each slot's count weighted by the
    letters on its other side."""

    def __init__(self, spec: WeightSpec, p: Presentation):
        self.spec, self.p = spec, p
        self.zero = (0,) * spec.dim
        self._contexts: dict[tuple[Word, Word], dict] = {}

    def part(self, items) -> tuple:
        """The summed weight of ``items``, steps or instances, and its
        coefficient rows; raises WeightError where ``eval_weight`` would."""
        w, rows = self.zero, [Counter() for _ in self.zero]
        for item in items:
            w = tuple(map(add, w, eval_weight(self.spec, item, self.p)))
            key, left, right, body = _item_data(item, self.p)
            left, right = (_X,) + left, right + (_Y,)
            for row, t in zip(rows, self.spec.entries[key]):
                if t.kind in ("countL", "countR"):
                    for c in left if t.kind == "countL" else right:
                        if c in _MARKS:
                            row["#", c, t.args[0]] += 1
                elif t.kind in ("ctx_transp", "word_transp"):
                    (b, a), bs, seen = t.args, 0, []
                    for c in left + body + right if t.kind == "word_transp" else left + right:
                        if c in _MARKS:
                            row["T", c, b, a] += 1
                            row["#", c, a] += bs
                            for s in seen:
                                row["*", s, b, c, a] += 1
                            seen.append(c)
                        elif c == a:
                            for s in seen:
                                row["#", s, b] += 1
                        bs += c == b
        return w, tuple(+r or None for r in rows)

    def at(self, part: tuple, x: Word, y: Word) -> tuple[int, ...]:
        """The weight of a part's items, each whiskered by ``x`` and ``y``."""
        phi = self._contexts.setdefault((x, y), {})
        words = {_X: x, _Y: y}
        for row in filter(None, part[1]):
            for k in row.keys() - phi.keys():
                u = words.get(k[1], ())
                phi[k] = (
                    u.count(k[2]) if k[0] == "#"
                    else transposition_number(u, k[2], k[3]) if k[0] == "T"
                    else u.count(k[2]) * words.get(k[3], ()).count(k[4])
                )
        return tuple([v + sum(c * phi[k] for k, c in r.items()) if r else v for v, r in zip(*part)])

    def settled(self, a: tuple, b: tuple) -> bool | None:
        """True when, whiskered by every context and with every gap word,
        part ``a``'s items weigh less than ``b``'s; False when by none; None
        when that depends on them.  Both orders compare a - b with zero, and
        features are never negative, so a coordinate of a - b whose
        coefficients all have its weight's sign keeps that sign."""
        w, rows = tuple(map(sub, a[0], b[0])), []
        for ra, rb in zip(a[1], b[1]):
            r = Counter(ra)
            r.subtract(rb or {})
            rows.append([c for c in r.values() if c])
        if self.spec.order != "lex":
            return weight_less(self.spec, w, self.zero) if not any(rows) else None
        for v, r in zip(w, rows):
            if r:
                return v < 0 if v < 0 and max(r) <= 0 or v > 0 and min(r) >= 0 else None
            if v:
                return v < 0
        return False


def _whisker(x: Word, item, y: Word):
    """The step or instance ``item`` whiskered by ``x`` and ``y``."""
    return replace(item, left=x + item.left, right=item.right + y)


def _fill(item, slots: dict):
    """A word, step, instance or path of a marked shape with its gap words in."""
    if isinstance(item, tuple):
        return tuple(c for letter in item for c in slots.get(letter, (letter,)))
    if isinstance(item, Path):
        return Path(_fill(item.source, slots), tuple(_fill(s, slots) for s in item.steps))
    item = replace(item, left=_fill(item.left, slots), right=_fill(item.right, slots))
    if getattr(item, "exch", None):
        item = replace(item, exch=(item.exch[0], _fill(item.exch[1], slots), item.exch[2]))
    return item


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
    """One presentation under one set of bounds: the only input of a check
    run, of ``check_all`` and of each assumption check.  Building one does no
    work.  It computes, on first use and at most once, the residual table,
    the critical pairs and cylinders, one memoizing ``Residuator``, the
    verdict of each critical cylinder, the sampled equational-base
    coincidences and their records, and each assumption verdict asked of
    ``check_assumption``.  The attempts of an opposite probe and ``cohpres
    critical`` share them.

    ``term_budget`` and ``max_len`` bound the termination exploration of A1;
    ``max_cells`` and ``budget`` bound each critical cylinder's top-trace
    search, and ``BASE_MAX_CELLS`` and ``BASE_BUDGET`` that of each base
    core left to ``check_cylinder``.

    A base record ``(f, inst, x, y, top, fg)`` stands for one sampled
    trivially completable coincidence x·(f | inst)·y of a vertical step with
    an equational-sided base, in sample order: the sample's context-stripped
    core ``(f, inst)``, its context ``(x, y)`` and the core's results, the
    vertical residual ``fg`` along the base's second side and the top trace
    joining the residuals of the base's sides (``None`` when residuation
    fails, the residuals are not cofinal or the search runs out).  Records
    come by shape (``critical.BaseShape``), each shape closed once: a marked
    one by naturality of exchange (``critical.close_exchange_core``) on its
    word of slot letters, the others as ``_close`` closes a core, by
    naturality where it fixes the results, else by ``check_cylinder`` as
    critical cylinders are.  A marked shape that naturality does not close
    has each core closed by ``_close``.  The checks decide a whole shape
    where they can, A3' when its top is all exchange cells and A4 when its
    top weighs less than its base for every context and gap word
    (``_Whiskered``); they build the records of the other shapes only
    (``records``), and whisker a step or instance only to print it.

    This is exact because every step of the computation commutes with
    whiskering.  The residual of x·g·y after x·f·y is x·(g/f)·y: equality,
    disjointness, retyping and tile lookup only see the positions relative
    to the shared context, in the zig-zag and in the construction alike, and
    a tile's relation holds in every context (``TableEntry``).
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
    such a side is sampled without stripping.  Filling a marked shape's
    gaps commutes with naturality in the same way: no step of the
    construction touches a gap letter, and as every generator has letters,
    the construction sees of a gap only where it lies between the steps,
    which filling keeps.  The shared ``Residuator`` spends its budget across
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
        self.verdicts: dict[tuple, Verdict] = {}
        self._closings: dict[int, tuple | None] = {}

    @cached_property
    def table(self) -> ResidualTable:
        return derive_residual_table(self.p)

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
    def base_samples(self) -> BaseSamples:
        return trivial_equational_base_samples(self.p)

    @cached_property
    def base_records(self) -> list[BaseRecord]:
        return self.records(self.base_samples.shapes.values())

    def closing(self, shape: BaseShape) -> tuple | None:
        """``(top, fg)`` of a shape, on its word; None for a marked shape
        that naturality does not close, whose cores are closed one by one."""
        if id(shape) not in self._closings:
            if shape.marked:
                closed = close_exchange_core(shape.f, shape.base, self.residuator)
            else:
                closed = self._close(shape.f, shape.base)
            self._closings[id(shape)] = closed
        return self._closings[id(shape)]

    def records(self, shapes) -> list[BaseRecord]:
        """The records of the samples of ``shapes``, in sample order; the
        records of a core share its objects."""
        p, cores, out = self.p, {}, []
        samples = [(*sample, shape) for shape in shapes for sample in shape.samples()]
        for _, x, y, gaps, shape in sorted(samples, key=itemgetter(0)):
            key = (id(shape), gaps) if shape.marked else id(shape)
            core = cores.get(key)
            if core is None:
                closed = self.closing(shape)
                if not shape.marked:
                    core = (shape.f, shape.base, *closed)
                else:
                    slots = dict(zip(SLOTS, gaps))
                    f, inst = _fill(shape.f, slots), _fill(shape.base, slots)
                    if closed is None:
                        core = (f, inst, *self._close(f, inst))
                    else:
                        top, fg = closed
                        source, moves = _fill(top.source, slots), top.moves
                        moves = [Move(at, _fill(m, slots)) for at, m in moves]
                        core = (f, inst, trace_from_moves(p, source, moves), _fill(fg, slots))
                cores[key] = core
            out.append((*core[:2], x, y, *core[2:]))
        return out

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
            heads = sorted((gen, off) for off, gen in (e.first, e.second))
            return str((p.relation_map[e.relation].lhs.source, tuple(heads)))

        for e in sorted(ctx.table.entries.values(), key=order):
            window = p.relation_map[e.relation].lhs.source
            second = p.step_at(window, e.second)
            if p.is_equational_step(second):
                continue
            tail = p.path_at(p.step_target(p.step_at(window, e.first)), e.second_after_first)
            res, orig = weights.part(tail.steps), weights.part([second])
            strict(res[0], orig[0], f"tile residual {p.fmt_path(tail)} of {p.fmt_step(second)}")
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
                        f"of tile for {p.fmt_step(second)}: {wres} !< {worig}"
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
                        # on e·mid·h and h·mid·e, from-sides applying e first
                        for inst in (
                            RelationInstance((), (), True, exch=(e.name, mid, h.name)),
                            RelationInstance((), (), False, exch=(h.name, mid, e.name)),
                        ):
                            word, (f, g_after), (g, _) = instance_sides(p, inst)
                            if not steps_disjoint(p, f, g):
                                continue
                            fs, gs = p.step_at(word, f), p.step_at(word, g)
                            res = p.step_at(p.step_target(fs), g_after)
                            strict(
                                eval_weight(w1, res, p),
                                eval_weight(w1, gs, p),
                                f"exchange residual {p.fmt_step(res)} of {p.fmt_step(gs)} "
                                f"after {p.fmt_step(fs)}",
                            )
    except WeightError as exc:
        return Verdict("inconclusive", [], str(exc))
    if witnesses:
        return Verdict("fail", witnesses)
    return Verdict("pass", [], "strict decrease on tiles and sampled exchange residuals")


# ---------------------------------------------------------------------------
# A3 / A3': cylinder property


def _exchanges_only(closed: tuple | None) -> bool:
    return closed is not None and closed[0] is not None and all(
        m.inst.exch is not None for m in closed[0].moves
    )


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
        # a shape whose top is all exchange cells has no line to give
        shapes = [
            s for s in ctx.base_samples.shapes.values()
            if s.base.exch is not None and not _exchanges_only(ctx.closing(s))
        ]
        for f, inst, x, y, top, _ in ctx.records(shapes):
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

        def settled(shape: BaseShape) -> bool:
            # whether no record of the shape gives a line: its top, with every
            # gap word and context, weighs less than its base or is exempt
            top, rv = ctx.closing(shape) or (None, None)
            if top is None:
                return False
            if exempt(rv):
                return True
            try:
                base, over = weights.part([shape.base]), weights.part([m.inst for m in top.moves])
            except WeightError:
                return False  # the first record of the shape raises it again
            return weights.settled(over, base) is True

        parts: dict[int, tuple] = {}  # by top; the records of a core share one
        shapes = [s for s in ctx.base_samples.shapes.values() if not settled(s)]
        for f, inst, x, y, top, rv in ctx.records(shapes):
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
    ctx: CheckContext, a3_mode: str = "strict", strong: bool = False, run_opposite: bool = True
) -> CheckReport:
    """Run A1 to A4 in order on ``ctx``, derive coherence, and probe the
    opposite presentation for the faithful-embedding conclusion."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
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
        # the opposite keeps the run's termination bounds and the default search bounds
        op_ctx = CheckContext(constructions.opposite(ctx.p), ctx.term_budget, ctx.max_len)
        t0 = time.perf_counter()
        faithful, note = _faithful_embedding(op_ctx, a3_mode, strong)
        timings["opposite"] = time.perf_counter() - t0
    return CheckReport(
        ctx.p.mode, a3_mode, strong, assumptions, ctx.pairs, results, coherent, faithful, note,
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
