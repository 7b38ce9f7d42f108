"""Residual extraction and computation.

The residual g/f says what remains of a rewrite g after a coinitial
equational rewrite f has been performed.  Local residuals of overlapping
steps come from a table extracted out of the declared relations; disjoint
steps commute through exchange; shared outer context peels off.  Path-level
residuals are computed by the convergent zig-zag strategy, which fills the
grid of two paths tile by tile through the pasting laws.  It runs on an
explicit work stack over hash-consed step sequences with a memo, so neither
the Python stack nor the copying of sub-paths grows with the length of a
path.  A computation can also return an explicit 2-cell witness: each tile
contributes one cell, kept in a tree whose depth is the cell's step, and the
tree is flattened into moves and built into cells once, so a witness costs
time linear in its cells apart from slicing each cell's prefix and suffix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    CellTrace,
    CohpresError,
    Move,
    Path,
    Presentation,
    RelationInstance,
    RewriteStep,
    Word,
    apply_cell,
    tensor_ctx,
    trace_from_moves,
    untensor_ctx,
)

PairKey = tuple[Word, tuple[tuple[str, int], tuple[str, int]]]

# bounds of the search that joins two residuals in ``cell_residual``
JOIN_MAX_CELLS, JOIN_BUDGET = 12, 50_000


class ResiduationError(CohpresError):
    pass


@dataclass(frozen=True)
class TableEntry:
    """A residuation tile in minimal contexts.

    ``first`` is the equational step of the tile; the mediating relation's
    ``forward`` side starts with ``first`` when ``lhs_is_first`` holds.
    """

    first: RewriteStep
    second: RewriteStep
    second_after_first: Path
    first_after_second: Path
    relation: str
    lhs_is_first: bool
    decl_left: Word = ()
    decl_right: Word = ()


@dataclass
class ResidualTable:
    entries: dict[PairKey, TableEntry] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)


def _pair_key(p: Presentation, s1: RewriteStep, s2: RewriteStep) -> PairKey:
    word = p.step_source(s1)
    items = sorted([(s1.gen, len(s1.left)), (s2.gen, len(s2.left))])
    return (word, (items[0], items[1]))


def core_interval(p: Presentation, s: RewriteStep) -> tuple[int, int]:
    """Half-open position interval [start, end) of the step's active factor."""
    start = len(s.left)
    return start, start + len(p.gen(s.gen).source)


def steps_disjoint(p: Presentation, f: RewriteStep, g: RewriteStep) -> bool:
    """Whether two coinitial steps act on independent parts of the word.

    A step with empty source sits at a gap; it is disjoint from another step
    unless the gap falls strictly inside that step's active interval.
    """
    af, bf = core_interval(p, f)
    ag, bg = core_interval(p, g)
    if af == bf and ag == bg:
        return af != ag
    if af == bf:
        return af <= ag or af >= bg
    if ag == bg:
        return ag <= af or ag >= bf
    return bf <= ag or bg <= af


def retype_step(p: Presentation, s: RewriteStep, done: RewriteStep) -> RewriteStep:
    """Adjust a step after a disjoint step ``done`` has been applied first."""
    ad, bd = core_interval(p, done)
    a_s, b_s = core_interval(p, s)
    tgt = p.gen(done.gen).target
    if bd <= a_s:
        new_left = s.left[:ad] + tgt + s.left[bd:]
        return RewriteStep(new_left, s.gen, s.right)
    rel = ad - b_s
    new_right = s.right[:rel] + tgt + s.right[rel + (bd - ad) :]
    return RewriteStep(s.left, s.gen, new_right)


def _strip_common(f: RewriteStep, g: RewriteStep):
    """(zl, zr, f', g'): the context shared by two coinitial steps and the
    steps with it peeled off."""
    nl = min(len(f.left), len(g.left))
    nr = min(len(f.right), len(g.right))
    zl = f.left[:nl]
    zr = f.right[len(f.right) - nr :] if nr else ()
    fm = RewriteStep(f.left[nl:], f.gen, f.right[: len(f.right) - nr])
    gm = RewriteStep(g.left[nl:], g.gen, g.right[: len(g.right) - nr])
    return zl, zr, fm, gm


def exchange_instance(
    p: Presentation, first_applied: RewriteStep, second: RewriteStep
) -> RelationInstance:
    """The exchange cell whose from-side applies ``first_applied`` and then
    the retyped ``second`` (the two steps must be disjoint)."""
    a1, b1 = core_interval(p, first_applied)
    a2, b2 = core_interval(p, second)
    word = p.step_source(first_applied)
    if (a1, b1) <= (a2, b2):
        left_step, right_step, fwd = first_applied, second, True
        la, lb, rb = a1, b1, b2
        ra = a2
    else:
        left_step, right_step, fwd = second, first_applied, False
        la, lb, rb = a2, b2, b1
        ra = a1
    return RelationInstance(
        left=word[:la],
        right=word[rb:],
        forward=fwd,
        exch=(left_step.gen, word[lb:ra], right_step.gen),
    )


# ---------------------------------------------------------------------------
# table derivation


def derive_residual_table(p: Presentation) -> ResidualTable:
    """Extract residuation tiles from the declared relations.

    A relation is a tile when one side factors as an equational step followed
    by any path and the other as a different coinitial step followed by an
    equational path, the two head steps genuinely overlapping.
    """
    table = ResidualTable()
    for rel in p.relations:
        found = False
        near_miss = False
        for side_f, side_g, lhs_is_first in (
            (rel.lhs, rel.rhs, True),
            (rel.rhs, rel.lhs, False),
        ):
            if not side_f.steps or not side_g.steps:
                continue
            f0 = side_f.steps[0]
            if not p.is_equational_step(f0):
                continue
            g0 = side_g.steps[0]
            if g0 == f0:
                continue
            near_miss = True
            r_f = Path(p.step_target(f0), side_f.steps[1:])  # g0/f0 candidate
            r_g = Path(p.step_target(g0), side_g.steps[1:])  # f0/g0 candidate
            if not p.is_equational_path(r_g):
                continue
            if steps_disjoint(p, f0, g0):
                continue
            zl, zr, f0m, g0m = _strip_common(f0, g0)
            r_fm = untensor_ctx(p, zl, r_f, zr)
            r_gm = untensor_ctx(p, zl, r_g, zr)
            if r_fm is None or r_gm is None:
                table.diagnostics.append(
                    f"relation '{rel.name}': residual tails do not live in the overlap context"
                )
                continue
            entry = TableEntry(
                first=f0m,
                second=g0m,
                second_after_first=r_fm,
                first_after_second=r_gm,
                relation=rel.name,
                lhs_is_first=lhs_is_first,
                decl_left=zl,
                decl_right=zr,
            )
            key = _pair_key(p, f0m, g0m)
            prev = table.entries.get(key)
            if prev is None:
                table.entries[key] = entry
                found = True
            elif (
                prev.second_after_first == entry.second_after_first
                and prev.first_after_second == entry.first_after_second
                and {prev.first, prev.second} == {entry.first, entry.second}
            ):
                found = True
                if prev.relation != rel.name:
                    table.diagnostics.append(
                        f"relation '{rel.name}': duplicate tile for pair already "
                        f"resolved by '{prev.relation}' (keeping the first)"
                    )
            else:
                msg = (
                    f"conflicting tiles for pair ({p.fmt_step(f0m)}, {p.fmt_step(g0m)}): "
                    f"'{prev.relation}' vs '{rel.name}' (keeping the first)"
                )
                table.conflicts.append(msg)
                table.diagnostics.append(msg)
        if near_miss and not found:
            table.diagnostics.append(
                f"relation '{rel.name}': has an equational head but is not a residuation tile"
            )
    return table


# ---------------------------------------------------------------------------
# step residuals


def _step_pair(p: Presentation, table: ResidualTable, f: RewriteStep, g: RewriteStep):
    """(g/f, f/g, tile) for coinitial steps, at least one equational.

    tile is one of ("equal",), ("exchange",) or
    ("table", entry, zl, zr, f_is_first) and is used to emit witnesses.
    """
    if p.step_source(f) != p.step_source(g):
        raise ResiduationError(
            f"steps {p.fmt_step(f)} and {p.fmt_step(g)} are not coinitial"
        )
    if not (p.is_equational_step(f) or p.is_equational_step(g)):
        raise ResiduationError(
            f"residual of ({p.fmt_step(g)}, {p.fmt_step(f)}) undefined: neither is equational"
        )
    if f == g:
        t = p.step_target(f)
        return Path(t, ()), Path(t, ()), ("equal",)
    if steps_disjoint(p, f, g):
        g_after = Path(p.step_target(f), (retype_step(p, g, f),))
        f_after = Path(p.step_target(g), (retype_step(p, f, g),))
        return g_after, f_after, ("exchange",)
    zl, zr, fm, gm = _strip_common(f, g)
    key = _pair_key(p, fm, gm)
    entry = table.entries.get(key)
    if entry is None:
        raise ResiduationError(
            f"no residuation tile for the overlapping pair "
            f"({p.fmt_step(f)}, {p.fmt_step(g)}) on {p.fmt_word(p.step_source(f))}"
        )
    if (fm, gm) == (entry.first, entry.second):
        g_res, f_res, f_is_first = entry.second_after_first, entry.first_after_second, True
    elif (gm, fm) == (entry.first, entry.second):
        g_res, f_res, f_is_first = entry.first_after_second, entry.second_after_first, False
    else:
        raise ResiduationError(
            f"tile mismatch for pair ({p.fmt_step(f)}, {p.fmt_step(g)})"
        )
    return (
        tensor_ctx(p, zl, g_res, zr),
        tensor_ctx(p, zl, f_res, zr),
        ("table", entry, zl, zr, f_is_first),
    )


# ---------------------------------------------------------------------------
# path residuals


def _witness_moves(tree) -> list[Move]:
    """The moves of a witness tree, in order.

    A node ``(before, inst, after)`` stands for the moves of ``before``
    whiskered by one step, then ``inst`` at step 0, then those of ``after``
    whiskered by one step; ``inst`` is None for a bare whisker and ``()`` is
    the empty tree.  So a cell's step is its depth, and shared sub-trees are
    never copied or shifted.
    """
    moves = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, RelationInstance):
            moves.append(Move(depth, node))
        elif node:
            before, inst, after = node
            stack += ((after, depth + 1), (inst, depth), (before, depth + 1))
    return moves


class Residuator:
    """Memoizing, iterative implementation of the zig-zag residuation strategy.

    Step sequences are hash-consed: id 0 is the empty sequence and an id
    ``k > 0`` stands for the step ``_heads[k]`` followed by the sequence
    ``_tails[k]``, every distinct sequence getting exactly one id.  A suffix
    is then one list lookup, a memo key hashes two integers yet still
    compares by content, and a residual shares its tail with the
    sub-residual it was built from instead of copying it.
    """

    def __init__(self, p: Presentation, table: ResidualTable, budget: int = 200_000):
        self.p = p
        self.table = table
        self.budget = budget
        self._memo: dict = {}
        self._wmemo: dict = {}
        self._work = 0
        self._ids: dict = {}
        self._heads: list = [None]
        self._tails: list[int] = [0]

    def _check(self, g: Path, f: Path) -> None:
        if g.source != f.source:
            raise ResiduationError(
                f"paths {self.p.fmt_path(g)} and {self.p.fmt_path(f)} are not coinitial"
            )
        if not (self.p.is_equational_path(f) or self.p.is_equational_path(g)):
            raise ResiduationError("residual undefined: neither path is equational")

    # -- interned step sequences ---------------------------------------------

    def _seq(self, steps: tuple[RewriteStep, ...], tail: int = 0) -> int:
        """The id of ``steps`` followed by the sequence ``tail``."""
        ids, heads, tails = self._ids, self._heads, self._tails
        for s in reversed(steps):
            key = (s.left, s.gen, s.right, tail)
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(heads)
                heads.append(s)
                tails.append(tail)
            tail = i
        return tail

    def _steps(self, i: int) -> tuple[RewriteStep, ...]:
        heads, tails = self._heads, self._tails
        out = []
        while i:
            out.append(heads[i])
            i = tails[i]
        return tuple(out)

    # -- the zig-zag engine ----------------------------------------------------

    def _solve(self, src: Word, g: int, f: int, witness: bool) -> tuple:
        """(g/f, f/g, witness tree) for coinitial sequences ``g``, ``f`` at ``src``.

        The zig-zag strategy, with f1 and g1 the heads of f and g and f', g'
        their tails:

        * f empty gives (g, id) and g empty gives (id, f);
        * f1 = g1 gives the residuals of g' and f';
        * otherwise the tile of (f1, g1) gives a = g1/f1 and b = f1/g1, then
          (c, d) = (g'/b, b/g') and (e, h) = ((a;c)/f', f'/(a;c)), and the
          result is (e, d;h).

        The sub-problems run on an explicit stack of frames
        ``[src, g, f, key, stage, a, b, tile, (c, d, t2)]``; ``ret`` hands
        the result of the frame just finished to its parent.  They are
        looked up, counted against the budget and memoized in the order of
        the recursive definition, so the budget runs out at the same
        sub-problem.  A nonempty sequence fixes its source word, so a memo
        key is ``(g, f)``, or the word itself when both are empty.

        With ``witness`` the tree's moves (see ``_witness_moves``) rewrite
        f;(g/f) into g;(f/g): f1 = g1 whiskers the tree of (g', f') by f1,
        and a tile gives the tree of (e, h) after f1, the tile cell, then
        the tree of (c, d) after g1.  Otherwise the tree is empty.
        """
        p, table = self.p, self.table
        heads, tails = self._heads, self._tails
        memo = self._wmemo if witness else self._memo
        stack = [[src, g, f, None, 0]]
        ret = None
        while stack:
            fr = stack[-1]
            src, g, f, key, stage = fr[:5]
            if stage == 0:
                key = (g, f) if g or f else src
                hit = memo.get(key)
                if hit is not None:
                    ret = hit
                    stack.pop()
                    continue
                self._work += 1
                if self._work > self.budget:
                    raise ResiduationError(
                        "residuation budget exhausted (nontermination suspected)"
                    )
                f1, g1 = heads[f], heads[g]
                if not f:
                    ret = (g, 0, ())
                elif not g:
                    ret = (0, f, ())
                elif f1 == g1:
                    fr[3:5] = key, 1
                    stack.append([p.step_target(g1), tails[g], tails[f], None, 0])
                    continue
                else:
                    a, b, tile = _step_pair(p, table, f1, g1)
                    fr[3:] = key, 2, a, b, tile
                    stack.append([b.source, tails[g], self._seq(b.steps), None, 0])
                    continue
            elif stage == 1:
                if ret[2]:
                    ret = (ret[0], ret[1], (ret[2], None, ()))
            elif stage == 2:
                fr[4] = 3
                fr.append(ret)
                a = fr[5]
                stack.append([a.source, self._seq(a.steps, ret[0]), tails[f], None, 0])
                continue
            else:
                tile, (c, d, t2) = fr[7:]
                e, h, t3 = ret
                tree = (t3, self._tile_instance(heads[f], heads[g], tile), t2) if witness else ()
                ret = (e, self._seq(self._steps(d), h), tree)
            memo[key] = ret
            stack.pop()
        return ret

    def _residuals(self, g: Path, f: Path, witness: bool) -> tuple[Path, Path, CellTrace | None]:
        p = self.p
        g_end, f_end = p.path_target(g), p.path_target(f)
        e, dh, tree = self._solve(g.source, self._seq(g.steps), self._seq(f.steps), witness)
        gf = Path(f_end, self._steps(e))
        trace = None
        if witness:
            trace = trace_from_moves(p, Path(f.source, f.steps + gf.steps), _witness_moves(tree))
        return gf, Path(g_end, self._steps(dh)), trace

    def pair(self, g: Path, f: Path) -> tuple[Path, Path]:
        """(g/f, f/g)."""
        self._check(g, f)
        gf, fg, _ = self._residuals(g, f, False)
        return gf, fg

    # -- witnesses -----------------------------------------------------------

    def pair_with_witness(self, g: Path, f: Path) -> tuple[Path, Path, CellTrace]:
        """(g/f, f/g, trace) with trace : f;(g/f)  =>*  g;(f/g)."""
        self._check(g, f)
        return self._residuals(g, f, True)

    def _tile_instance(self, f1: RewriteStep, g1: RewriteStep, tile) -> RelationInstance:
        """The cell of a tile, from f1;(g1/f1) to g1;(f1/g1)."""
        if tile[0] == "exchange":
            return exchange_instance(self.p, f1, g1)
        _, entry, zl, zr, f_is_first = tile
        dl, dr = entry.decl_left, entry.decl_right
        if zl[len(zl) - len(dl) :] != dl or zr[: len(dr)] != dr:
            raise ResiduationError(
                f"cannot attach witness relation '{entry.relation}' outside its declared context"
            )
        outer_l = zl[: len(zl) - len(dl)] if dl else zl
        outer_r = zr[len(dr) :]
        forward = entry.lhs_is_first if f_is_first else not entry.lhs_is_first
        return RelationInstance(left=outer_l, right=outer_r, forward=forward, name=entry.relation)

    # -- 2-cell residuals ------------------------------------------------------

    def cell_residual(self, alpha: CellTrace, f: Path) -> CellTrace:
        """Residuate a 2-cell trace after a coinitial rewriting path.

        Iterates over the steps of ``f``; for each cell of the trace the two
        endpoint residuals are joined by a bounded search for a connecting
        trace (the local cylinder top).
        """
        from . import oracle  # local import to avoid a module cycle

        p = self.p
        cur = alpha
        for w, step in zip(p.path_words(f), f.steps):
            step_path = Path(w, (step,))
            states = [cur.source]
            for cell in cur.cells:
                states.append(apply_cell(p, states[-1], cell))
            residuals = [self._residuals(s, step_path, False)[0] for s in states]
            moves: list[Move] = []
            for i in range(len(residuals) - 1):
                if residuals[i] == residuals[i + 1]:
                    continue
                top = oracle.search_trace(
                    p, residuals[i], residuals[i + 1], JOIN_MAX_CELLS, JOIN_BUDGET
                )
                if top is None:
                    raise ResiduationError(
                        "no connecting trace found while residuating a 2-cell "
                        f"(cell {i}, after {p.fmt_path(step_path)})"
                    )
                moves.extend(Move(len(c.prefix), c.inst) for c in top.cells)
            cur = trace_from_moves(p, residuals[0], moves)
        return cur
