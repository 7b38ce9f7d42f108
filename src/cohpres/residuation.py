"""Residual extraction and computation.

The residual g/f says what remains of a rewrite g after a coinitial
equational rewrite f has been performed.  Local residuals of overlapping
steps come from a table extracted out of the declared relations; disjoint
steps commute through exchange; shared outer context peels off.  Path-level
residuals are computed by the convergent zig-zag strategy, which fills the
grid of two paths tile by tile through the pasting laws.  It runs on an
explicit work stack over hash-consed sequences of positional steps
``(offset, gen)`` with a memo, so neither the Python stack, the copying of
sub-paths nor the length of the context words grows the cost of a tile.
Paths become positions on the way in and ``RewriteStep``s on the way out.
The pair-mode memo is keyed on positions alone, so one entry serves every
whiskering of a sub-problem.  A computation can also return an explicit
2-cell witness: each tile contributes one cell, kept in a tree whose depth
is the cell's step, and the tree is flattened into moves and checked once,
so each cell costs the length of its words, not of the path (one step after
the 1,600-step normalization path of b⁴⁰a⁴⁰ in ds2, with its 1,560-cell
witness, takes about 0.1 s).
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
    Step,
    Word,
    position,
    replay,
    trace_from_moves,
    untensor_ctx,
)

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
    entries: dict[tuple, TableEntry] = field(default_factory=dict)  # by ``tile_key``
    diagnostics: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)


def tile_key(f: Step, g: Step) -> tuple:
    """The key of the tile of two coinitial steps: the sorted ``(gen,
    offset)`` pairs of the two, offsets measured past their shared left
    context.  For two overlapping well-typed steps it fixes the window word."""
    nl = min(f[0], g[0])
    a, b = (f[1], f[0] - nl), (g[1], g[0] - nl)
    return (a, b) if a <= b else (b, a)


def steps_disjoint(p: Presentation, f: Step, g: Step) -> bool:
    """Whether two coinitial steps act on independent parts of the word.

    A step with empty source sits at a gap; it is disjoint from another step
    unless the gap falls strictly inside that step's active interval.
    """
    af, ag = f[0], g[0]
    bf, bg = af + len(p.gen_map[f[1]].source), ag + len(p.gen_map[g[1]].source)
    if af == bf and ag == bg:
        return af != ag
    if af == bf:
        return af <= ag or af >= bg
    if ag == bg:
        return ag <= af or ag >= bf
    return bf <= ag or bg <= af


def retype_step(p: Presentation, s: Step, done: Step) -> Step:
    """A step after a disjoint step ``done`` has been applied first."""
    d = p.gen_map[done[1]]
    if done[0] + len(d.source) <= s[0]:
        return s[0] + len(d.target) - len(d.source), s[1]
    return s


def exchange_instance(
    p: Presentation, word: Word, first_applied: Step, second: Step
) -> RelationInstance:
    """The exchange cell on ``word`` whose from-side applies ``first_applied``
    and then the retyped ``second`` (the two steps must be disjoint)."""
    (a1, n1), (a2, n2) = first_applied, second
    b1, b2 = a1 + len(p.gen_map[n1].source), a2 + len(p.gen_map[n2].source)
    if (a1, b1) <= (a2, b2):
        return RelationInstance(word[:a1], word[b2:], True, exch=(n1, word[b1:a2], n2))
    return RelationInstance(word[:a2], word[b1:], False, exch=(n2, word[b2:a1], n1))


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
        found = near_miss = False
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
            if steps_disjoint(p, position(f0), position(g0)):
                continue
            # the context the two heads share, and the heads without it
            nl, nr = min(len(f0.left), len(g0.left)), min(len(f0.right), len(g0.right))
            zl, zr = f0.left[:nl], f0.right[len(f0.right) - nr :]
            f0m, g0m = (RewriteStep(s.left[nl:], s.gen, s.right[: len(s.right) - nr]) for s in (f0, g0))
            r_fm = untensor_ctx(p, zl, r_f, zr)
            r_gm = untensor_ctx(p, zl, r_g, zr)
            if r_fm is None or r_gm is None:
                table.diagnostics.append(
                    f"relation '{rel.name}': residual tails do not live in the overlap context"
                )
                continue
            entry = TableEntry(f0m, g0m, r_fm, r_gm, rel.name, lhs_is_first, zl, zr)
            key = tile_key(position(f0), position(g0))
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

    It runs on positional steps ``(offset, gen)`` (``core.Step``), so a
    tile costs integer arithmetic, not a copy of its context words.  Step
    sequences are hash-consed: id 0 is the empty sequence and an id ``k >
    0`` stands for the step ``_heads[k]`` followed by the sequence
    ``_tails[k]``, every distinct sequence getting exactly one id.  A suffix
    is then one list lookup, a memo key hashes two integers yet still
    compares by content, and a residual shares its tail with the
    sub-residual it was built from instead of copying it.

    Positions do not fix the word a sequence starts from, and the pair-mode
    memo does not ask for it: residuation commutes with whiskering (see
    ``coherence.CheckContext``), and the positions of two overlapping
    well-typed steps past their shared left context fix their tile
    (``tile_key``).  So a pair-mode memo entry serves every word its
    sequences apply to, and ``_work``, the number of sub-problems solved so
    far, never exceeds its count under word-keyed sequences: a budget runs
    out later or never, never earlier.  Witness mode keys on the source word
    too, because its cells hold absolute contexts.
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

    def _seq(self, steps: list[Step], tail: int = 0) -> int:
        """The id of ``steps`` followed by the sequence ``tail``."""
        ids, heads, tails = self._ids, self._heads, self._tails
        for s in reversed(steps):
            key = (s, tail)
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(heads)
                heads.append(s)
                tails.append(tail)
            tail = i
        return tail

    def _steps(self, i: int) -> list[Step]:
        heads, tails, out = self._heads, self._tails, []
        while i:
            out.append(heads[i])
            i = tails[i]
        return out

    # -- the zig-zag engine ----------------------------------------------------

    def step_pair(self, f: Step, g: Step):
        """(g/f, f/g, tile) for distinct coinitial steps, or None when the
        residual is undefined; tile is None for an exchange and ``(entry,
        f_is_first)`` for a table tile."""
        p = self.p
        if not (p.gen_map[f[1]].equational or p.gen_map[g[1]].equational):
            return None
        if steps_disjoint(p, f, g):
            return [retype_step(p, g, f)], [retype_step(p, f, g)], None
        entry = self.table.entries.get(tile_key(f, g))
        if entry is None:
            return None
        nl = min(f[0], g[0])
        f_is_first = (f[0] - nl, f[1]) == position(entry.first)
        a, b = entry.second_after_first, entry.first_after_second
        if not f_is_first:
            a, b = b, a
        a, b = ([(len(s.left) + nl, s.gen) for s in q.steps] for q in (a, b))
        return a, b, (entry, f_is_first)

    def _undefined(self, stack: list, f: Step, g: Step) -> ResiduationError:
        """The error for the top frame's pair, at the word replayed from the
        bottom frame's source (a frame at stage 3 descended past f1, else g1)."""
        p, w = self.p, stack[0][0]
        for fr in stack[:-1]:
            w = p.step_target(p.step_at(w, self._heads[fr[2] if fr[4] == 3 else fr[1]]))
        fs, gs = p.step_at(w, f), p.step_at(w, g)
        if not (p.is_equational_step(fs) or p.is_equational_step(gs)):
            return ResiduationError(
                f"residual of ({p.fmt_step(gs)}, {p.fmt_step(fs)}) undefined: neither is equational"
            )
        return ResiduationError(
            f"no residuation tile for the overlapping pair "
            f"({p.fmt_step(fs)}, {p.fmt_step(gs)}) on {p.fmt_word(w)}"
        )

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
        sub-problem.  A pair-mode memo key is ``(g, f)`` and only the bottom
        frame carries its source word; witness mode carries each frame's and
        keys on ``(src, g, f)``.

        With ``witness`` the tree's moves (see ``_witness_moves``) rewrite
        f;(g/f) into g;(f/g): f1 = g1 whiskers the tree of (g', f') by f1,
        and a tile gives the tree of (e, h) after f1, the tile cell, then
        the tree of (c, d) after g1.  Otherwise the tree is empty.
        """
        p = self.p
        heads, tails = self._heads, self._tails
        memo = self._wmemo if witness else self._memo
        stack = [[src, g, f, None, 0]]
        ret = None
        while stack:
            fr = stack[-1]
            src, g, f, key, stage = fr[:5]
            if stage == 0:
                key = (src, g, f) if witness else (g, f)
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
                else:
                    after = p.step_target(p.step_at(src, g1)) if witness else None
                    if f1 == g1:
                        fr[3:5] = key, 1
                        stack.append([after, tails[g], tails[f], None, 0])
                        continue
                    tile = self.step_pair(f1, g1)
                    if tile is None:
                        raise self._undefined(stack, f1, g1)
                    fr[3:] = key, 2, *tile
                    stack.append([after, tails[g], self._seq(tile[1]), None, 0])
                    continue
            elif stage == 1:
                if ret[2]:
                    ret = (ret[0], ret[1], (ret[2], None, ()))
            elif stage == 2:
                fr[4] = 3
                fr.append(ret)
                after = p.step_target(p.step_at(src, heads[f])) if witness else None
                stack.append([after, self._seq(fr[5], ret[0]), tails[f], None, 0])
                continue
            else:
                tile, (c, d, t2) = fr[7:]
                e, h, t3 = ret
                tree = (t3, self._tile_instance(src, heads[f], heads[g], tile), t2) if witness else ()
                ret = (e, self._seq(self._steps(d), h), tree)
            memo[key] = ret
            stack.pop()
        return ret

    def _residuals(self, g: Path, f: Path, witness: bool) -> tuple[Path, Path, CellTrace | None]:
        p = self.p
        g_end, f_end = p.path_target(g), p.path_target(f)
        g_ids, f_ids = (self._seq([position(s) for s in q.steps]) for q in (g, f))
        e, dh, tree = self._solve(g.source, g_ids, f_ids, witness)
        gf = p.path_at(f_end, self._steps(e))
        trace = None
        if witness:
            trace = trace_from_moves(p, Path(f.source, f.steps + gf.steps), _witness_moves(tree))
        return gf, p.path_at(g_end, self._steps(dh)), trace

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

    def _tile_instance(self, w: Word, f1: Step, g1: Step, tile) -> RelationInstance:
        """The cell of a tile on ``w``, from f1;(g1/f1) to g1;(f1/g1)."""
        p = self.p
        if tile is None:
            return exchange_instance(p, w, f1, g1)
        entry, f_is_first = tile
        end = max(s[0] + len(p.gen_map[s[1]].source) for s in (f1, g1))
        zl, zr = w[: min(f1[0], g1[0])], w[end:]
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
            src = cur.source.source
            states = [cur.source]
            states += (Path(src, tuple(steps)) for _, steps, _ in replay(p, cur.source, cur.moves))
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
                moves.extend(top.moves)
            cur = trace_from_moves(p, residuals[0], moves)
        return cur
