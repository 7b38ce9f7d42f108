"""Residual extraction and computation.

The residual g/f says what remains of a rewrite g after a coinitial
equational rewrite f has been performed.  Local residuals of overlapping
steps come from a table extracted out of the declared relations; disjoint
steps commute through exchange; shared outer context peels off.  Path-level
residuals are computed by the convergent zig-zag strategy, which fills the
grid of two paths tile by tile through the pasting laws (``Residuator``).
Paths become positional steps ``(offset, gen)`` on the way in and
``RewriteStep``s on the way out; ``Residuator.nf_residual`` takes the
positional steps of a normalization as they are and builds only the
residual the normal-form functor keeps.  A 2-cell witness keeps each tile's
cell as its two heads in a tree whose depth is the cell's step; flattening
it from the source word fixes each cell's context, and the moves are
checked once, so a cell costs the length of its words, not of the path (one
step after the 1,600-step normalization path of b⁴⁰a⁴⁰ in ds2, with its
1,560-cell witness, takes about 0.05 s on a 2-vCPU host).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import oracle
from .core import (
    CellTrace,
    CohpresError,
    Move,
    Path,
    Presentation,
    RelationInstance,
    Step,
    Word,
    position,
    replay,
    trace_from_moves,
)
from .objects import NormalizationResult

# bounds of the search that joins two residuals in ``cell_residual``
JOIN_MAX_CELLS, JOIN_BUDGET = 12, 50_000


class ResiduationError(CohpresError):
    pass


@dataclass(frozen=True)
class TableEntry:
    """A residuation tile as positional steps on its relation's source word,
    on which its two head steps share no context.  ``first`` is the
    equational head, each tail starts on the word after its head, and the
    relation's lhs starts with ``first`` when ``lhs_is_first`` holds."""

    first: Step
    second: Step
    second_after_first: tuple[Step, ...]
    first_after_second: tuple[Step, ...]
    relation: str
    lhs_is_first: bool


@dataclass
class ResidualTable:
    entries: dict[tuple, TableEntry] = field(default_factory=dict)  # by ``tile_key``
    diagnostics: list[str] = field(default_factory=list)
    conflicts: list[str] = field(default_factory=list)


def tile_key(f: Step, g: Step) -> tuple:
    """The key of the tile of two coinitial steps: the sorted ``(gen,
    offset)`` pairs of the two, offsets measured past their shared left
    context.  For two overlapping well-typed steps it fixes the word their
    sources cover, the source word of their tile's relation."""
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
    equational path, the two head steps genuinely overlapping and sharing no
    context: a relation that holds only in a context is no tile.
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
            f0, g0 = side_f.steps[0], side_g.steps[0]
            if not p.is_equational_step(f0) or g0 == f0:
                continue
            near_miss = True
            if not all(p.is_equational_step(s) for s in side_g.steps[1:]):
                continue
            if steps_disjoint(p, position(f0), position(g0)):
                continue
            if (f0.left and g0.left) or (f0.right and g0.right):
                table.diagnostics.append(f"relation '{rel.name}': its head steps share context")
                break  # the other orientation has the same heads
            f, g = (tuple(position(s) for s in side.steps) for side in (side_f, side_g))
            entry = TableEntry(f[0], g[0], f[1:], g[1:], rel.name, lhs_is_first)
            key = tile_key(f[0], g[0])
            prev = table.entries.get(key)
            tails = (entry.second_after_first, entry.first_after_second)
            if prev is None:
                table.entries[key] = entry
                found = True
            # an equal key holds the same two heads, in swapped roles when
            # both are equational and a relation registered them the other way
            elif (prev.second_after_first, prev.first_after_second) == (
                tails if prev.first == entry.first else tails[::-1]
            ):
                found = True
                if prev.relation != rel.name:
                    table.diagnostics.append(
                        f"relation '{rel.name}': duplicate tile for pair already "
                        f"resolved by '{prev.relation}' (keeping the first)"
                    )
            else:
                msg = (
                    f"conflicting tiles for pair ({p.fmt_step(f0)}, {p.fmt_step(g0)}): "
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


class Residuator:
    """Memoizing, iterative implementation of the zig-zag residuation strategy.

    It runs on an explicit work stack over positional steps, so neither the
    Python stack nor the context words grow the cost of a tile.  Step
    sequences are hash-consed: id 0 is the empty sequence and an id ``k >
    0`` stands for the step ``_heads[k]`` followed by the sequence
    ``_tails[k]``, every distinct sequence getting exactly one id.  A suffix
    is then one list lookup, a memo key hashes two integers yet still
    compares by content, and a residual shares its tail with the
    sub-residual it was built from instead of copying it.

    The memo is keyed on positions alone: residuation commutes with
    whiskering (see ``coherence.CheckContext``), and the positions of two
    overlapping well-typed steps past their shared left context fix their
    tile (``tile_key``), which holds in every context, since its heads share
    none (``TableEntry``).  So one entry serves every word its sequences apply
    to, in ``pair``, ``nf_residual`` and ``pair_with_witness`` alike, and
    ``_work``, the number of sub-problems solved so far, never exceeds its
    count under word-keyed sequences: a budget runs out later or never.  An
    entry's witness tree holds heads, not cells, so the words of its cells
    are fixed only when a witness is flattened (``_witness_moves``).
    """

    def __init__(self, p: Presentation, table: ResidualTable, budget: int = 200_000):
        self.p = p
        self.table = table
        self.budget = budget
        self._memo: dict = {}
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
        f_is_first = (f[0] - nl, f[1]) == entry.first
        a, b = entry.second_after_first, entry.first_after_second
        if not f_is_first:
            a, b = b, a
        a, b = ([(off + nl, gen) for off, gen in q] for q in (a, b))
        return a, b, (entry, f_is_first)

    def _undefined(self, w: Word, stack: list, f: Step, g: Step) -> ResiduationError:
        """The error for the top frame's pair, at the word replayed from ``w``,
        the bottom frame's source (a frame at stage 3 descended past f1, else g1)."""
        p = self.p
        for fr in stack[:-1]:
            w = p.step_target(p.step_at(w, self._heads[fr[1] if fr[2] == 3 else fr[0]]))
        fs, gs = p.step_at(w, f), p.step_at(w, g)
        if not (p.is_equational_step(fs) or p.is_equational_step(gs)):
            return ResiduationError(
                f"residual of ({p.fmt_step(gs)}, {p.fmt_step(fs)}) undefined: neither is equational"
            )
        return ResiduationError(
            f"no residuation tile for the overlapping pair "
            f"({p.fmt_step(fs)}, {p.fmt_step(gs)}) on {p.fmt_word(w)}"
        )

    def _solve(self, src: Word, g: int, f: int) -> tuple:
        """(g/f, f/g, witness tree) for coinitial sequences ``g``, ``f`` at ``src``.

        The zig-zag strategy, with f1 and g1 the heads of f and g and f', g'
        their tails:

        * f empty gives (g, id) and g empty gives (id, f);
        * f1 = g1 gives the residuals of g' and f';
        * otherwise the tile of (f1, g1) gives a = g1/f1 and b = f1/g1, then
          (c, d) = (g'/b, b/g') and (e, h) = ((a;c)/f', f'/(a;c)), and the
          result is (e, d;h).

        The sub-problems run on an explicit stack of frames ``[g, f, stage,
        a, b, tile, (c, d, t2)]``; ``ret`` hands the result of the frame just
        finished to its parent.  They are looked up, counted against the
        budget and memoized in the order of the recursive definition, so the
        budget runs out at the same sub-problem.  The memo is keyed on ``(g,
        f)`` and no frame holds a word: ``src`` serves only the message of a
        missing tile.

        The witness tree rewrites f;(g/f) into g;(f/g) and holds heads, not
        cells (see ``_witness_moves``): f1 = g1 gives ``(f1, t)`` with t the
        tree of (g', f'), or ``()`` when t is empty, and a tile gives ``(t3,
        f1, g1, tile, t2)`` with t3 the tree of (e, h) and t2 that of (c, d).
        """
        heads, tails, memo = self._heads, self._tails, self._memo
        stack = [[g, f, 0]]
        ret = None
        while stack:
            fr = stack[-1]
            g, f, stage = fr[:3]
            if stage == 0:
                hit = memo.get((g, f))
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
                    fr[2] = 1
                    stack.append([tails[g], tails[f], 0])
                    continue
                else:
                    tile = self.step_pair(f1, g1)
                    if tile is None:
                        raise self._undefined(src, stack, f1, g1)
                    fr[2:] = 2, *tile
                    stack.append([tails[g], self._seq(tile[1]), 0])
                    continue
            elif stage == 1:
                if ret[2]:
                    ret = (ret[0], ret[1], (heads[f], ret[2]))
            elif stage == 2:
                fr[2] = 3
                fr.append(ret)
                stack.append([self._seq(fr[3], ret[0]), tails[f], 0])
                continue
            else:
                tile, (c, d, t2) = fr[5:]
                e, h, t3 = ret
                ret = (e, self._seq(self._steps(d), h), (t3, heads[f], heads[g], tile, t2))
            memo[g, f] = ret
            stack.pop()
        return ret

    def _witness_moves(self, tree, source: Word) -> list[Move]:
        """The moves of a witness tree from ``source``, in order.

        A node ``(f1, t)`` stands for the moves of t whiskered by the step
        f1; a node ``(t3, f1, g1, tile, t2)`` for those of t3 whiskered by
        f1, then the tile's cell at step 0, then those of t2 whiskered by
        g1; ``()`` is the empty tree.  So a cell's step is its depth.  The
        walk computes each node's source word from its parent's and builds
        the tile cells there (``_tile_instance``), so a memoized sub-tree
        serves every word it is reached at and is never copied or shifted.
        """
        p, moves = self.p, []
        stack = [(tree, 0, source)]
        while stack:
            node, depth, w = stack.pop()
            if isinstance(node, RelationInstance):
                moves.append(Move(depth, node))
            elif len(node) == 2:
                stack.append((node[1], depth + 1, p.step_target(p.step_at(w, node[0]))))
            elif node:
                t3, f1, g1, tile, t2 = node
                if t2:
                    stack.append((t2, depth + 1, p.step_target(p.step_at(w, g1))))
                stack.append((self._tile_instance(w, f1, g1, tile), depth, w))
                if t3:
                    stack.append((t3, depth + 1, p.step_target(p.step_at(w, f1))))
        return moves

    def _path_seq(self, q: Path) -> int:
        return self._seq([position(s) for s in q.steps])

    def _residuals(self, g: Path, f: Path) -> tuple[Path, Path]:
        """(g/f, f/g) without ``_check``; each input is checked as it is walked."""
        p = self.p
        g_end, f_end = p.path_target(g), p.path_target(f)
        e, dh, _ = self._solve(g.source, self._path_seq(g), self._path_seq(f))
        return p.path_at(f_end, self._steps(e)), p.path_at(g_end, self._steps(dh))

    def pair(self, g: Path, f: Path) -> tuple[Path, Path]:
        """(g/f, f/g)."""
        self._check(g, f)
        return self._residuals(g, f)

    def nf_residual(self, g: Path, u: NormalizationResult) -> Path:
        """g/u for the normalization u of g's source: ``pair(g, u.path)[0]``
        with the same work, solved on u's positional steps and built at
        ``u.normal``, so u is never walked and u/g never built."""
        if g.source != u.input:
            self._check(g, u.path)  # raises: not coinitial
        self.p.path_words(g)
        e = self._solve(g.source, self._path_seq(g), self._seq(u.steps))[0]
        return self.p.path_at(u.normal, self._steps(e))

    # -- witnesses -----------------------------------------------------------

    def pair_with_witness(self, g: Path, f: Path) -> tuple[Path, Path, CellTrace]:
        """(g/f, f/g, trace) with trace : f;(g/f)  =>*  g;(f/g): ``pair``,
        then the tree of the memo entry it leaves flattened from g's source."""
        gf, fg = self.pair(g, f)
        tree = self._memo[self._path_seq(g), self._path_seq(f)][2]
        moves = self._witness_moves(tree, g.source)
        return gf, fg, trace_from_moves(self.p, Path(f.source, f.steps + gf.steps), moves)

    def _tile_instance(self, w: Word, f1: Step, g1: Step, tile) -> RelationInstance:
        """The cell of a tile on ``w``, from f1;(g1/f1) to g1;(f1/g1)."""
        p = self.p
        if tile is None:
            return exchange_instance(p, w, f1, g1)
        entry, f_is_first = tile
        end = max(s[0] + len(p.gen_map[s[1]].source) for s in (f1, g1))
        forward = entry.lhs_is_first == f_is_first
        return RelationInstance(w[: min(f1[0], g1[0])], w[end:], forward, name=entry.relation)

    # -- 2-cell residuals ------------------------------------------------------

    def cell_residual(self, alpha: CellTrace, f: Path) -> CellTrace:
        """Residuate a 2-cell trace after a coinitial rewriting path.

        Iterates over the steps of ``f``; for each cell of the trace the two
        endpoint residuals are joined by a bounded search for a connecting
        trace (the local cylinder top).
        """
        p = self.p
        cur = alpha
        for w, step in zip(p.path_words(f), f.steps):
            step_path = Path(w, (step,))
            src = cur.source.source
            states = [cur.source]
            states += (p.path_at(src, steps) for _, steps, _ in replay(p, cur.source, cur.moves))
            residuals = [self._residuals(s, step_path)[0] for s in states]
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
