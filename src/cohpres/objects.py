"""The abstract rewriting system on object words induced by equational rules.

Equational generators rewrite factors of words; this module answers
reachability questions about that system: which steps apply to a word,
whether the system terminates on the explored universe, and what the chosen
normalization path of a word is (leftmost step, ties broken by generator
declaration order).

It also holds the three enumerators every bounded construction is built on:

- ``steps_on(w, p)`` lists the steps that apply to ``w`` in generator
  declaration order, then by left-context length.  With
  ``equational=True`` it keeps only equational steps, ordered by
  left-context length and then declaration order, so element 0 is the next
  step of the normalization strategy.  Both orders are observable (they fix
  witness order and the cycle ``check_equational_termination`` reports).
- ``words_upto(p, n)`` lists every word of length at most ``n``, by length,
  then in object order; element 0 is the empty word.  It ignores the mode:
  in path mode, where words are single objects, callers take
  ``words_upto(p, 1)[1:]``.
- ``paths_from(p, x, bound)`` lazily yields every path from ``x`` of at
  most ``bound`` steps with its target, as ``(path, target)`` pairs,
  shortest first, extending each path by ``steps_on`` of the target it
  carries; the first pair is the empty path and ``x``.

One private scanner, ``_redexes``, finds where generators apply: it yields
``(offset, generator)`` pairs lazily, by offset and then declaration order,
from a start offset.  ``steps_on`` lists it, the termination check draws
each word's children from it one at a time, and ``normalize`` takes its
first pair from a little left of the last rewrite, on one list it rewrites
in place, and records each step as its position (``core.Step``).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

from .core import CohpresError, MorGen, Path, Presentation, RewriteStep, Step, Word


@dataclass(frozen=True)
class NormalizationResult:
    """The normalization of ``input`` to ``normal`` by the equational
    positional ``steps``; ``path`` builds them as a ``Path`` only when read."""

    input: Word
    normal: Word
    steps: tuple[Step, ...]
    pres: Presentation = field(compare=False, repr=False)

    @cached_property
    def path(self) -> Path:
        return self.pres.path_at(self.input, self.steps)


@dataclass(frozen=True)
class TerminationVerdict:
    status: str  # "terminating" | "cycle" | "budget_exhausted"
    explored: int
    cycle: tuple[Word, ...] = ()
    budget: int = 0


class BudgetExhausted(CohpresError):
    pass


def _redexes(w: Word | list[str], patterns, start: int = 0) -> Iterator[tuple[int, MorGen]]:
    """Each ``(offset, generator)`` of the ``(source, generator)`` pairs
    ``patterns`` whose source, of the type of ``w`` (tuple or list), occurs
    in ``w`` at that offset, lazily, by offset from ``start`` on."""
    for i in range(start, len(w) + 1):
        for src, g in patterns:
            if w[i : i + len(src)] == src:
                yield i, g


def steps_on(w: Word, p: Presentation, equational: bool = False) -> list[RewriteStep]:
    """Every step applicable to ``w``, in the order the module docstring fixes."""
    patterns = p.redex_patterns[equational]
    hits = list(_redexes(w, patterns))
    if not equational:
        hits = [hit for _, g in patterns for hit in hits if hit[1] is g]
    return [RewriteStep(w[:i], g.name, w[i + len(g.source) :]) for i, g in hits]


def words_upto(p: Presentation, n: int) -> list[Word]:
    """Every word of length at most ``n``, by length, then in object order."""
    words: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(n):
        frontier = [w + (o,) for w in frontier for o in p.objects]
        words.extend(frontier)
    return words


def paths_from(
    p: Presentation, x: Word, bound: int, equational: bool = False
) -> Iterator[tuple[Path, Word]]:
    """Every path from ``x`` of at most ``bound`` steps with its target,
    shortest first.  The steps on each word reached, with their targets, are
    listed once and kept only for this walk."""
    steps_at: dict[Word, list[tuple[RewriteStep, Word]]] = {}
    frontier = [(Path(x, ()), x)]
    yield frontier[0]
    for _ in range(bound):
        nxt = []
        for q, w in frontier:
            if w not in steps_at:
                steps_at[w] = [(s, p.step_target(s)) for s in steps_on(w, p, equational)]
            for s, t in steps_at[w]:
                item = (Path(x, q.steps + (s,)), t)
                yield item
                nxt.append(item)
        frontier = nxt


def check_equational_termination(
    p: Presentation, budget: int = 10_000, max_len: int = 6
) -> TerminationVerdict:
    """Exhaustively explore the equational step graph and look for cycles.

    The universe is every word reachable from generator/relation endpoint
    words plus (in monoidal mode) all words of length at most ``max_len``.
    A ``budget_exhausted`` verdict is inconclusive, never a pass.

    The search is a depth-first colouring.  Each word on the DFS chain keeps
    one lazy iterator over its children in ``steps_on`` order, so memory
    holds the colours and the chain, not every successor list.  ``explored``
    counts the words coloured, seeds included; once it reaches ``budget``,
    the next new word that is not a seed ends the search.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    eqs = p.redex_patterns[True]

    def children(w: Word) -> Iterator[Word]:
        return (w[:i] + g.target + w[i + len(g.source) :] for i, g in _redexes(w, eqs))

    seeds = [w for g in p.generators for w in (g.source, g.target)]
    seeds += [w for r in p.relations for w in (r.lhs.source, p.path_target(r.lhs))]
    seeds += words_upto(p, 1)[1:] if p.mode == "path" else words_upto(p, max_len)
    GRAY, BLACK = 1, 2
    color: dict[Word, int] = {}
    explored = 0
    for seed in seeds:
        if seed in color:
            continue
        color[seed] = GRAY
        explored += 1
        chain: list[Word] = [seed]
        kids: list[Iterator[Word]] = [children(seed)]
        while chain:
            child = next(kids[-1], None)
            if child is None:
                color[chain.pop()] = BLACK
                kids.pop()
                continue
            state = color.get(child)
            if state == GRAY:
                witness = tuple(chain[chain.index(child) :]) + (child,)
                return TerminationVerdict("cycle", explored, cycle=witness)
            if state == BLACK:
                continue
            if explored >= budget:
                return TerminationVerdict("budget_exhausted", explored, budget=budget)
            color[child] = GRAY
            explored += 1
            chain.append(child)
            kids.append(children(child))
    return TerminationVerdict("terminating", explored)


def normalize(w: Word, p: Presentation, max_steps: int = 10_000) -> NormalizationResult:
    """Rewrite ``w`` with the deterministic strategy until no rule applies.

    Each step is ``steps_on(cur, p, equational=True)[0]``, recorded as its
    position ``(offset, gen)``; the word is one list rewritten in place.  A
    rewrite at offset ``i`` leaves the word left of ``i`` as it was, so the
    next leftmost redex starts at ``i`` or overlaps the rewritten factor, and
    the scan resumes ``longest equational source - 1`` letters left of ``i``.
    """
    eqs = [(list(src), g) for src, g in p.redex_patterns[True]]
    back = max([len(src) - 1 for src, _ in eqs] + [0])
    cur, at, steps = list(w), 0, []
    for _ in range(max_steps):
        hit = next(_redexes(cur, eqs, max(0, at - back)), None)
        if hit is None:
            return NormalizationResult(w, tuple(cur), tuple(steps), p)
        at, g = hit
        cur[at : at + len(g.source)] = g.target
        steps.append((at, g.name))
    raise BudgetExhausted(
        f"normalization of {p.fmt_word(w)} did not finish within {max_steps} steps"
    )


def transposition_number(w: Word, b: str, a: str) -> int:
    """Number of pairs i < j with w[i] = b and w[j] = a."""
    count = 0
    bs = 0
    for letter in w:
        if letter == b:
            bs += 1
        if letter == a:
            count += bs
    return count
