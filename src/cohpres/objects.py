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
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import CohpresError, Path, Presentation, RewriteStep, Word


@dataclass(frozen=True)
class NormalizationResult:
    input: Word
    normal: Word
    path: Path  # all steps equational, input -> normal


@dataclass(frozen=True)
class TerminationVerdict:
    status: str  # "terminating" | "cycle" | "budget_exhausted"
    explored: int
    cycle: tuple[Word, ...] = ()
    budget: int = 0


class BudgetExhausted(CohpresError):
    pass


def steps_on(w: Word, p: Presentation, equational: bool = False) -> list[RewriteStep]:
    """Every step applicable to ``w``, in the order the module docstring fixes."""
    out: list[RewriteStep] = []
    for g in p.generators:
        if equational and not g.equational:
            continue
        k = len(g.source)
        for pos in range(len(w) - k + 1):
            if w[pos : pos + k] == g.source:
                out.append(RewriteStep(w[:pos], g.name, w[pos + k :]))
    if equational:
        out.sort(key=lambda s: len(s.left))
    return out


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
    shortest first."""
    frontier = [(Path(x, ()), x)]
    yield frontier[0]
    for _ in range(bound):
        nxt = []
        for q, w in frontier:
            for s in steps_on(w, p, equational):
                item = (Path(x, q.steps + (s,)), p.step_target(s))
                yield item
                nxt.append(item)
        frontier = nxt


def _seed_words(p: Presentation, max_len: int) -> list[Word]:
    seeds: list[Word] = []
    seen: set[Word] = set()

    def add(w: Word) -> None:
        if w not in seen:
            seen.add(w)
            seeds.append(w)

    for g in p.generators:
        add(g.source)
        add(g.target)
    for r in p.relations:
        add(r.lhs.source)
        add(p.path_target(r.lhs))
    for w in words_upto(p, 1)[1:] if p.mode == "path" else words_upto(p, max_len):
        add(w)
    return seeds


def check_equational_termination(
    p: Presentation, budget: int = 10_000, max_len: int = 6
) -> TerminationVerdict:
    """Exhaustively explore the equational step graph and look for cycles.

    The universe is every word reachable from generator/relation endpoint
    words plus (in monoidal mode) all words of length at most ``max_len``.
    A ``budget_exhausted`` verdict is inconclusive, never a pass.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    GRAY, BLACK = 1, 2
    color: dict[Word, int] = {}
    succs: dict[Word, list[Word]] = {}
    explored = 0
    for seed in _seed_words(p, max_len):
        if color.get(seed) == BLACK:
            continue
        color[seed] = GRAY
        explored += 1
        chain: list[Word] = [seed]
        cursor: list[int] = [0]
        while chain:
            w = chain[-1]
            if w not in succs:
                succs[w] = [p.step_target(s) for s in steps_on(w, p, equational=True)]
            kids = succs[w]
            if cursor[-1] < len(kids):
                child = kids[cursor[-1]]
                cursor[-1] += 1
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
                cursor.append(0)
            else:
                color[w] = BLACK
                chain.pop()
                cursor.pop()
    return TerminationVerdict("terminating", explored)


def normalize(w: Word, p: Presentation, max_steps: int = 10_000) -> NormalizationResult:
    """Rewrite ``w`` with the deterministic strategy until no rule applies.

    Each step is ``steps_on(cur, p, equational=True)[0]``.  A rewrite at
    offset ``i`` leaves the word left of ``i`` as it was, so the next
    leftmost redex starts at ``i`` or overlaps the rewritten factor, and
    the scan resumes ``longest equational source - 1`` letters left of ``i``.
    """
    eqs = [g for g in p.generators if g.equational]
    back = max([len(g.source) - 1 for g in eqs] + [0])
    cur, at, steps = w, 0, []
    for _ in range(max_steps):
        redexes = ((i, g) for i in range(max(0, at - back), len(cur) + 1) for g in eqs)
        hit = next(((i, g) for i, g in redexes if cur[i : i + len(g.source)] == g.source), None)
        if hit is None:
            return NormalizationResult(w, cur, Path(w, tuple(steps)))
        at, g = hit
        left, right = cur[:at], cur[at + len(g.source) :]
        steps.append(RewriteStep(left, g.name, right))
        cur = left + g.target + right
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
