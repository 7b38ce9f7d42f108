"""Data model for presentations of (monoidal) categories modulo object rules.

A presentation declares object generators, morphism generators (a subset of
which is *equational*) and relations between parallel composites.  In
monoidal mode the source and target of a generator are words over the object
alphabet and a generator rewrites a factor of a word inside a (left, right)
context; path mode is the degenerate case where every word has length one
and all contexts are empty.

The text format is line oriented, ``#`` starts a comment::

    mode (path|monoidal)
    objects <name>+
    gen    <name> : <word|0> -> <word|0>
    eqgen  <name> : <word> -> <word>
    rel    <name> : <path> => <path>
    weight <block> on (steps|rels) order (lex|pointwise) dim <k> { ... }

A word is written either as space separated object names or, when every
object name is a single character, as a juxtaposed string (``baa``); ``0``
denotes the empty word.  A step is ``<word?>[<gen>]<word?>`` and a path is a
``;`` separated list of steps, or ``id <word>`` for an identity.  Paths are
written in diagrammatic order: ``b[m] ; [g]`` first applies ``m`` under a
``b``, then ``g``.

``Presentation.path_words`` is the one checked walk along a path: the
source and the word after each step.  ``path_target`` is its last word.
``replay`` is the one checked walk along the moves of a 2-cell trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

Word = tuple[str, ...]

Step = tuple[int, str]  # (offset, generator): a step against the word it acts on

EMPTY: Word = ()


class CohpresError(Exception):
    """Base class for all toolkit errors."""


class ParseError(CohpresError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class TypeCheckError(CohpresError):
    pass


# ---------------------------------------------------------------------------
# weights (declarative part; evaluation lives in cohpres.coherence)


@dataclass(frozen=True)
class WeightTerm:
    """One coordinate of a weight expression.

    kind is one of ``const``, ``countL``, ``countR``, ``ctx_transp``,
    ``word_transp``.  The count terms count a symbol in the left/right
    context of an item; ``ctx_transp(b, a)`` counts (b, a) inversions over
    the concatenated contexts and ``word_transp(b, a)`` over the item's full
    source word (contexts included).
    """

    kind: str
    args: tuple[str, ...] = ()
    value: int = 0

    def __str__(self) -> str:
        if self.kind == "const":
            return str(self.value)
        return f"{self.kind}({','.join(self.args)})"


@dataclass(frozen=True)
class WeightSpec:
    name: str
    on: str  # "steps" | "rels"
    order: str  # "lex" | "pointwise"
    dim: int
    entries: dict[str, tuple[WeightTerm, ...]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# syntactic material


@dataclass(frozen=True)
class MorGen:
    name: str
    source: Word
    target: Word
    equational: bool = False


@dataclass(frozen=True)
class RewriteStep:
    """One generator applied in a (left word, right word) context."""

    left: Word
    gen: str
    right: Word


def position(s: RewriteStep) -> Step:
    return len(s.left), s.gen


@dataclass(frozen=True)
class Path:
    """A composable sequence of rewriting steps; empty steps = identity."""

    source: Word
    steps: tuple[RewriteStep, ...] = ()

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Relation:
    name: str
    lhs: Path
    rhs: Path


@dataclass(frozen=True)
class RelationInstance:
    """A named relation or exchange cell, whiskered by outer contexts.

    Exchange cells are stored in the restricted shape (outer contexts of the
    general exchange folded into ``left``/``right``): ``exch = (f, mid, g)``
    commutes a step of generator ``f`` past a later, disjoint step of ``g``
    with the word ``mid`` in between.  ``forward`` orients the rewrite from
    the declared lhs (for exchange: the f-first side) to the rhs.
    """

    left: Word
    right: Word
    forward: bool = True
    name: str | None = None
    exch: tuple[str, Word, str] | None = None


@dataclass(frozen=True)
class CellStep:
    """One 2-cell applied at a path position: prefix ; instance ; suffix."""

    prefix: Path
    inst: RelationInstance
    suffix: Path


class Move(NamedTuple):
    """One cell of a trace: ``inst`` with its from-side starting at step
    ``at`` of the path the cell rewrites.  Whiskering a move by a one-step
    prefix adds one to ``at``; a suffix changes nothing."""

    at: int
    inst: RelationInstance


@dataclass(frozen=True)
class CellTrace:
    """A 2-cell: whiskered relation/exchange cells rewriting ``source`` one
    after another, each fixed by its move.

    Made by ``trace_from_moves``, which checks the moves against ``pres``;
    two traces are equal when their sources and moves are.  ``cells``
    builds each cell with its prefix and suffix path only when read.
    """

    source: Path
    moves: tuple[Move, ...]
    pres: Presentation = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.moves)

    @cached_property
    def cells(self) -> tuple[CellStep, ...]:
        # the path as RewriteSteps; each move rebuilds only its to-side's
        p, src, path, out = self.pres, self.source.source, list(self.source.steps), []
        for (at, inst), (end, steps, words) in zip(self.moves, replay(p, self.source, self.moves)):
            path[at : len(path) - len(steps) + end] = p.path_at(words[at], steps[at:end]).steps
            out.append(CellStep(Path(src, tuple(path[:at])), inst, Path(words[end], tuple(path[end:]))))
        return tuple(out)


# ---------------------------------------------------------------------------
# presentation


@dataclass(frozen=True)
class Presentation:
    mode: str  # "path" | "monoidal"
    objects: tuple[str, ...]
    generators: tuple[MorGen, ...]
    relations: tuple[Relation, ...]
    weights: dict[str, WeightSpec] = field(default_factory=dict)

    # -- lookups ------------------------------------------------------------

    @cached_property
    def gen_map(self) -> dict[str, MorGen]:
        return {g.name: g for g in self.generators}

    @cached_property
    def relation_map(self) -> dict[str, Relation]:
        return {r.name: r for r in self.relations}

    @cached_property
    def equational_names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.generators if g.equational)

    @cached_property
    def redex_patterns(self) -> dict[bool, tuple[tuple[Word, MorGen], ...]]:
        """``(source, generator)`` of every generator (key False) and of the
        equational ones (key True): what ``objects`` scans words for."""
        pairs = tuple((g.source, g) for g in self.generators)
        return {False: pairs, True: tuple(pair for pair in pairs if pair[1].equational)}

    @cached_property
    def letter_sep(self) -> str:
        """What separates the letters of a printed word: nothing when every
        object name is one character, else a space."""
        return "" if all(len(o) == 1 for o in self.objects) else " "

    def gen(self, name: str) -> MorGen:
        try:
            return self.gen_map[name]
        except KeyError:
            raise TypeCheckError(f"unknown generator '{name}'") from None

    def is_equational_step(self, s: RewriteStep) -> bool:
        return self.gen(s.gen).equational

    def is_equational_path(self, p: Path) -> bool:
        return all(self.is_equational_step(s) for s in p.steps)

    # -- typing -------------------------------------------------------------

    def step_source(self, s: RewriteStep) -> Word:
        return s.left + self.gen(s.gen).source + s.right

    def step_target(self, s: RewriteStep) -> Word:
        return s.left + self.gen(s.gen).target + s.right

    def step_at(self, w: Word, s: Step) -> RewriteStep:
        """``s`` on ``w``; raises TypeCheckError if it does not apply there."""
        off, name = s
        src = self.gen(name).source
        if off + len(src) > len(w) or w[off : off + len(src)] != src:
            raise TypeCheckError(f"step [{name}] at {off} does not apply to {self.fmt_word(w)}")
        return RewriteStep(w[:off], name, w[off + len(src) :])

    def path_at(self, w: Word, steps) -> Path:
        """The path of the positional ``steps`` from ``w``, each step checked
        against the word it lands on (see ``step_at``)."""
        source, out = w, []
        for s in steps:
            out.append(self.step_at(w, s))
            w = self.step_target(out[-1])
        return Path(source, tuple(out))

    def path_words(self, p: Path) -> list[Word]:
        """The source of ``p`` and the word after each of its steps; raises
        TypeCheckError at the first step that does not compose."""
        w = p.source
        words = [w]
        for s in p.steps:
            g = self.gen(s.gen)
            if s.left + g.source + s.right != w:
                raise TypeCheckError(
                    f"step {self.fmt_step(s)} does not compose at {self.fmt_word(w)}"
                )
            w = s.left + g.target + s.right
            words.append(w)
        return words

    def path_target(self, p: Path) -> Word:
        return self.path_words(p)[-1]

    def identity(self, w: Word) -> Path:
        return Path(w, ())

    # -- formatting ----------------------------------------------------------

    def fmt_word(self, w: Word) -> str:
        return self.letter_sep.join(w) if w else "0"

    def fmt_step(self, s: RewriteStep) -> str:
        sep = self.letter_sep
        l, r = sep.join(s.left), sep.join(s.right)
        return f"{l}{sep if l else ''}[{s.gen}]{sep if r else ''}{r}"

    def fmt_path(self, p: Path) -> str:
        if not p.steps:
            return f"id {self.fmt_word(p.source)}"
        return " ; ".join(self.fmt_step(s) for s in p.steps)

    def fmt_instance(self, inst: RelationInstance) -> str:
        if inst.name is not None:
            core = inst.name
        else:
            f, mid, g = inst.exch  # type: ignore[misc]
            core = f"exch({f},{self.fmt_word(mid)},{g})"
        sep, arrow = self.letter_sep, "" if inst.forward else "~"
        return f"{sep.join(inst.left)}({arrow}{core}){sep.join(inst.right)}"


# ---------------------------------------------------------------------------
# path algebra


def compose(p: Presentation, p1: Path, p2: Path) -> Path:
    """Diagrammatic composition: first p1, then p2."""
    if p.path_target(p1) != p2.source:
        raise TypeCheckError(
            f"cannot compose {p.fmt_path(p1)} with {p.fmt_path(p2)}: "
            f"target {p.fmt_word(p.path_target(p1))} != source {p.fmt_word(p2.source)}"
        )
    return Path(p1.source, p1.steps + p2.steps)


def tensor_ctx(p: Presentation, x: Word, path: Path, z: Word) -> Path:
    """Whisker a path by object words on both sides (monoidal action)."""
    if p.mode == "path" and (x or z):
        raise TypeCheckError("tensor_ctx with nonempty contexts requires monoidal mode")
    steps = tuple(RewriteStep(x + s.left, s.gen, s.right + z) for s in path.steps)
    return Path(x + path.source + z, steps)


def instance_sides(p: Presentation, inst: RelationInstance) -> tuple[Word, tuple, tuple]:
    """The source word of an instance and its (from, to) sides as positional
    steps on that word, whiskered and oriented."""
    x, z = inst.left, inst.right
    if inst.name is not None:
        rel = p.relation_map.get(inst.name)
        if rel is None:
            raise TypeCheckError(f"unknown relation '{inst.name}'")
        w = x + rel.lhs.source + z
        a, b = (tuple((len(x) + len(s.left), s.gen) for s in side.steps) for side in (rel.lhs, rel.rhs))
    else:
        # the f-first side applies f, then g; the other g, then f
        fname, mid, gname = inst.exch  # type: ignore[misc]
        f, g = p.gen(fname), p.gen(gname)
        at_g = len(x) + len(f.source) + len(mid)
        w = x + f.source + mid + g.source + z
        a = ((len(x), fname), (at_g + len(f.target) - len(f.source), gname))
        b = ((at_g, gname), (len(x), fname))
    return (w, a, b) if inst.forward else (w, b, a)


def invert_instance(inst: RelationInstance) -> RelationInstance:
    return replace(inst, forward=not inst.forward)


def replay(p: Presentation, source: Path, moves):
    """Apply ``moves`` to ``source`` in turn, checking each from-side against
    the current path; raises TypeCheckError at the first that does not apply.

    After each move it yields ``(end, steps, words)``: the index just past the
    cell's to-side, the current path's positional steps and the word at each
    index.  The two lists are edited in place, so a cell costs the length of
    its sides, not of the path, and a caller copies what it keeps.
    """
    steps, words = [position(s) for s in source.steps], p.path_words(source)
    for at, inst in moves:
        w, lhs, rhs = instance_sides(p, inst)
        end = at + len(lhs)
        if not 0 <= at <= len(steps) or words[at] != w or tuple(steps[at:end]) != lhs:
            raise TypeCheckError(f"cell {p.fmt_instance(inst)} does not apply at step {at}")
        steps[at:end] = rhs
        words[at:end] = p.path_words(p.path_at(w, rhs))[:-1]
        yield at + len(rhs), steps, words


def trace_from_moves(p: Presentation, source: Path, moves) -> CellTrace:
    """The trace of ``moves`` from ``source``, checked by ``replay``."""
    moves = tuple(moves)
    for _ in replay(p, source, moves):
        pass
    return CellTrace(source, moves, p)


def check_trace(p: Presentation, trace: CellTrace) -> Path:
    """Validate a trace end to end and return its target path."""
    steps = [position(s) for s in trace.source.steps]
    for _, steps, _ in replay(p, trace.source, trace.moves):
        pass
    return p.path_at(trace.source.source, steps)


# ---------------------------------------------------------------------------
# validation


def validate(p: Presentation) -> list[str]:
    """All invariant violations, one diagnostic string each (empty = valid)."""
    out: list[str] = []
    if p.mode not in ("path", "monoidal"):
        out.append(f"unknown mode '{p.mode}'")
        return out
    seen: set[str] = set()
    for name in p.objects:
        if name in seen:
            out.append(f"duplicate object name '{name}'")
        seen.add(name)
    gnames: set[str] = set()
    for g in p.generators:
        if g.name in gnames:
            out.append(f"duplicate generator name '{g.name}'")
        gnames.add(g.name)
        for w, side in ((g.source, "source"), (g.target, "target")):
            for letter in w:
                if letter not in seen:
                    out.append(f"generator '{g.name}': undeclared object '{letter}' in {side}")
            if p.mode == "path" and len(w) != 1:
                out.append(f"generator '{g.name}': {side} must be a single object in path mode")
    rnames: set[str] = set()
    for r in p.relations:
        if r.name in rnames:
            out.append(f"duplicate relation name '{r.name}'")
        rnames.add(r.name)
        try:
            if r.lhs.source != r.rhs.source:
                out.append(f"relation '{r.name}': sides have different sources")
            elif p.path_target(r.lhs) != p.path_target(r.rhs):
                out.append(f"relation '{r.name}': sides have different targets")
            if p.mode == "path":
                for s in r.lhs.steps + r.rhs.steps:
                    if s.left or s.right:
                        out.append(f"relation '{r.name}': nonempty context in path mode")
                        break
        except TypeCheckError as exc:
            out.append(f"relation '{r.name}': {exc}")
    for spec in p.weights.values():
        for key, terms in spec.entries.items():
            if key != "exch" and key not in gnames and key not in rnames:
                out.append(f"weight {spec.name}: entry '{key}' names nothing declared")
            if len(terms) != spec.dim:
                out.append(f"weight {spec.name}: entry '{key}' has arity {len(terms)} != dim {spec.dim}")
            for t in terms:
                if t.kind == "const" and t.value < 0:
                    out.append(f"weight {spec.name}: entry '{key}' has a negative constant")
                for a in t.args:
                    if a not in seen:
                        out.append(f"weight {spec.name}: undeclared symbol '{a}'")
    return out


def validated(p: Presentation) -> Presentation:
    """``p`` itself; raises TypeCheckError naming every violation if it is invalid."""
    problems = validate(p)
    if problems:
        raise TypeCheckError("; ".join(problems))
    return p


# ---------------------------------------------------------------------------
# parsing

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_STEP_RE = re.compile(rf"^(.*?)\[({_NAME})\](.*)$")
_WEIGHT_RE = re.compile(
    rf"^weight\s+({_NAME})\s+on\s+(steps|rels)\s+order\s+(lex|pointwise)\s+dim\s+(\d+)\s*\{{(.*)\}}\s*$",
    re.S,
)
_ENTRY_RE = re.compile(rf"({_NAME}|exch)\s*->\s*\(([^()]*(?:\([^()]*\)[^()]*)*)\)")
_TERM_RE = re.compile(rf"^({_NAME})\(([^)]*)\)$")


def parse_word(
    text: str,
    objects: tuple[str, ...],
    line: int | None = None,
    allow_blank: bool = False,
) -> Word:
    text = text.strip()
    if text == "0" or (text == "" and allow_blank):
        return EMPTY
    if text == "":
        raise ParseError("empty word (write 0 for the unit)", line)
    letters: list[str] = []
    single = all(len(o) == 1 for o in objects)
    for tok in text.split():
        if tok in objects:
            letters.append(tok)
        elif single and all(c in objects for c in tok):
            letters.extend(tok)
        else:
            raise ParseError(f"cannot read word '{text}': unknown symbol '{tok}'", line)
    return tuple(letters)


def parse_step(text: str, p: Presentation, line: int | None = None) -> RewriteStep:
    m = _STEP_RE.match(text.strip())
    if not m:
        raise ParseError(f"cannot read step '{text.strip()}'", line)
    lt, gen, rt = m.groups()
    if gen not in p.gen_map:
        raise ParseError(f"unknown generator '{gen}'", line)
    left = parse_word(lt, p.objects, line, allow_blank=True)
    right = parse_word(rt, p.objects, line, allow_blank=True)
    if p.mode == "path" and (left or right):
        raise ParseError(f"step '{text.strip()}': contexts are not allowed in path mode", line)
    return RewriteStep(left, gen, right)


def parse_path(text: str, p: Presentation, line: int | None = None) -> Path:
    text = text.strip()
    if text.startswith("id"):
        rest = text[2:]
        if rest == "" or rest[0].isspace():
            return Path(parse_word(rest, p.objects, line), ())
    steps = tuple(parse_step(part, p, line) for part in text.split(";"))
    src = p.step_source(steps[0])
    path = Path(src, steps)
    try:
        p.path_target(path)
    except TypeCheckError as exc:
        raise ParseError(str(exc), line) from None
    return path


def _parse_weight_terms(body: str, line: int) -> dict[str, tuple[WeightTerm, ...]]:
    entries: dict[str, tuple[WeightTerm, ...]] = {}
    for m in _ENTRY_RE.finditer(body):
        key, tuple_body = m.group(1), m.group(2)
        terms: list[WeightTerm] = []
        # _ENTRY_RE nests parentheses one level deep at most, so a comma
        # between terms is one with no ")" ahead of the next "("
        for raw in (part.strip() for part in re.split(r",(?![^(]*\))", tuple_body)):
            if not raw:
                continue
            if re.fullmatch(r"-?\d+", raw):
                terms.append(WeightTerm("const", (), int(raw)))
                continue
            tm = _TERM_RE.match(raw)
            if not tm:
                raise ParseError(f"cannot read weight term '{raw}'", line)
            kind, args = tm.group(1), tuple(a.strip() for a in tm.group(2).split(",") if a.strip())
            if kind == "const":
                if len(args) != 1 or not re.fullmatch(r"-?\d+", args[0]):
                    raise ParseError(f"const takes one integer, got '{raw}'", line)
                terms.append(WeightTerm("const", (), int(args[0])))
            elif kind in ("countL", "countR") and len(args) == 1:
                terms.append(WeightTerm(kind, args))
            elif kind in ("ctx_transp", "word_transp") and len(args) == 2:
                terms.append(WeightTerm(kind, args))
            else:
                raise ParseError(f"unknown weight term '{raw}'", line)
        entries[key] = tuple(terms)
    return entries


def parse_presentation(text: str) -> Presentation:
    """Parse and validate a presentation document.

    Raises ParseError (with a line number) on syntax problems and
    TypeCheckError when the parsed presentation violates an invariant.
    """
    # strip comments, keep line numbers; join weight blocks spanning lines
    lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            lines.append((i, body.strip()))
    joined: list[tuple[int, str]] = []
    k = 0
    while k < len(lines):
        ln, body = lines[k]
        if body.startswith("weight") and body.count("{") > body.count("}"):
            while k + 1 < len(lines) and body.count("{") > body.count("}"):
                k += 1
                body = body + " " + lines[k][1]
        joined.append((ln, body))
        k += 1

    mode: str | None = None
    objects: list[str] = []
    for ln, body in joined:
        if body.startswith("mode"):
            if mode is not None:
                raise ParseError("duplicate mode line", ln)
            mode = body.split(None, 1)[1].strip() if len(body.split(None, 1)) > 1 else ""
            if mode not in ("path", "monoidal"):
                raise ParseError(f"mode must be 'path' or 'monoidal', got '{mode}'", ln)
        elif body.startswith("objects"):
            objects.extend(body.split()[1:])
    if mode is None:
        raise ParseError("missing mode line", 1)
    if not objects:
        raise ParseError("missing objects line", 1)

    gens: list[MorGen] = []
    obj_tuple = tuple(objects)
    for ln, body in joined:
        head = body.split(None, 1)[0]
        if head not in ("gen", "eqgen"):
            continue
        m = re.match(rf"^(?:gen|eqgen)\s+({_NAME})\s*:\s*(.*?)\s*->\s*(.*)$", body)
        if not m:
            raise ParseError(f"cannot read generator line '{body}'", ln)
        name, st, tt = m.groups()
        src = parse_word(st, obj_tuple, ln)
        tgt = parse_word(tt, obj_tuple, ln)
        if mode == "path" and (len(src) != 1 or len(tgt) != 1):
            raise ParseError(f"generator '{name}': path mode endpoints must be single objects", ln)
        gens.append(MorGen(name, src, tgt, equational=head == "eqgen"))

    pres = Presentation(mode, obj_tuple, tuple(gens), ())
    relations: list[Relation] = []
    weights: dict[str, WeightSpec] = {}
    for ln, body in joined:
        head = body.split(None, 1)[0]
        if head == "rel":
            m = re.match(rf"^rel\s+({_NAME})\s*:\s*(.*?)\s*=>\s*(.*)$", body)
            if not m:
                raise ParseError(f"cannot read relation line '{body}'", ln)
            name, lt, rt = m.groups()
            lhs = parse_path(lt, pres, ln)
            rhs = parse_path(rt, pres, ln)
            relations.append(Relation(name, lhs, rhs))
        elif head == "weight":
            m = _WEIGHT_RE.match(body)
            if not m:
                raise ParseError(f"cannot read weight block '{body}'", ln)
            wname, on, order, dim, inner = m.groups()
            spec = WeightSpec(wname, on, order, int(dim), _parse_weight_terms(inner, ln))
            if wname in weights:
                raise ParseError(f"duplicate weight block '{wname}'", ln)
            weights[wname] = spec

    return validated(Presentation(mode, obj_tuple, tuple(gens), tuple(relations), weights))


# ---------------------------------------------------------------------------
# printing


def print_presentation(p: Presentation) -> str:
    out = [f"mode {p.mode}", "objects " + " ".join(p.objects)]
    for g in p.generators:
        kw = "eqgen" if g.equational else "gen"
        out.append(f"{kw} {g.name} : {p.fmt_word(g.source)} -> {p.fmt_word(g.target)}")
    for r in p.relations:
        out.append(f"rel {r.name} : {p.fmt_path(r.lhs)} => {p.fmt_path(r.rhs)}")
    for spec in p.weights.values():
        entries = "  ".join(
            f"{k} -> ({', '.join(str(t) for t in ts)})" for k, ts in spec.entries.items()
        )
        out.append(
            f"weight {spec.name} on {spec.on} order {spec.order} dim {spec.dim} {{ {entries} }}"
        )
    return "\n".join(out) + "\n"
