"""The categorical constructions being compared.

Quotient, localization and opposite presentations; Tietze transformations
with bounded derivability checks; the normal-form functor (residuate along
the chosen normalization path, then renormalize the target); tensor on
normal forms; and fraction arithmetic for the category of fractions with
equational denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .core import (
    CohpresError,
    MorGen,
    Path,
    Presentation,
    Relation,
    RewriteStep,
    TypeCheckError,
    Word,
    compose,
    tensor_ctx,
    validate,
)
from .objects import normalize, paths_from, words_upto
from .oracle import search_trace
from .residuation import ResidualTable, ResiduationError, Residuator


# search bounds of the 2-cell searches below: Tietze derivability checks,
# and the mediating-pair and closure searches on fractions
TIETZE_MAX_CELLS, TIETZE_BUDGET = 10, 10_000
CELL_BUDGET = 20_000


class TietzeRefusal(CohpresError):
    """A removal whose derivability could not be established in budget."""


# ---------------------------------------------------------------------------
# opposite, quotient, localization


def _reverse_path(p: Presentation, path: Path) -> Path:
    src = p.path_target(path)
    return Path(src, tuple(reversed(path.steps)))


def opposite(p: Presentation) -> Presentation:
    """Reverse every generator and relation; equational set carries over."""
    gens = tuple(MorGen(g.name, g.target, g.source, g.equational) for g in p.generators)
    rels = tuple(
        Relation(r.name, _reverse_path(p, r.lhs), _reverse_path(p, r.rhs))
        for r in p.relations
    )
    return Presentation(p.mode, p.objects, gens, rels, dict(p.weights))


def quotient_class_map(p: Presentation) -> dict[str, str]:
    """Object -> representative of its class under the equational zig-zag
    closure (representative = first declared member)."""
    parent = {o: o for o in p.objects}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = {o: i for i, o in enumerate(p.objects)}
    for g in p.generators:
        if not g.equational:
            continue
        a, b = find(g.source[0]), find(g.target[0])
        if a != b:
            lo, hi = (a, b) if order[a] < order[b] else (b, a)
            parent[hi] = lo
    return {o: find(o) for o in p.objects}


def quotient_presentation(p: Presentation) -> Presentation:
    """Identify objects along equational generators and add f => id for each
    equational f.  Path mode only.
    """
    if p.mode != "path":
        raise TypeCheckError("quotient presentation exists in path mode only")
    rep = quotient_class_map(p)
    objects = tuple(o for o in p.objects if rep[o] == o)
    gens = tuple(
        MorGen(g.name, (rep[g.source[0]],), (rep[g.target[0]],), False)
        for g in p.generators
    )

    def remap(path: Path) -> Path:
        return Path((rep[path.source[0]],), path.steps)

    rels = [Relation(r.name, remap(r.lhs), remap(r.rhs)) for r in p.relations]
    for g in p.generators:
        if g.equational:
            cls = (rep[g.source[0]],)
            rels.append(
                Relation(f"{g.name}_id", Path(cls, (RewriteStep((), g.name, ()),)), Path(cls, ()))
            )
    out = Presentation("path", objects, gens, tuple(rels))
    problems = validate(out)
    if problems:
        raise TypeCheckError("; ".join(problems))
    return out


def localization_presentation(p: Presentation, sigma: set[str]) -> Presentation:
    """Adjoin a formal inverse and the two invertibility relations for every
    generator in sigma."""
    unknown = sigma - set(p.gen_map)
    if unknown:
        raise TypeCheckError(f"sigma names unknown generators: {sorted(unknown)}")
    gens = list(p.generators)
    rels = list(p.relations)
    for g in p.generators:
        if g.name not in sigma:
            continue
        inv = f"{g.name}_inv"
        if inv in p.gen_map:
            raise TypeCheckError(f"name '{inv}' already taken")
        gens.append(MorGen(inv, g.target, g.source, False))
        fwd = RewriteStep((), g.name, ())
        bwd = RewriteStep((), inv, ())
        rels.append(
            Relation(f"{g.name}_invl", Path(g.source, (fwd, bwd)), Path(g.source, ()))
        )
        rels.append(
            Relation(f"{g.name}_invr", Path(g.target, (bwd, fwd)), Path(g.target, ()))
        )
    out = Presentation(p.mode, p.objects, tuple(gens), tuple(rels), dict(p.weights))
    problems = validate(out)
    if problems:
        raise TypeCheckError("; ".join(problems))
    return out


# ---------------------------------------------------------------------------
# Tietze transformations


def _without_relation(p: Presentation, name: str) -> Presentation:
    rels = tuple(r for r in p.relations if r.name != name)
    return Presentation(p.mode, p.objects, p.generators, rels, dict(p.weights))


def _uses_gen(path: Path, name: str) -> bool:
    return any(s.gen == name for s in path.steps)


def tietze_apply(p: Presentation, script: str) -> Presentation:
    """Apply a script of Tietze transformations.

    Verbs: ``addgen N : W -> W := PATH``, ``rmgen N``,
    ``addrel N : PATH => PATH``, ``rmrel N``.  Removals and added relations
    must be derivable within the search budget, otherwise the transformation
    is refused (inconclusive, never unsound).
    """
    import re

    from .core import parse_path, parse_word

    cur = p
    for ln, raw in enumerate(script.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        verb = line.split(None, 1)[0]
        if verb == "addgen":
            m = re.match(r"^addgen\s+(\S+)\s*:\s*(.*?)\s*->\s*(.*?)\s*:=\s*(.*)$", line)
            if not m:
                raise TypeCheckError(f"tietze line {ln}: cannot read '{line}'")
            name, st, tt, pt = m.groups()
            if name in cur.gen_map:
                raise TypeCheckError(f"tietze line {ln}: generator '{name}' already exists")
            src = parse_word(st, cur.objects)
            tgt = parse_word(tt, cur.objects)
            body = parse_path(pt, cur)
            if body.source != src or cur.path_target(body) != tgt:
                raise TypeCheckError(f"tietze line {ln}: defining path has wrong endpoints")
            gens = cur.generators + (MorGen(name, src, tgt, False),)
            cur = Presentation(cur.mode, cur.objects, gens, cur.relations, dict(cur.weights))
            defrel = Relation(f"{name}_def", Path(src, (RewriteStep((), name, ()),)), body)
            cur = Presentation(
                cur.mode, cur.objects, cur.generators, cur.relations + (defrel,), dict(cur.weights)
            )
        elif verb == "rmgen":
            name = line.split()[1]
            if name not in cur.gen_map:
                raise TypeCheckError(f"tietze line {ln}: unknown generator '{name}'")
            defining = None
            for r in cur.relations:
                for one, other in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                    if (
                        len(one.steps) == 1
                        and one.steps[0] == RewriteStep((), name, ())
                        and not _uses_gen(other, name)
                    ):
                        defining = r
                        break
                if defining:
                    break
            if defining is None:
                raise TietzeRefusal(f"no defining relation found for generator '{name}'")
            for r in cur.relations:
                if r.name != defining.name and (_uses_gen(r.lhs, name) or _uses_gen(r.rhs, name)):
                    raise TietzeRefusal(
                        f"generator '{name}' still occurs in relation '{r.name}'"
                    )
            gens = tuple(g for g in cur.generators if g.name != name)
            rels = tuple(r for r in cur.relations if r.name != defining.name)
            cur = Presentation(cur.mode, cur.objects, gens, rels, dict(cur.weights))
        elif verb == "addrel":
            m = re.match(r"^addrel\s+(\S+)\s*:\s*(.*?)\s*=>\s*(.*)$", line)
            if not m:
                raise TypeCheckError(f"tietze line {ln}: cannot read '{line}'")
            name, lt, rt = m.groups()
            lhs = parse_path(lt, cur)
            rhs = parse_path(rt, cur)
            if search_trace(cur, lhs, rhs, TIETZE_MAX_CELLS, TIETZE_BUDGET) is None:
                raise TietzeRefusal(
                    f"relation '{name}' not derivable within budget; refusing to add"
                )
            cur = Presentation(
                cur.mode,
                cur.objects,
                cur.generators,
                cur.relations + (Relation(name, lhs, rhs),),
                dict(cur.weights),
            )
        elif verb == "rmrel":
            name = line.split()[1]
            rel = cur.relation_map.get(name)
            if rel is None:
                raise TypeCheckError(f"tietze line {ln}: unknown relation '{name}'")
            rest = _without_relation(cur, name)
            if search_trace(rest, rel.lhs, rel.rhs, TIETZE_MAX_CELLS, TIETZE_BUDGET) is None:
                raise TietzeRefusal(
                    f"relation '{name}' not derivable from the others within budget; "
                    "refusing to remove"
                )
            cur = rest
        else:
            raise TypeCheckError(f"tietze line {ln}: unknown verb '{verb}'")
    problems = validate(cur)
    if problems:
        raise TypeCheckError("; ".join(problems))
    return cur


# ---------------------------------------------------------------------------
# normal forms: objects, tensor, functor


def nf_object(x: Word, y: Word, p: Presentation) -> Word:
    """Tensor on normal forms: normalize the concatenation."""
    return normalize(x + y, p).normal


def nf_tensor(
    xhat: Word, f: Path, zhat: Word, p: Presentation, table: ResidualTable
) -> Path:
    """Action of normal-form objects on a morphism: the normal-form functor
    on the whiskered morphism."""
    return nf_functor_apply(tensor_ctx(p, xhat, f, zhat), p, table)


def nf_functor_apply(f: Path, p: Presentation, table: ResidualTable) -> Path:
    """The normal-form functor on morphisms: u_target . (f / u_source)."""
    u = normalize(f.source, p).path
    res = Residuator(p, table)
    r, _ = res.pair(f, u)
    v = normalize(p.path_target(r), p).path
    return compose(p, r, v)


# ---------------------------------------------------------------------------
# fractions


@dataclass(frozen=True)
class Fraction:
    """A localization morphism: a cofinal pair (numerator, equational
    denominator).  Represents num ; den^-1."""

    num: Path
    den: Path

    def source(self) -> Word:
        return self.num.source

    def target(self) -> Word:
        return self.den.source


def check_fraction(p: Presentation, phi: Fraction) -> None:
    if p.path_target(phi.num) != p.path_target(phi.den):
        raise TypeCheckError("fraction numerator and denominator are not cofinal")
    if not p.is_equational_path(phi.den):
        raise TypeCheckError("fraction denominator must be equational")


def fraction_compose(
    phi1: Fraction, phi2: Fraction, p: Presentation, table: ResidualTable
) -> Fraction:
    """Compose via the residuation square between den1 and num2."""
    check_fraction(p, phi1)
    check_fraction(p, phi2)
    if phi1.target() != phi2.source():
        raise TypeCheckError("fractions do not compose")
    res = Residuator(p, table)
    h, w = res.pair(phi2.num, phi1.den)  # h = num2/den1, w = den1/num2
    return Fraction(compose(p, phi1.num, h), compose(p, phi2.den, w))


def _by_target(items) -> dict[Word, list[Path]]:
    """The paths of ``(path, target)`` pairs grouped by target, in order."""
    out: dict[Word, list[Path]] = {}
    for q, t in items:
        out.setdefault(t, []).append(q)
    return out


def fraction_equal(
    phi1: Fraction,
    phi2: Fraction,
    p: Presentation,
    table: ResidualTable,
    budget: int = 8,
    coherent: bool = False,
) -> str:
    """Decide fraction equality: 'equal' or 'unequal'.  When the presentation
    is known coherent, compare the normal-form images of the numerators;
    otherwise search for a mediating pair of equational paths of at most
    ``budget`` steps.  'unequal' is a bounded negative: no mediating pair
    within ``budget``, or no trace within ``CELL_BUDGET``.
    """
    check_fraction(p, phi1)
    check_fraction(p, phi2)
    if phi1.source() != phi2.source() or phi1.target() != phi2.target():
        raise TypeCheckError("fraction_equal requires parallel fractions")
    if coherent:
        n1 = nf_functor_apply(phi1.num, p, table)
        n2 = nf_functor_apply(phi2.num, p, table)
        return "equal" if search_trace(p, n1, n2, budget=CELL_BUDGET) is not None else "unequal"
    w2s = _by_target(paths_from(p, p.path_target(phi2.den), budget, equational=True))
    for w1, t in paths_from(p, p.path_target(phi1.den), budget, equational=True):
        for w2 in w2s.get(t, []):
            den1, den2 = compose(p, phi1.den, w1), compose(p, phi2.den, w2)
            if search_trace(p, den1, den2, budget=CELL_BUDGET) is None:
                continue
            num1, num2 = compose(p, phi1.num, w1), compose(p, phi2.num, w2)
            if search_trace(p, num1, num2, budget=CELL_BUDGET) is not None:
                return "equal"
    return "unequal"


def sample_fraction_agreement(
    p: Presentation,
    table: ResidualTable,
    normals: list[Word],
    bound: int,
    n_samples: int,
) -> dict:
    """Compare the mediating-pair search against normal-form image equality
    on sampled parallel fraction pairs.  In path mode every object word is a
    single object, so sources and denominators start at single objects."""
    if p.mode == "path":
        small = srcs = words_upto(p, 1)[1:]
    else:
        small = words_upto(p, 4)
        srcs = [w for w in small if 3 <= len(w) <= 4][:12]
    if not srcs:
        srcs = [w for w in normals if len(w) <= 3][:4]
    dens_by_target = _by_target(
        item for y in small for item in paths_from(p, y, 2, equational=True)
    )

    def parallel_pairs():
        # fractions from x, grouped by their target (the denominator's source)
        for x in srcs:
            by_den_source: dict[Word, list[Fraction]] = {}
            for num, t in paths_from(p, x, min(bound, 3)):
                for den in dens_by_target.get(t, []):
                    by_den_source.setdefault(den.source, []).append(Fraction(num, den))
            for y in sorted(by_den_source):
                yield from combinations(by_den_source[y], 2)

    checked = agreed = 0
    for phi1, phi2 in islice(parallel_pairs(), n_samples):
        slow = fraction_equal(phi1, phi2, p, table, coherent=False)
        fast = fraction_equal(phi1, phi2, p, table, coherent=True)
        checked += 1
        if slow == fast:
            agreed += 1
    return {"checked": checked, "agreed": agreed}


# ---------------------------------------------------------------------------
# left calculus of fractions


def check_left_fractions(
    p: Presentation,
    table: ResidualTable,
    bound: int = 3,
    coherent: bool = False,
) -> dict:
    """Verify the four closure conditions on bounded samples."""
    out = {
        "condition1": "pass (equational morphisms compose)",
        "condition2": "pass (identities are equational)",
    }
    res = Residuator(p, table)
    words = words_upto(p, 1 if p.mode == "path" else 3)[1:]
    c3_fail = None
    for w in words:
        gs = [g for g, _ in islice(paths_from(p, w, bound), 1, None)]
        for u, _ in islice(paths_from(p, w, bound, equational=True), 1, None):
            for g in gs:
                try:
                    gu, ug = res.pair(g, u)
                    if p.path_target(compose(p, u, gu)) != p.path_target(compose(p, g, ug)):
                        c3_fail = f"residuals of ({p.fmt_path(u)}, {p.fmt_path(g)}) not cofinal"
                except ResiduationError:
                    found = _bounded_completion(p, u, g, bound)
                    if not found:
                        c3_fail = (
                            f"no completion found for ({p.fmt_path(u)}, {p.fmt_path(g)})"
                        )
                if c3_fail:
                    break
            if c3_fail:
                break
        if c3_fail:
            break
    out["condition3"] = "pass (residuation closes sampled squares)" if not c3_fail else f"fail: {c3_fail}"
    if coherent:
        out["condition4"] = "pass (equational morphisms are epi under A1-A4)"
    else:
        out["condition4"] = _check_condition4(p, words, bound)
    out["overall"] = (
        "pass"
        if all(str(v).startswith("pass") for k, v in out.items() if k.startswith("condition"))
        else "fail"
    )
    return out


def _bounded_completion(p: Presentation, u: Path, g: Path, bound: int) -> bool:
    """Search cofinal (v equational, h) with v.g <=>* h.u."""
    hs = _by_target(paths_from(p, p.path_target(u), bound))
    for v, t in paths_from(p, p.path_target(g), bound, equational=True):
        for h in hs.get(t, []):
            if search_trace(p, compose(p, g, v), compose(p, u, h), budget=CELL_BUDGET) is not None:
                return True
    return False


def _check_condition4(p: Presentation, words: list[Word], bound: int) -> str:
    for w in words[: min(len(words), 6)]:
        for u, tu in islice(paths_from(p, w, min(bound, 2), equational=True), 1, None):
            by_tgt = _by_target(islice(paths_from(p, tu, min(bound, 2)), 1, None))
            for t, group in by_tgt.items():
                for f1, f2 in combinations(group, 2):
                    uf1, uf2 = compose(p, u, f1), compose(p, u, f2)
                    if search_trace(p, uf1, uf2, budget=CELL_BUDGET) is None:
                        continue
                    vs = paths_from(p, t, min(bound, 2), equational=True)
                    if not any(
                        search_trace(p, compose(p, f1, v), compose(p, f2, v), budget=CELL_BUDGET)
                        is not None
                        for v, _ in vs
                    ):
                        return (
                            "fail: no equalizing v for "
                            f"({p.fmt_path(f1)}, {p.fmt_path(f2)}) after {p.fmt_path(u)}"
                        )
    return "pass (sampled co-equalizing morphisms found)"
