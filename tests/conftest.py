from __future__ import annotations

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import settings

from cohpres.core import instance_sides, parse_presentation
from cohpres.residuation import derive_residual_table

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# every property runs the same examples on every run and keeps no example
# database; a test sets only its own example count
settings.register_profile("cohpres", derandomize=True, database=None, deadline=None)
settings.load_profile("cohpres")


def load(name: str):
    return parse_presentation((CORPUS / f"{name}.cp").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def ds2():
    return load("ds2")


@pytest.fixture(scope="session")
def ds2op():
    return load("ds2op")


@pytest.fixture(scope="session")
def huet():
    return load("huet")


@pytest.fixture(scope="session")
def deltas():
    return load("deltas")


@pytest.fixture(scope="session")
def ds2_table(ds2):
    return derive_residual_table(ds2)


@pytest.fixture(scope="session")
def ds2op_table(ds2op):
    return derive_residual_table(ds2op)


@pytest.fixture(scope="session")
def huet_table(huet):
    return derive_residual_table(huet)


def ds_presentation(n: int) -> str:
    """The text of ds_n: n commuting copies of the surjection PRO on the
    letters a, b, ..., glued by the sort rules ``gij : xj xi -> xi xj`` (i <
    j), with ds2's relations for each letter and pair and the braid relation
    ``ybijk`` of each three letters (the critical branching of three sort
    rules).  ds_2 is corpus ds2 without its weights, renamed."""
    xs = "abcdefghij"[:n]
    lines = ["mode monoidal", "objects " + " ".join(xs)]
    lines += [f"gen m{i} : {x} {x} -> {x}" for i, x in enumerate(xs)]
    lines += [f"eqgen g{i}{j} : {xs[j]} {xs[i]} -> {xs[i]} {xs[j]}" for i, j in combinations(range(n), 2)]
    lines += [f"rel alpha{i} : [m{i}]{x} ; [m{i}] => {x}[m{i}] ; [m{i}]" for i, x in enumerate(xs)]
    for i, j in combinations(range(n), 2):
        a, b, g = xs[i], xs[j], f"g{i}{j}"
        lines.append(f"rel gamma{i}{j} : {b}[m{i}] ; [{g}] => [{g}]{a} ; {a}[{g}] ; [m{i}]{b}")
        lines.append(f"rel delta{i}{j} : [m{j}]{a} ; [{g}] => {b}[{g}] ; [{g}]{b} ; {a}[m{j}]")
    for i, j, k in combinations(range(n), 3):
        a, b, c = xs[i], xs[j], xs[k]
        lines.append(
            f"rel yb{i}{j}{k} : [g{j}{k}]{a} ; {b}[g{i}{k}] ; [g{i}{j}]{c}"
            f" => {c}[g{i}{j}] ; [g{i}{k}]{b} ; {a}[g{j}{k}]"
        )
    return "\n".join(lines) + "\n"


# ``r`` is declared in left context a, which its head steps a[e] and a[h]
# share: it holds only in that context, so it is no residuation tile
CONTEXT_BOUND = (
    "mode monoidal\nobjects a b c\neqgen e : b b -> b\ngen h : b b -> c\n"
    "gen m : b -> c\nrel r : a[e] ; a[m] => a[h]\n"
)


def tile_paths(p, entry):
    """A tile's ``second_after_first`` and ``first_after_second`` as paths on
    its relation's source word."""
    w = p.relation_map[entry.relation].lhs.source
    return tuple(
        p.path_at(p.step_target(p.step_at(w, head)), tail)
        for head, tail in ((entry.first, entry.second_after_first), (entry.second, entry.first_after_second))
    )


def side_paths(p, inst):
    """The (from, to) sides of an instance as paths."""
    w, lhs, rhs = instance_sides(p, inst)
    return p.path_at(w, lhs), p.path_at(w, rhs)


def all_words(p, max_len: int):
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (o,) for w in frontier for o in p.objects]
        words.extend(frontier)
    return words


def paths_from(p, src, bound: int):
    from cohpres.core import Path as CPath, RewriteStep

    out = [CPath(src, ())]
    frontier = [CPath(src, ())]
    for _ in range(bound):
        nxt = []
        for q in frontier:
            w = p.path_target(q)
            for g in p.generators:
                k = len(g.source)
                for pos in range(len(w) - k + 1):
                    if w[pos : pos + k] == g.source:
                        nq = CPath(src, q.steps + (RewriteStep(w[:pos], g.name, w[pos + k :]),))
                        nxt.append(nq)
                        out.append(nq)
        frontier = nxt
    return out


def random_presentation(rng, mode):
    """A random valid presentation: 2 to 4 generators, about 40% equational,
    and up to 3 relations between coinitial, cofinal paths of at most 3 steps."""
    from cohpres.core import MorGen, Path as CPath, Presentation, Relation, RewriteStep

    objects = ("a", "b") if mode == "monoidal" else ("x", "y", "z")
    gens = []
    for name in ["f", "g", "h", "k"][: rng.randint(2, 4)]:
        if mode == "path":
            src = (rng.choice(objects),)
            tgt = (rng.choice(objects),)
        else:
            src = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
            tgt = tuple(rng.choice(objects) for _ in range(rng.randint(0, 2)))
        gens.append(MorGen(name, src, tgt, equational=rng.random() < 0.4))
    p0 = Presentation(mode, objects, tuple(gens), ())
    rels = []
    for ridx in range(rng.randint(0, 3)):
        if mode == "path":
            src = (rng.choice(objects),)
        else:
            src = tuple(rng.choice(objects) for _ in range(rng.randint(1, 3)))
        paths = [CPath(src, ())]
        frontier = [CPath(src, ())]
        for _ in range(3):
            nxt = []
            for q in frontier:
                w = p0.path_target(q)
                for g in gens:
                    k = len(g.source)
                    for pos in range(len(w) - k + 1):
                        if w[pos : pos + k] == g.source:
                            nq = CPath(
                                src, q.steps + (RewriteStep(w[:pos], g.name, w[pos + k :]),)
                            )
                            nxt.append(nq)
                            paths.append(nq)
                if len(paths) > 300:
                    break
            frontier = nxt[:50]
        by_tgt = {}
        for q in paths:
            by_tgt.setdefault(p0.path_target(q), []).append(q)
        cands = [grp for grp in by_tgt.values() if len(grp) >= 2]
        if not cands:
            continue
        grp = rng.choice(cands)
        lhs, rhs = rng.sample(grp, 2)
        rels.append(Relation(f"r{ridx}", lhs, rhs))
    return Presentation(mode, objects, tuple(gens), tuple(rels))
