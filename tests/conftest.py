from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from cohpres.core import parse_presentation
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
