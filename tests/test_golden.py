"""Golden CLI outputs: stdout and exit code of small runs on the corpus.

Each file in ``tests/golden/`` holds ``exit <code>`` on its first line and
the run's stdout after it.  The bounds are small so the whole set runs in
about a second.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from cohpres.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "enumerate-ds2-aaa-aa-3": ["enumerate", "ds2", "aaa", "aa", "--max-steps", "3"],
    "enumerate-ds2-bbaa-ab-4": ["enumerate", "ds2", "bbaa", "ab", "--max-steps", "4"],
    "enumerate-ds2op-ab-aabb-3": ["enumerate", "ds2op", "ab", "aabb", "--max-steps", "3"],
    "enumerate-ds2-bab-abb-4": ["enumerate", "ds2", "bab", "abb", "--max-steps", "4"],
    "enumerate-ds2op-aab-aab-3": ["enumerate", "ds2op", "aab", "aab", "--max-steps", "3"],
    "enumerate-huet-x-y-4": ["enumerate", "huet", "x", "y", "--max-steps", "4"],
    "enumerate-deltas-aaaa-a-3": ["enumerate", "deltas", "aaaa", "a", "--max-steps", "3"],
    **{f"critical-{n}": ["critical", n] for n in ("ds2", "ds2op", "huet", "deltas")},
    **{f"check-{n}": ["check", n] for n in ("ds2", "ds2op", "huet", "deltas")},
    "check-ds2op-a3x-strong": ["check", "ds2op", "--assumption", "a3x", "--strong"],
    "compare-ds2": ["compare", "ds2", "--max-word", "4", "--max-steps", "5", "--oracle", "ds2"],
    "compare-ds2op": ["compare", "ds2op", "--max-word", "2", "--max-steps", "3"],
    "compare-huet": ["compare", "huet", "--max-word", "1", "--max-steps", "6"],
    "compare-deltas": ["compare", "deltas", "--max-word", "2", "--max-steps", "3"],
}


def run_case(argv: list[str], capsys) -> str:
    """``exit <code>`` and stdout of one case, the second word naming a corpus file."""
    code = main([argv[0], str(CORPUS / f"{argv[1]}.cp"), *argv[2:]])
    return f"exit {code}\n" + capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert run_case(CASES[name], capsys) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
