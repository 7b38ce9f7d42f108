from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cohpres import cli, coherence, constructions, critical
from cohpres.cli import main
from cohpres.core import parse_path, parse_presentation
from cohpres.oracle import OracleFailure, oracle_residual_pair
from cohpres.residuation import derive_residual_table

from conftest import CONTEXT_BOUND, ds_presentation

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
DATA = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_check_ds2_pass(capsys):
    code, out = run(capsys, "check", CORPUS / "ds2.cp")
    assert code == 0
    assert "coherent: PASS" in out


def test_check_huet_fails_with_witness(capsys):
    code, out = run(capsys, "check", CORPUS / "huet.cp")
    assert code == 1
    assert "coherent: FAIL" in out
    assert any(l.startswith("WITNESS:") and "x -> y -> x" in l for l in out.splitlines())


def test_check_ds2op_strict_vs_exchange(capsys):
    code, out = run(capsys, "check", CORPUS / "ds2op.cp", "--no-opposite")
    assert code == 1 and "a3 (strict): FAIL" in out
    assert "exch(m,0,n)" in out
    code, out = run(
        capsys, "check", CORPUS / "ds2op.cp", "--assumption", "a3x", "--strong", "--no-opposite"
    )
    assert code == 0
    assert "coherent: PASS" in out


def test_check_single_assumption(capsys):
    code, out = run(capsys, "check", CORPUS / "huet.cp", "--assumption", "a1", "--no-opposite")
    assert code == 1
    assert out.startswith("a1: FAIL")


@pytest.mark.parametrize("no_opposite", [False, True], ids=["probe", "no-probe"])
@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
@pytest.mark.parametrize("name", ["ds2", "ds2op", "huet", "deltas"])
def test_single_assumption_matches_check_all(capsys, name, strong, no_opposite):
    # a single-assumption report computes only its verdict and that
    # verdict's gates, but prints what the whole battery would select
    p = cli._load(str(CORPUS / f"{name}.cp"))
    rep = coherence.check_all(coherence.CheckContext(p), "strict", strong, not no_opposite)
    flags = ["--strong"] * strong + ["--no-opposite"] * no_opposite
    for a in ("a1", "a2", "a3", "a4"):
        code, out = run(capsys, "check", CORPUS / f"{name}.cp", "--assumption", a, *flags)
        cli._print_verdict(a if a != "a3" else "a3 (strict)", rep.assumptions[a], True)
        assert out == capsys.readouterr().out, a
        assert code == (0 if rep.assumptions[a].status == "pass" else 1), a


@pytest.mark.parametrize(
    "assumption, skipped",
    [
        ("a1", {"cylinders", "check_cylinder", "samples", "opposite"}),
        ("a2", {"cylinders", "check_cylinder", "samples", "opposite"}),
        ("a3", {"samples", "opposite"}),
        ("a4", {"opposite"}),
    ],
)
def test_single_assumption_computes_only_its_gates(capsys, monkeypatch, assumption, skipped):
    called = set()

    def counting(label, fn):
        def wrapper(*args, **kwargs):
            called.add(label)
            return fn(*args, **kwargs)

        return wrapper

    for label, module, attr in (
        ("cylinders", coherence, "enumerate_critical_cylinders"),
        ("check_cylinder", coherence, "check_cylinder"),
        ("samples", coherence, "trivial_equational_base_samples"),
        ("opposite", constructions, "opposite"),
    ):
        monkeypatch.setattr(module, attr, counting(label, getattr(module, attr)))
    code, out = run(capsys, "check", CORPUS / "ds2.cp", "--assumption", assumption)
    assert code == 0 and ": PASS" in out
    assert not called & skipped
    # the full battery, with the probe, calls every one of them
    run(capsys, "check", CORPUS / "ds2.cp")
    assert called == {"cylinders", "check_cylinder", "samples", "opposite"}


def test_check_report_file(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _ = run(capsys, "check", CORPUS / "ds2.cp", "--no-opposite", "--report", report)
    assert code == 0
    data = json.loads(report.read_text())
    assert data["coherent"] == "pass"
    assert data["mode"] == "monoidal"
    assert set(data["assumptions"]) == {"a1", "a2", "a3", "a4"}
    assert "timings" not in data


def test_stdout_deterministic(capsys):
    _, out1 = run(capsys, "check", CORPUS / "ds2.cp", "--no-opposite")
    _, out2 = run(capsys, "check", CORPUS / "ds2.cp", "--no-opposite")
    assert out1 == out2


def test_nf_command(capsys):
    code, out = run(capsys, "nf", CORPUS / "ds2.cp", "babbaa")
    assert code == 0
    assert "normal form: aaabbb" in out
    assert "path: [g]bbaa" in out


def test_residual_command(capsys):
    code, out = run(
        capsys,
        "residual",
        CORPUS / "ds2.cp",
        "--of",
        "[n]aa ; b[m]",
        "--after",
        "b[g]a",
        "--witness",
    )
    assert code == 0
    assert "of/after : [g]ba ; a[n]a ; a[g] ; [m]b" in out
    assert "after/of : [g]" in out
    assert "witness" in out


def test_residual_witness_outside_declared_context(capsys, tmp_path):
    # r holds only in its declared context, so it is no tile: neither [h]
    # after [e] on bb nor a[h] after a[e] on abb has a residual, the oracle
    # agrees, and A1 reports the bare overlap of the heads unresolved
    src = tmp_path / "decl.cp"
    src.write_text(CONTEXT_BOUND)
    p = parse_presentation(CONTEXT_BOUND)
    table = derive_residual_table(p)
    assert table.entries == {}
    assert table.diagnostics == [
        "relation 'r': its head steps share context",
        "relation 'r': has an equational head but is not a residuation tile",
    ]
    for of, after, word in (("[h]", "[e]", "bb"), ("a[h]", "a[e]", "abb")):
        for witness in ((), ("--witness",)):
            assert main(["residual", str(src), "--of", of, "--after", after, *witness]) == 2
            err = capsys.readouterr().err
            assert err == f"error: no residuation tile for the overlapping pair ({after}, {of}) on {word}\n"
        with pytest.raises(OracleFailure) as exc:
            oracle_residual_pair(parse_path(of, p), parse_path(after, p), p)
        assert str(exc.value) == f"no tile found for ({after}, {of}) on {word}"
    code, out = run(capsys, "check", src, "--assumption", "a1")
    assert code == 1
    assert "WITNESS: unresolved critical pair ([e], [h]) on bb\n" in out


def test_check_a3_search_exhaustion_is_inconclusive(capsys):
    # no room for a top trace: each cylinder is an open question, and A3 is
    # inconclusive, never a failure (its exit code is still 1)
    code, out = run(capsys, "check", CORPUS / "ds2.cp", "--assumption", "a3", "--depth", "0")
    assert code == 1
    assert out == (
        "a3 (strict): INCONCLUSIVE  (top-trace search exhausted)\n"
        "WITNESS: cylinder ([g]aa | b(alpha)): no top trace found (top search exhausted (inconclusive))\n"
        "WITNESS: cylinder (bb[g] | (beta)a): no top trace found (top search exhausted (inconclusive))\n"
        "WITNESS: cylinder (b[g]a | (exch(n,0,m))): no top trace found "
        "(top search exhausted (inconclusive))\n"
    )


def test_critical_command(capsys):
    code, out = run(capsys, "critical", CORPUS / "ds2.cp")
    assert code == 0
    assert "critical pairs: 2" in out
    assert "critical cylinders: 3" in out
    assert out == (
        "critical pairs: 2\n"
        "  baa: [g]a vs b[m] [resolved]\n"
        "  bba: b[g] vs [n]a [resolved]\n"
        "critical cylinders: 3\n"
        "  [g]aa | b(alpha) [equational_vertical] verticals=equal top=3\n"
        "  bb[g] | (beta)a [equational_vertical] verticals=equal top=3\n"
        "  b[g]a | (exch(n,0,m)) [equational_vertical] verticals=equal top=4\n"
    )
    code, out = run(capsys, "critical", CORPUS / "ds2op.cp", "--cylinders")
    assert "critical cylinders: 1" in out


def test_enumerate_command(capsys):
    code, out = run(capsys, "enumerate", CORPUS / "ds2.cp", "aaa", "aa", "--max-steps", "3")
    assert code == 0
    assert "2 classes" in out


def test_compare_command(capsys):
    code, out = run(
        capsys, "compare", CORPUS / "huet.cp", "--max-word", "1", "--max-steps", "8"
    )
    assert code == 1
    assert "quotient != localization" in out


def test_fractions_commands(capsys):
    code, out = run(
        capsys,
        "fractions",
        CORPUS / "ds2.cp",
        "--equal",
        "[g]",
        "[g]",
        "id ba",
        "id ba",
    )
    assert code == 0 and "fractions: equal" in out
    code, out = run(
        capsys,
        "fractions",
        CORPUS / "huet.cp",
        "--equal",
        "[g] ; [g']",
        "id x",
        "id x",
        "id x",
    )
    assert code == 1 and "fractions: unequal" in out


def test_fractions_compose_command(capsys, ds2, ds2_table):
    # aba -> baa, then baa -> ba: the gamma tile closes den1 = [g]a against
    # num2 = b[m]
    texts = ("id aba", "[g]a", "b[m]", "id ba")
    code, out = run(capsys, "fractions", CORPUS / "ds2.cp", "--compose", *texts)
    paths = [parse_path(t, ds2) for t in texts]
    want = constructions.fraction_compose(
        constructions.Fraction(*paths[:2]), constructions.Fraction(*paths[2:]), ds2, ds2_table
    )
    assert code == 0
    assert out == f"num: {ds2.fmt_path(want.num)}\nden: {ds2.fmt_path(want.den)}\n"
    assert out == "num: a[g] ; [m]b\nden: [g]\n"


def test_tietze_command(capsys, tmp_path):
    script = tmp_path / "script.tz"
    script.write_text("addgen h : aaa -> a := [m]a ; [m]\n")
    out_file = tmp_path / "out.cp"
    code, out = run(
        capsys, "tietze", CORPUS / "deltas.cp", "--script", script, "-o", out_file
    )
    assert code == 0
    text = out_file.read_text()
    assert "gen h : aaa -> a" in text
    script.write_text("rmrel alpha\n")
    code, out = run(
        capsys, "tietze", CORPUS / "deltas.cp", "--script", script, "-o", out_file
    )
    assert code == 1 and "refused" in out


def test_usage_errors_exit_2(capsys, tmp_path):
    assert main(["check", "/nonexistent/file.cp"]) == 2
    code = main(["bogus-subcommand"])  # argparse error
    assert code == 2
    latin1 = tmp_path / "latin1.cp"
    latin1.write_bytes(b"# caf\xe9\nmode path\nobjects x\n")
    bad_consts = []
    for i, term in enumerate(("const()", "const(x)", "const(1,2)")):
        bad = tmp_path / f"const{i}.cp"
        bad.write_text(
            "mode monoidal\nobjects a\ngen g : a -> a\n"
            f"weight omega1 on steps order lex dim 1 {{ g -> ({term}) }}\n",
            encoding="utf-8",
        )
        bad_consts.append(["check", str(bad)])
    for argv in (
        ["check", str(CORPUS)],  # a directory
        ["check", str(latin1)],  # not UTF-8
        *bad_consts,  # malformed weight terms
        ["check", str(CORPUS / "ds2.cp"), "--term-budget", "0"],
        # negative search bounds
        ["check", str(CORPUS / "ds2.cp"), "--max-word-len", "-1"],
        ["check", str(CORPUS / "ds2.cp"), "--depth", "-1"],
        ["check", str(CORPUS / "ds2.cp"), "--budget", "-1"],
        ["enumerate", str(CORPUS / "ds2.cp"), "aaa", "aa", "--max-steps", "-1"],
        # path mode: a source or target that is not exactly one object
        ["enumerate", str(CORPUS / "huet.cp"), "x y", "x", "--max-steps", "2"],
        ["enumerate", str(CORPUS / "huet.cp"), "0", "0", "--max-steps", "2"],
        ["compare", str(CORPUS / "ds2.cp"), "--max-word", "-1", "--max-steps", "2"],
        ["compare", str(CORPUS / "ds2.cp"), "--max-word", "1", "--max-steps", "-1"],
        ["fractions", str(CORPUS / "ds2.cp"), "--equal", "[g]", "[g]", "id ba", "id ba", "--budget", "-1"],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([l for l in err.splitlines() if "error:" in l]) == 1


def test_relation_sides_with_different_targets_exit_2(capsys, tmp_path):
    path = tmp_path / "targets.cp"
    path.write_text(
        "mode monoidal\nobjects a b\ngen f : a -> b\ngen g : a -> a\nrel r : [f] => [g]\n",
        encoding="utf-8",
    )
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", "error: relation 'r': sides have different targets\n")


CONFLICTING_TILES = """
mode monoidal
objects a
eqgen e : aa -> a
gen h : aa -> a
rel r1 : [e]a ; [e] => a[h] ; [e]
rel r2 : [e]a ; [h] => a[h] ; [e]
"""


def test_a1_reports_conflicting_tiles(capsys, tmp_path):
    # r1 and r2 both start with [e]a and a[h]: the table keeps r1's tile
    path = tmp_path / "conflict.cp"
    path.write_text(CONFLICTING_TILES, encoding="utf-8")
    code, out = run(capsys, "check", path, "--assumption", "a1")
    assert code == 1
    assert out.splitlines() == [
        "a1: FAIL",
        "WITNESS: unresolved critical pair (a[e], [e]a) on aaa",
        "WITNESS: unresolved critical pair ([e], [h]) on aa",
        "WITNESS: unresolved critical pair (a[e], [h]a) on aaa",
        "WITNESS: conflicting tiles for pair ([e]a, a[h]): 'r1' vs 'r2' (keeping the first)",
    ]


def test_compare_ds2_cli(capsys):
    code, out = run(
        capsys,
        "compare",
        CORPUS / "ds2.cp",
        "--max-word",
        "3",
        "--max-steps",
        "4",
        "--oracle",
        "ds2",
    )
    assert code == 0
    assert "comparison (monoidal mode): equal" in out
    assert "fraction agreement:" in out


def test_zero_bounds_are_accepted(capsys):
    code, out = run(capsys, "enumerate", CORPUS / "ds2.cp", "aaa", "aa", "--max-steps", "0")
    assert code == 0 and "0 classes" in out
    code, out = run(capsys, "enumerate", CORPUS / "ds2.cp", "ab", "ab", "--max-steps", "0")
    assert code == 0 and "1 classes" in out


def test_non_utf8_error_names_the_file(capsys, tmp_path):
    bad = tmp_path / "bom16.cp"
    bad.write_bytes(b"\xff\xfe")
    for argv in (
        ["check", str(bad)],
        ["tietze", str(CORPUS / "ds2.cp"), "--script", str(bad), "-o", str(tmp_path / "out.cp")],
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err and "UTF-8" in err


def test_deep_residual_closes_square(capsys):
    from cohpres.core import parse_path, parse_presentation
    from cohpres.objects import normalize

    ds2 = parse_presentation((CORPUS / "ds2.cp").read_text(encoding="utf-8"))
    nf_path = normalize(("b",) * 40 + ("a",) * 40, ds2).path
    assert len(nf_path.steps) == 1600
    g = "[n]" + "b" * 38 + "a" * 40
    code, out = run(capsys, "residual", CORPUS / "ds2.cp", "--of", g, "--after", ds2.fmt_path(nf_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("of/after : ") and lines[1].startswith("after/of : ")
    g_after_f = parse_path(lines[0].split(" : ", 1)[1], ds2)
    f_after_g = parse_path(lines[1].split(" : ", 1)[1], ds2)
    # f;(g/f) and g;(f/g) end at the same word
    assert g_after_f.source == ds2.path_target(nf_path)
    assert f_after_g.source == ds2.path_target(parse_path(g, ds2))
    assert ds2.path_target(g_after_f) == ds2.path_target(f_after_g)


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_too_deep_or_too_large_exits_2(capsys, monkeypatch, exc):
    def explode(args):
        raise exc()

    monkeypatch.setattr(cli, "cmd_nf", explode)
    assert main(["nf", str(CORPUS / "ds2.cp"), "ba"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: input too deep or too large ({exc.__name__})\n"


def test_ds2op_a3x_witness_order(capsys):
    # pins the step order of the sampled base checks: a position-major order
    # passes every verdict test but prints these verticals in another order
    _, out = run(capsys, "check", CORPUS / "ds2op.cp", "--assumption", "a3x")
    witnesses = [l for l in out.splitlines() if l.startswith("WITNESS:")][:4]
    head = "WITNESS: omega2((exch(g,0,g))) = (0, 0) !> (0, 0) = omega2(residual) [vertical "
    assert witnesses == [head + v + "]" for v in ("[m]bab", "ab[m]b", "a[n]ab", "aba[n]")]


def test_ds2op_a3x_witnesses_weigh_the_context(capsys):
    # a sample's weights are those of its core whiskered by its context:
    # weighing the bare core top prints other witnesses, and fewer of them
    _, out = run(capsys, "check", CORPUS / "ds2op.cp", "--assumption", "a3x", "--no-opposite")
    witnesses = [l for l in out.splitlines() if l.startswith("WITNESS:")]
    assert len(witnesses) == 2891
    head = "WITNESS: omega2((exch(g,0,g))"
    assert witnesses[9:11] == [
        head + v for v in (
            "b) = (0, 0) !> (0, 1) = omega2(residual) [vertical [m]babb]",
            "b) = (0, 0) !> (0, 1) = omega2(residual) [vertical ab[m]bb]",
        )
    ]


# A1 passes, and 49 sampled base cores have side residuals that end on
# different words.  Its opposite grows without bound (eqgen g0 : 0 -> b), so
# it is checked with the opposite probe off.
NONCOFINAL = """
mode monoidal
objects a b
eqgen g0 : b -> 0
gen g1 : aa -> a
rel r0 : [g0]bb => bb[g0]
rel r1 : b[g0]b ; [g0]b => bb[g0] ; b[g0]
"""


def test_noncofinal_base_core_has_no_top(capsys, tmp_path):
    path = tmp_path / "noncofinal.cp"
    path.write_text(NONCOFINAL, encoding="utf-8")
    code = main(["check", str(path), "--assumption", "a3x", "--no-opposite"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "a1: PASS  (0 critical pairs resolved; terminating)",
        "a2: INCONCLUSIVE  (no omega1 weight block supplied)",
        "a3 (up to exchange): PASS  (0 critical cylinders close (up_to_exchange))",
        "a4: INCONCLUSIVE  (missing omega2 weight block)",
        "coherent: INCONCLUSIVE",
    ]
    p = parse_presentation(NONCOFINAL)
    ctx = coherence.CheckContext(p)
    records = {(p.fmt_step(r[0]), p.fmt_instance(r[1])): r for r in ctx.base_records}
    f, inst, x, y, top, _ = records["[g0]bb", "(r1)"]
    assert (x, y, top) == ((), (), None)
    v = critical.check_cylinder(f, inst, ctx.residuator, 8, 20_000)
    assert v.notes == "side residuals are not cofinal"


def test_ds3_a1_passes(capsys):
    # yb012 registers one tile in both roles; A1 used to fail on
    # "conflicting tiles for pair (c[g01], [g12]a): 'yb012' vs 'yb012'"
    path = DATA / "ds3.cp"
    text = path.read_text(encoding="utf-8")
    assert text.split("\n", 1)[1] == ds_presentation(3)
    code, out = run(capsys, "check", path, "--assumption", "a1", "--no-opposite")
    assert (code, out) == (0, "a1: PASS  (7 critical pairs resolved; terminating)\n")


@pytest.mark.parametrize("n, count", [(2, 2), (3, 7), (4, 16), (5, 30)])
def test_ds_critical_pairs_resolve(n, count):
    p = parse_presentation(ds_presentation(n))
    table = derive_residual_table(p)
    pairs = critical.enumerate_critical_pairs(p, table)
    assert len(pairs) == count and all(c.resolved for c in pairs)
    assert table.conflicts == []


def test_a4_without_weights_is_inconclusive_on_sampled_bases(capsys, tmp_path):
    path = tmp_path / "noncofinal.cp"
    path.write_text(NONCOFINAL, encoding="utf-8")
    code, out = run(capsys, "check", path, "--no-opposite")
    assert code == 1
    assert "a4: INCONCLUSIVE  (missing omega2 weight block)" in out.splitlines()
    ctx = coherence.CheckContext(parse_presentation(NONCOFINAL))
    v = coherence.check_assumption(ctx, "a4")
    assert (v.status, v.note) == ("inconclusive", "missing omega2 weight block")
    assert len(ctx.base_samples) == 1148
    # decided from the samples alone, without residuating a base core
    assert "base_records" not in vars(ctx)


def test_closed_pipe_exits_2():
    src = str(CORPUS.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # about 290 KB of stdout, far more than a pipe buffers
    proc = subprocess.Popen(
        [sys.executable, "-m", "cohpres.cli", "check", str(CORPUS / "ds2op.cp"), "--assumption", "a3x"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().startswith(b"a1: ")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err.count("error:") <= 1


GROW = Path(__file__).resolve().parent / "data" / "grow.cp"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(CORPUS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _limit_child():
    # in the child only: a regression fails its test instead of exhausting
    # the host's memory, or running on for ever where nothing else times it
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    resource.setrlimit(resource.RLIMIT_CPU, (300, 300))


def test_check_on_growing_rule_runs_in_bounded_memory():
    # termination walks a, aa, aaa, ... to the budget; each word of length L
    # has L children
    proc = subprocess.run(
        [sys.executable, "-m", "cohpres.cli", "check", str(GROW), "--term-budget", "1600", "--no-opposite"],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=_limit_child,
        timeout=300,  # a safety net; the limit on memory is the assertion
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[0] == "a1: FAIL"


def test_nf_on_growing_rule_runs_in_bounded_memory(tmp_path):
    # normalization rewrites a, aa, aaa, ... until its 10,000 steps run out;
    # steps that kept their context words would hold 5 * 10^7 letters in all
    with open(tmp_path / "out", "w+") as out, open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "cohpres.cli", "nf", str(GROW), "a"],
            stdout=out,
            stderr=err,
            env=_child_env(),
            preexec_fn=_limit_child,
        )
        # the child's own rusage, not that of every child this process reaped
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        assert (proc.returncode, out.read()) == (2, "")
        assert err.read() == "error: normalization of a did not finish within 10000 steps\n"
    assert usage.ru_maxrss <= 60 * 1024  # KiB
