"""Command-line front end.

Exit codes: 0 on pass/success, 1 on a failed check or unequal comparison,
2 on usage or parse errors and on runs that could not finish (unreadable
input, input too deep or too large, output pipe closed).  Every failing check
prints machine-parseable ``WITNESS:`` lines.  Output is deterministic for
identical invocations.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path as FsPath

from . import coherence, constructions, objects, oracle, residuation
from .core import (
    CohpresError,
    Presentation,
    parse_path,
    parse_presentation,
    parse_word,
    print_presentation,
)


def _read(path: str) -> str:
    try:
        return FsPath(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CohpresError(f"{path!r} is not UTF-8: {exc}") from None


def _load(path: str) -> Presentation:
    return parse_presentation(_read(path))


def _print_verdict(name: str, v: coherence.Verdict, ensure_witness: bool = False) -> None:
    print(f"{name}: {v.status.upper()}" + (f"  ({v.note})" if v.note else ""))
    for w in v.witnesses:
        print(f"WITNESS: {w}")
    if not v.witnesses and (v.status == "fail" or (ensure_witness and v.status != "pass")):
        print(f"WITNESS: {name} {v.status}" + (f": {v.note}" if v.note else ""))


def cmd_check(args) -> int:
    p = _load(args.file)
    ctx = coherence.CheckContext(p, args.term_budget, args.max_word_len, args.depth, args.budget)
    selected = args.assumption
    a3_mode = "up_to_exchange" if selected == "a3x" else "strict"
    if selected in coherence.GATES and not args.report:
        # one verdict and no report: compute only that verdict and its gates,
        # and skip the opposite probe, whose result would not be printed
        rep, v = None, coherence.check_assumption(ctx, selected, strong=args.strong)
    else:
        rep = coherence.check_all(ctx, a3_mode, args.strong, not args.no_opposite)
        v = rep.assumptions[selected] if selected in coherence.GATES else None
    if v is not None:
        _print_verdict(selected if selected != "a3" else "a3 (strict)", v, ensure_witness=True)
        code = 0 if v.status == "pass" else 1
    else:
        # "all" and "a3x" run the full suite (a3x with the up-to-exchange A3)
        for key in ("a1", "a2", "a3", "a4"):
            name = key if key != "a3" else ("a3 (strict)" if a3_mode == "strict" else "a3 (up to exchange)")
            _print_verdict(name, rep.assumptions[key])
        print(f"coherent: {rep.coherent.upper()}")
        note = f"  ({rep.faithful_note})" if rep.faithful_note else ""
        if not args.no_opposite:
            print(f"faithful-embedding: {rep.faithful_embedding.upper()}{note}")
        code = 0 if rep.coherent == "pass" else 1
    if args.report:
        payload = coherence.report_to_dict(rep, p, include_timings=args.timings)
        FsPath(args.report).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return code


def cmd_nf(args) -> int:
    p = _load(args.file)
    w = parse_word(args.word, p.objects)
    r = objects.normalize(w, p)
    print(f"normal form: {p.fmt_word(r.normal)}")
    print(f"path: {p.fmt_path(r.path)}")
    return 0


def cmd_residual(args) -> int:
    p = _load(args.file)
    table = residuation.derive_residual_table(p)
    g = parse_path(args.of, p)
    f = parse_path(args.after, p)
    res = residuation.Residuator(p, table)
    if args.witness:
        gf, fg, trace = res.pair_with_witness(g, f)
    else:
        gf, fg = res.pair(g, f)
        trace = None
    print(f"of/after : {p.fmt_path(gf)}")
    print(f"after/of : {p.fmt_path(fg)}")
    if trace is not None:
        print(f"witness ({len(trace)} cells):")
        for cell in trace.cells:
            print(f"  {p.fmt_instance(cell.inst)} after {p.fmt_path(cell.prefix)}")
    return 0


def cmd_critical(args) -> int:
    p = _load(args.file)
    ctx = coherence.CheckContext(p)
    if not args.cylinders:
        print(f"critical pairs: {len(ctx.pairs)}")
        for cp in ctx.pairs:
            status = "resolved" if cp.resolved else "UNRESOLVED"
            print(
                f"  {p.fmt_word(cp.word)}: {p.fmt_step(cp.f)} vs {p.fmt_step(cp.g)} [{status}]"
            )
    if not args.pairs:
        print(f"critical cylinders: {len(ctx.cylinders)}")
        for cyl, v in ctx.cylinder_verdicts:
            tops = "-" if v.top is None else str(len(v.top))
            print(
                f"  {p.fmt_step(cyl.f)} | {p.fmt_instance(cyl.base)} "
                f"[{cyl.flavor}] verticals={v.residual_targets_equal} top={tops}"
            )
    return 0


def cmd_enumerate(args) -> int:
    p = _load(args.file)
    src = parse_word(args.src, p.objects)
    tgt = parse_word(args.tgt, p.objects)
    if p.mode == "path" and (len(src) != 1 or len(tgt) != 1):
        raise CohpresError("in path mode SRC and TGT must each be exactly one object")
    h = oracle.enumerate_hom_classes(src, tgt, p, args.max_steps)
    print(f"hom({p.fmt_word(src)}, {p.fmt_word(tgt)}) at bound {args.max_steps}: {h.count} classes")
    for i, cls in enumerate(h.classes):
        print(f"  class {i}: {len(cls)} paths, e.g. {p.fmt_path(cls[0])}")
    return 0


def cmd_compare(args) -> int:
    p = _load(args.file)
    rep = oracle.compare_constructions(
        p, args.max_word, args.max_steps, oracle_family=args.oracle
    )
    print(f"comparison ({rep['mode']} mode): {rep['verdict']}")
    for entry in rep["pairs"]:
        bits = [f"{k}={v}" for k, v in entry.items() if k not in ("src", "tgt")]
        print(f"  {entry['src']} -> {entry['tgt']}: " + " ".join(bits))
        if "mismatch" in entry:
            print(f"WITNESS: {entry['src']} -> {entry['tgt']}: {entry['mismatch']}")
    if "fractions" in rep:
        fr = rep["fractions"]
        print(f"  fraction agreement: {fr['agreed']}/{fr['checked']}")
    for note in rep["notes"]:
        print(f"WITNESS: {note}")
    return 0 if rep["verdict"] == "equal" else 1


def cmd_fractions(args) -> int:
    p = _load(args.file)
    table = residuation.derive_residual_table(p)
    texts = args.compose or args.equal
    paths = [parse_path(t, p) for t in texts]
    phi1 = constructions.Fraction(paths[0], paths[1])
    phi2 = constructions.Fraction(paths[2], paths[3])
    if args.compose:
        out = constructions.fraction_compose(phi1, phi2, p, table)
        print(f"num: {p.fmt_path(out.num)}")
        print(f"den: {p.fmt_path(out.den)}")
        return 0
    verdict = constructions.fraction_equal(phi1, phi2, p, table, budget=args.budget)
    print(f"fractions: {verdict}")
    if verdict != "equal":
        print(
            f"WITNESS: no mediating equational pair within budget {args.budget} for "
            f"({p.fmt_path(phi1.num)}, {p.fmt_path(phi1.den)}) vs "
            f"({p.fmt_path(phi2.num)}, {p.fmt_path(phi2.den)})"
        )
    return 0 if verdict == "equal" else 1


def cmd_tietze(args) -> int:
    p = _load(args.file)
    script = _read(args.script)
    try:
        out = constructions.tietze_apply(p, script)
    except constructions.TietzeRefusal as exc:
        print(f"refused: {exc}")
        print(f"WITNESS: {exc}")
        return 1
    FsPath(args.output).write_text(print_presentation(out), encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def _int_at_least(text: str, low: int) -> int:
    n = int(text)
    if n < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
    return n


def positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="cohpres",
        description="coherence checks for presentations of (monoidal) categories modulo",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the coherence assumption checks")
    c.add_argument("file")
    c.add_argument(
        "--assumption",
        choices=["a1", "a2", "a3", "a3x", "a4", "all"],
        default="all",
        help="which assumption to report (a3x runs the up-to-exchange variant)",
    )
    c.add_argument("--strong", action="store_true", help="strong-confluence exemption in A4")
    c.add_argument("--report", help="write the structured JSON report here")
    c.add_argument("--timings", action="store_true", help="include timings in the report")
    c.add_argument("--term-budget", type=positive_int, default=10_000)
    c.add_argument("--max-word-len", type=non_negative_int, default=6)
    c.add_argument("--depth", type=non_negative_int, default=12, help="top-trace search depth")
    c.add_argument("--budget", type=non_negative_int, default=50_000)
    c.add_argument("--no-opposite", action="store_true", help="skip the opposite-presentation probe")

    c = sub.add_parser("nf", help="normal form and normalization path of a word")
    c.add_argument("file")
    c.add_argument("word")

    c = sub.add_parser("residual", help="residuals of one path after another")
    c.add_argument("file")
    c.add_argument("--of", required=True)
    c.add_argument("--after", required=True)
    c.add_argument("--witness", action="store_true")

    c = sub.add_parser("critical", help="critical pairs and cylinders")
    c.add_argument("file")
    c.add_argument("--pairs", action="store_true", help="pairs only")
    c.add_argument("--cylinders", action="store_true", help="cylinders only")

    c = sub.add_parser("enumerate", help="bounded hom-set classes")
    c.add_argument("file")
    c.add_argument("src")
    c.add_argument("tgt")
    c.add_argument("--max-steps", type=non_negative_int, required=True)

    c = sub.add_parser("compare", help="compare NF / quotient / localization at desk scale")
    c.add_argument("file")
    c.add_argument("--max-word", type=non_negative_int, required=True)
    c.add_argument("--max-steps", type=non_negative_int, required=True)
    c.add_argument("--oracle", choices=["ds2"], default=None)

    c = sub.add_parser("fractions", help="fraction composition and equality")
    c.add_argument("file")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--compose", nargs=4, metavar=("NUM1", "DEN1", "NUM2", "DEN2"))
    g.add_argument("--equal", nargs=4, metavar=("NUM1", "DEN1", "NUM2", "DEN2"))
    c.add_argument("--budget", type=non_negative_int, default=8)

    c = sub.add_parser("tietze", help="apply a Tietze transformation script")
    c.add_argument("file")
    c.add_argument("--script", required=True)
    c.add_argument("-o", "--output", required=True)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # looked up at call time, so a replaced ``cmd_*`` is the one called
        return globals()[f"cmd_{args.command}"](args)
    except BrokenPipeError:
        # The reader went away; send what is still buffered to devnull so the
        # flush at interpreter exit does not raise again.  This clause must
        # stay ahead of the OSError one below, which would also match.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output pipe closed", file=sys.stderr)
        return 2
    except (OSError, CohpresError) as exc:
        # unreadable input (missing, a directory, not UTF-8) or a parse error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too deep or too large ({type(exc).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
