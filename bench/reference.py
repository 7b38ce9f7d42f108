"""Expected answers for the benchmark, computed without cohpres.

Nothing here imports cohpres.  The generator and relation tables below are
copied by hand from the corpus files, and the semantics are the ones the
README and the source paper give:

* ds2 is two commuting copies of the surjection PRO glued by ``g : ba -> ab``.
  A morphism is determined by where it sends each source position, and
  ``g`` only ever swaps a ``b`` past an ``a``, so normalization is the stable
  sort with every ``a`` before every ``b``.
* ds2op is its opposite: ``m`` and ``n`` duplicate, ``g : ab -> ba``.  A
  morphism is determined by which source position each target position
  comes from, and normal forms put every ``b`` before every ``a``.

Hom-set sizes follow from the closed form: the surjection PRO has
``surj(n, k) = C(n-1, k-1)`` monotone surjections from n onto k points.
"""

from __future__ import annotations

from math import comb

# name -> (source, target, local position map).  In ds2 the local map sends
# each source position of the factor to a target position; in ds2op it sends
# each target position back to a source position.
GENERATORS = {
    "ds2": {
        "m": ("aa", "a", (0, 0)),
        "n": ("bb", "b", (0, 0)),
        "g": ("ba", "ab", (1, 0)),
    },
    "ds2op": {
        "m": ("a", "aa", (0, 0)),
        "n": ("b", "bb", (0, 0)),
        "g": ("ab", "ba", (1, 0)),
    },
}
COVARIANT = {"ds2": True, "ds2op": False}
EQUATIONAL = "g"
# the letter that the normal form puts first
NORMAL_FIRST = {"ds2": "a", "ds2op": "b"}

# relation name -> (lhs, rhs), each a list of (left, gen, right) steps
RELATIONS = {
    "ds2": {
        "alpha": ([("", "m", "a"), ("", "m", "")], [("a", "m", ""), ("", "m", "")]),
        "beta": ([("", "n", "b"), ("", "n", "")], [("b", "n", ""), ("", "n", "")]),
        "gamma": (
            [("b", "m", ""), ("", "g", "")],
            [("", "g", "a"), ("a", "g", ""), ("", "m", "b")],
        ),
        "delta": (
            [("", "n", "a"), ("", "g", "")],
            [("b", "g", ""), ("", "g", "b"), ("a", "n", "")],
        ),
    },
    "ds2op": {
        "alpha": ([("", "m", ""), ("", "m", "a")], [("", "m", ""), ("a", "m", "")]),
        "beta": ([("", "n", ""), ("", "n", "b")], [("", "n", ""), ("b", "n", "")]),
        "gamma": (
            [("", "g", ""), ("b", "m", "")],
            [("", "m", "b"), ("a", "g", ""), ("", "g", "a")],
        ),
        "delta": (
            [("", "g", ""), ("", "n", "a")],
            [("a", "n", ""), ("", "g", "b"), ("b", "g", "")],
        ),
    },
}


class Mismatch(Exception):
    """An output of cohpres disagrees with the expected answer."""


# ---------------------------------------------------------------------------
# hom-set sizes


def surj(n: int, k: int) -> int:
    """Monotone surjections from n points onto k points."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return comb(n - 1, k - 1)


def hom_count(pres: str, src: str, tgt: str) -> int:
    """Number of morphisms src -> tgt between normal words."""
    p, q, r, s = src.count("a"), src.count("b"), tgt.count("a"), tgt.count("b")
    if pres == "ds2":
        return surj(p, r) * surj(q, s)
    return surj(r, p) * surj(s, q)


# ---------------------------------------------------------------------------
# words and paths


def normal_form(pres: str, word: str) -> str:
    first = NORMAL_FIRST[pres]
    return "".join(c for c in word if c == first) + "".join(c for c in word if c != first)


def normalization_steps(pres: str, word: str) -> list[tuple[str, str, str]]:
    """The leftmost-first normalization path of ``word`` as (left, gen, right)."""
    src = GENERATORS[pres][EQUATIONAL][0]
    w = word
    steps = []
    while True:
        pos = w.find(src)
        if pos < 0:
            return steps
        steps.append((w[:pos], EQUATIONAL, w[pos + len(src) :]))
        w = w[:pos] + src[::-1] + w[pos + len(src) :]


def run_path(pres: str, word: str, steps) -> tuple[str, list[int]]:
    """Type-check a path and return (target word, position map).

    The map is covariant for ds2 (source position -> target position) and
    contravariant for ds2op (target position -> source position).
    """
    gens = GENERATORS[pres]
    cov = COVARIANT[pres]
    cur = word
    pos = list(range(len(word)))
    for left, gen, right in steps:
        if gen not in gens:
            raise Mismatch(f"unknown generator {gen!r}")
        src, tgt, local = gens[gen]
        if left + src + right != cur:
            raise Mismatch(f"step {left}[{gen}]{right} does not apply to {cur}")
        k = len(left)
        if cov:
            def move(i: int) -> int:
                if i < k:
                    return i
                if i >= k + len(src):
                    return i - len(src) + len(tgt)
                return k + local[i - k]

            pos = [move(i) for i in pos]
        else:
            def back(j: int) -> int:
                if j < k:
                    return j
                if j >= k + len(tgt):
                    return j - len(tgt) + len(src)
                return k + local[j - k]

            pos = [pos[back(j)] for j in range(len(left + tgt + right))]
        cur = left + tgt + right
    return cur, pos


def stable_sort_map(pres: str, word: str) -> list[int]:
    """The position map of the normalization of ``word``."""
    first = NORMAL_FIRST[pres]
    order = [i for i, c in enumerate(word) if c == first] + [
        i for i, c in enumerate(word) if c != first
    ]
    if not COVARIANT[pres]:
        return order
    out = [0] * len(word)
    for new, old in enumerate(order):
        out[old] = new
    return out


def compose_maps(pres: str, first: list[int], second: list[int]) -> list[int]:
    """Position map of ``first`` followed by ``second``."""
    if COVARIANT[pres]:
        return [second[i] for i in first]
    return [first[j] for j in second]


# ---------------------------------------------------------------------------
# checks


def check_nf_image(pres: str, word: str, step, image_word: str, image_steps) -> None:
    """``image`` must be nf(f) for the one-step path f = ``step`` on ``word``:
    a path NF(src f) -> NF(tgt f) with u ; nf(f) = f ; (stable sort)."""
    if image_word != normal_form(pres, word):
        raise Mismatch(f"image starts at {image_word}, expected {normal_form(pres, word)}")
    f_tgt, f_map = run_path(pres, word, [step])
    end, img_map = run_path(pres, image_word, image_steps)
    if end != normal_form(pres, f_tgt):
        raise Mismatch(f"image ends at {end}, expected {normal_form(pres, f_tgt)}")
    lhs = compose_maps(pres, stable_sort_map(pres, word), img_map)
    rhs = compose_maps(pres, f_map, stable_sort_map(pres, f_tgt))
    if lhs != rhs:
        raise Mismatch("u ; nf(f) and f ; sort differ on positions")


def _whisker(steps, x: str, y: str):
    return [(x + left, gen, right + y) for left, gen, right in steps]


def _cell_sides(pres: str, name, exch, left: str, right: str, forward: bool):
    """(from, to) step lists of a whiskered relation or exchange cell."""
    if name is not None:
        a, b = RELATIONS[pres][name]
    else:
        f, mid, g = exch
        fs, ft, _ = GENERATORS[pres][f]
        gs, gt, _ = GENERATORS[pres][g]
        a = [("", f, mid + gs), (ft + mid, g, "")]
        b = [(fs + mid, g, ""), ("", f, mid + gt)]
    if not forward:
        a, b = b, a
    return _whisker(a, left, right), _whisker(b, left, right)


def replay_trace(pres: str, word: str, start, cells) -> list:
    """Apply 2-cells to the path ``start`` on ``word``; return the final path.

    Each cell is (prefix steps, name, exch, left, right, forward, suffix
    steps) and must match the current path exactly.
    """
    cur = list(start)
    for prefix, name, exch, left, right, forward, suffix in cells:
        lhs, rhs = _cell_sides(pres, name, exch, left, right, forward)
        if list(prefix) + lhs + list(suffix) != cur:
            raise Mismatch(f"cell {name or exch} does not apply at position {len(prefix)}")
        cur = list(prefix) + rhs + list(suffix)
    run_path(pres, word, cur)
    return cur


def check_witness(pres: str, word: str, step, u, gf, fg, trace_start, cells) -> None:
    """The witness must rewrite u ; (f/u) into f ; (u/f), two paths that act
    alike on positions."""
    left_path = list(u) + list(gf)
    right_path = [step] + list(fg)
    if list(trace_start) != left_path:
        raise Mismatch("witness does not start at u ; (f/u)")
    end_l, map_l = run_path(pres, word, left_path)
    end_r, map_r = run_path(pres, word, right_path)
    if end_l != end_r or map_l != map_r:
        raise Mismatch("u ; (f/u) and f ; (u/f) are different morphisms")
    if replay_trace(pres, word, left_path, cells) != right_path:
        raise Mismatch("witness does not end at f ; (u/f)")


# ---------------------------------------------------------------------------
# the check command


# Verdicts of the strict checks per corpus file, from the README and
# tests/test_cli.py: ds2 is coherent, ds2op fails the strict cylinder
# property, huet has the equational cycle x -> y -> x, deltas has no
# equational generators.  The weights of ds2 and ds2op are carried over to
# the opposite presentation, where they do not decrease, so the
# faithful-embedding probe of either stays inconclusive.
STRICT = {
    "ds2": {"a1": "PASS", "a2": "PASS", "a3": "PASS", "a4": "PASS",
            "coherent": "PASS", "faithful-embedding": "INCONCLUSIVE"},
    "ds2op": {"a1": "PASS", "a2": "PASS", "a3": "FAIL", "a4": "INCONCLUSIVE",
              "coherent": "FAIL", "faithful-embedding": "INCONCLUSIVE"},
    "huet": {"a1": "FAIL", "a2": "INCONCLUSIVE", "a3": "INCONCLUSIVE", "a4": "INCONCLUSIVE",
             "coherent": "FAIL", "faithful-embedding": "FAIL"},
    "deltas": {"a1": "PASS", "a2": "PASS", "a3": "PASS", "a4": "PASS",
               "coherent": "PASS", "faithful-embedding": "PASS"},
}
# ds2op checked with --assumption a3x --strong is coherent
A3X_STRONG = {"ds2op": {"a1": "PASS", "a2": "PASS", "a3": "PASS", "a4": "PASS",
                        "coherent": "PASS", "faithful-embedding": "INCONCLUSIVE"}}
# (file, assumption) -> a WITNESS line that must appear when it is reported
# in strict mode
WITNESS_TEXT = {
    ("huet", "a1"): "equational cycle: x -> y -> x",
    ("ds2op", "a3"): "exch(m,0,n)",
}


def expected_check(pres: str, assumption: str, strong: bool, opposite: bool):
    """(exit code, verdict lines) of ``cohpres check``."""
    if assumption == "a3x":
        if not strong:
            raise ValueError("only a3x with --strong is tabulated")
        table, a3_label = A3X_STRONG[pres], "a3 (up to exchange)"
    else:
        table, a3_label = STRICT[pres], "a3 (strict)"
    label = {"a1": "a1", "a2": "a2", "a3": a3_label, "a4": "a4"}
    if assumption in label:
        status = table[assumption]
        return (0 if status == "PASS" else 1), [f"{label[assumption]}: {status}"]
    lines = [f"{label[k]}: {table[k]}" for k in ("a1", "a2", "a3", "a4")]
    lines.append(f"coherent: {table['coherent']}")
    if opposite:
        lines.append(f"faithful-embedding: {table['faithful-embedding']}")
    return (0 if table["coherent"] == "PASS" else 1), lines


def check_check_output(pres: str, assumption: str, strong: bool, opposite: bool,
                       code: int, out: str) -> None:
    want_code, want_lines = expected_check(pres, assumption, strong, opposite)
    if code != want_code:
        raise Mismatch(f"exit code {code}, expected {want_code}")
    lines = out.splitlines()
    verdicts = [line.split("  (", 1)[0] for line in lines if not line.startswith("WITNESS:")]
    if verdicts != want_lines:
        raise Mismatch(f"verdicts {verdicts}, expected {want_lines}")
    witnesses = [line for line in lines if line.startswith("WITNESS:")]
    if any(": FAIL" in v for v in verdicts) and not witnesses:
        raise Mismatch("a failed check printed no WITNESS line")
    reported = ("a1", "a2", "a3", "a4") if assumption == "all" else (assumption,)
    for key in reported:
        text = WITNESS_TEXT.get((pres, key))
        if text and not any(text in w for w in witnesses):
            raise Mismatch(f"missing witness {text!r}")


# ---------------------------------------------------------------------------
# the compare command


def _pair_lines(out: str):
    """(src, tgt, fields) of each ``  src -> tgt: k=v ...`` line."""
    for line in out.splitlines():
        if not line.startswith("  ") or " -> " not in line or ": " not in line:
            continue
        head, _, tail = line.strip().partition(": ")
        src, _, tgt = head.partition(" -> ")
        fields = {}
        for part in tail.split(" "):
            key, eq, value = part.partition("=")
            if eq:
                fields[key] = value
        yield src, tgt, fields


def check_compare_output(pres: str, max_word: int, code: int, out: str) -> None:
    lines = out.splitlines()
    if pres == "huet":
        # quotienting identifies the cycle, localizing keeps g ; g' apart
        if code != 1 or not lines or lines[0] != "comparison (path mode): unequal":
            raise Mismatch(f"huet compare: exit {code}, first line {lines[:1]}")
        xx = [f for s, t, f in _pair_lines(out) if s == "x" and t == "x"]
        if len(xx) != 1:
            raise Mismatch("huet compare: no x -> x line")
        q, loc = int(xx[0]["quotient_classes"]), int(xx[0]["localization_classes"])
        if q != 1 or loc < 2:
            raise Mismatch(f"huet compare: x -> x quotient {q}, localization {loc}")
        return
    if code != 0 or not lines or lines[0] != "comparison (monoidal mode): equal":
        raise Mismatch(f"{pres} compare: exit {code}, first line {lines[:1]}")
    words = ["0" if not w else w for w in normal_words(pres, max_word)]
    pairs = list(_pair_lines(out))
    if [(s, t) for s, t, _ in pairs] != [(u, v) for u in words for v in words]:
        raise Mismatch(f"{pres} compare: unexpected pair list")
    for src, tgt, fields in pairs:
        want = hom_count(pres, src.replace("0", ""), tgt.replace("0", ""))
        if int(fields["nf_classes"]) != want:
            raise Mismatch(f"{pres} compare: {src} -> {tgt} has {fields['nf_classes']}, expected {want}")
    agree = [line for line in lines if line.startswith("  fraction agreement: ")]
    if len(agree) != 1:
        raise Mismatch(f"{pres} compare: no fraction agreement line")
    agreed, checked = agree[0].rsplit(" ", 1)[1].split("/")
    if agreed != checked or int(checked) == 0:
        raise Mismatch(f"{pres} compare: fraction agreement {agreed}/{checked}")


def normal_words(pres: str, max_len: int) -> list[str]:
    """Normal words up to ``max_len`` letters in the order cohpres lists
    them: by length, then lexicographically with a before b."""
    out = []
    for n in range(max_len + 1):
        words = [""]
        for _ in range(n):
            words = [w + c for w in words for c in "ab"]
        out.extend(w for w in words if w == normal_form(pres, w))
    return out
