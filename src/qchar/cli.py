"""Command-line front end: enumeration listings, basis-matrix exports,
decomposition tables, invariant verification suites, and pyramid reports.

JSON is the canonical output format; CSV and LaTeX are lossy views.  Exit
codes: 0 success, 1 verification or computation failure or a closed output
pipe, 2 usage error.
Identical configurations produce byte-identical output: every listing is
sorted and blocks are solved and written in weight order.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import random
import sys

from . import bases, characters
from .combinatorics import (
    Partition,
    SignedMultiPartition,
    enumerate_tableaux,
    multi_tableau_from_row_reading,
    pyramid_report,
    weight_key,
)
from .laurent import ONE, LaurentSum, constant, in_lattice
from .tensor_space import (
    ZETA,
    TensorElement,
    act_E,
    act_F,
    bar_involution,
    hecke_act,
    hecke_act_inverse,
)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Input grammars.
# ---------------------------------------------------------------------------


def parse_shape(text: str) -> SignedMultiPartition:
    """Parse "2,1:+ / 2:-" into a signed multi-partition."""
    pieces = []
    for chunk in text.split("/"):
        chunk = chunk.strip()
        if chunk.count(":") != 1:
            raise UsageError(f"malformed shape piece: {chunk!r}")
        parts_text, sign = chunk.split(":")
        sign = sign.strip()
        if sign not in ("+", "-"):
            raise UsageError(f"piece sign must be '+' or '-': {chunk!r}")
        try:
            parts = tuple(int(p) for p in parts_text.strip().split(","))
            pieces.append((Partition(parts), sign))
        except ValueError as exc:
            raise UsageError(f"malformed shape piece: {chunk!r} ({exc})") from exc
        if max(parts) > sys.maxsize:
            raise UsageError(f"shape part {max(parts)} exceeds {sys.maxsize}")
    return SignedMultiPartition(tuple(pieces))


def parse_window(text: str) -> tuple[int, int]:
    """Parse "0..6" into an inclusive integer interval."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise UsageError(f"window must look like '0..6', got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"window must look like '0..6', got {text!r}") from exc
    if hi - lo + 1 > sys.maxsize:
        raise UsageError(f"window {text} holds {hi - lo + 1} entries, more than {sys.maxsize}")
    return lo, hi


def parse_weight(text: str) -> dict[int, int]:
    """Parse "1:1,2:-1" into a signed weight mapping."""
    out: dict[int, int] = {}
    for chunk in text.split(","):
        a, sep, c = chunk.partition(":")
        if not sep:
            raise UsageError(f"weight entries must look like 'a:c', got {chunk!r}")
        try:
            a, c = int(a), int(c)
        except ValueError as exc:
            raise UsageError(f"weight entries must look like 'a:c', got {chunk!r}") from exc
        if a in out:
            raise UsageError(f"weight index {a} is repeated in {text!r}")
        out[a] = c
    return {a: c for a, c in out.items() if c}


def _emit(chunks, out_path: str | None) -> None:
    """Write a string, or the strings of an iterable, to `out_path` or stdout."""
    if isinstance(chunks, str):
        chunks = (chunks,)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.writelines(chunks)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise UsageError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(chunks)


# `_json` closes a piece at the first item boundary past _PIECE characters;
# a list of at most _WHOLE items that holds no dict is written whole; it
# keeps the text of at most _TEXTS lists.
_PIECE = 1 << 16
_WHOLE = 64
_TEXTS = 1 << 12


def _json(data):
    """`json.dumps(data, indent=2, sort_keys=True)` and a newline, written
    directly in pieces of about 2^16 characters: one write call per piece,
    even on an unbuffered stdout.  `data` holds dicts with string keys,
    lists, tuples, strings, ints, bools and None, the values the commands
    write; any other value raises `TypeError`.

    From the top down, dicts and lists of more than `_WHOLE` items or
    holding a dict are written item by item, and a piece closes at the first
    item boundary past `_PIECE` characters; any other list is written, with
    all it holds, as one string.  A list met again at the same depth inside
    such a string, like the shared cells of `bases.sparse_json`, is written
    from the text kept at its first writing, so `data` must not change while
    the pieces are read."""
    texts = {}  # (id, indent) -> the text of a list nested in a whole list
    enc = json.encoder.encode_basestring_ascii

    def key(k) -> str:
        if not isinstance(k, str):
            raise TypeError(f"keys must be str, not {k.__class__.__name__}")
        return enc(k) + ": "

    def whole(o, nl: str) -> str:
        # `o` as one string, its closing line indented by `nl`
        if isinstance(o, str):
            return enc(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = nl + "  "
            parts = []
            for x in o:
                t = type(x)
                if t is int:
                    parts.append(int.__repr__(x))
                elif t is str:
                    parts.append(enc(x))
                elif t is list and x:
                    if (s := texts.get((id(x), inner))) is None:
                        if len(texts) >= _TEXTS:
                            texts.clear()
                        s = texts[id(x), inner] = whole(x, inner)
                    parts.append(s)
                else:
                    parts.append(whole(x, inner))
            return "[" + inner + ("," + inner).join(parts) + nl + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = nl + "  "
            parts = [key(k) + whole(v, inner) for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(parts) + nl + "}"
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    def streamed(o) -> bool:
        if isinstance(o, dict):
            return bool(o)
        return isinstance(o, (list, tuple)) and (len(o) > _WHOLE or dict in map(type, o))

    buf, size = [], 0

    def stream(o, nl: str):
        # append `o` to `buf` item by item, yielding each full piece
        nonlocal size
        inner = nl + "  "
        if isinstance(o, dict):
            items = [(key(k), v) for k, v in sorted(o.items())]
            sep, close = "{" + inner, nl + "}"
        else:
            items = zip(itertools.repeat(""), o)
            sep, close = "[" + inner, nl + "]"
        for head, x in items:
            if streamed(x):
                buf.append(sep + head)
                size += len(buf[-1])
                yield from stream(x, inner)
            else:
                buf.append(sep + head + whole(x, inner))
                size += len(buf[-1])
            sep = "," + inner
            if size >= _PIECE:
                yield "".join(buf)
                buf.clear()
                size = 0
        buf.append(close)
        size += len(close)

    if streamed(data):
        yield from stream(data, "\n")
    else:
        buf.append(whole(data, "\n"))
    buf.append("\n")
    yield "".join(buf)


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _naming_block(shape, window: tuple[int, int], mu: dict[int, int] | None):
    """Re-raise a computation's ValueError or RuntimeError (a route
    disagreement included) with the block it failed on, and a MemoryError
    as "out of memory" on that block; a computation over every weight of
    the window passes `mu` None and names no weight."""
    try:
        yield
    except (ValueError, RuntimeError, MemoryError) as exc:
        weight = "" if mu is None else f", weight {mu}"
        reason = "out of memory" if isinstance(exc, MemoryError) else exc
        raise RuntimeError(
            f"shape {shape}, window {window[0]}..{window[1]}{weight}: {reason}"
        ) from exc


def cmd_enumerate(args) -> int:
    shape = parse_shape(args.shape)
    window = parse_window(args.window)
    mu = None if args.weight is None else parse_weight(args.weight)
    with _naming_block(shape, window, None):
        tableaux = enumerate_tableaux(shape, args.kind, window)
    if mu is not None:
        tableaux = bases.tableaux_of_weight(tableaux, mu)
    # Each format builds only the fields it prints.
    if args.format == "json":
        rows = [
            {
                "tableau": bases.tableau_json(mt),
                "display": str(mt),
                "row_reading": list(mt.row_reading()),
                "column_reading": list(mt.column_reading()),
                "weight": {str(a): c for a, c in mt.signed_key},
            }
            for mt in tableaux
        ]
        _emit(_json({"shape": str(shape), "window": list(window), "kind": args.kind, "tableaux": rows}), args.out)
    elif args.format == "csv":
        lines = ["tableau,row_reading,column_reading"]
        for mt in tableaux:
            lines.append(
                f"\"{mt}\",\"{' '.join(map(str, mt.row_reading()))}\","
                f"\"{' '.join(map(str, mt.column_reading()))}\""
            )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        lines = [str(mt) for mt in tableaux]
        _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


# Each block command's solver, by the space it solves in: the kind of label
# whose weights list the blocks, and the solve of one block.  The solvers
# look their functions up in their modules when called.
_SOLVERS = {
    "t": ("t", lambda shape, window, mu: bases.dcb_T(shape.sign_sequence(), window, mu)),
    "s": ("row", lambda shape, window, mu: bases.dcb_S(shape, window, mu)),
    "p": ("std", lambda shape, window, mu: bases.dcb_P(shape, window, mu)),
    "table": ("std", lambda shape, window, mu: characters.decomposition_matrix(shape, window, mu)),
}


def _each_block(shape, window: tuple[int, int], kind: str, solve, weight: dict[int, int] | None = None):
    """Yield (weight, solved block) for the blocks of labels of `kind`, or
    the `weight` block alone, in weight order, each solved by `solve(shape,
    window, mu)` in this process, so that the blocks of one weight pattern
    share the block memo; a failure names the shape, window and block."""
    with _naming_block(shape, window, None):
        weights = [weight_key(weight)] if weight is not None else bases.block_weights(shape, window, kind)
    for mu in map(dict, weights):
        with _naming_block(shape, window, mu):
            solved = solve(shape, window, mu)
        yield mu, solved


def _solve_blocks(args, space: str):
    """The shape, window and solved (weight, block) pairs of a block command."""
    shape, window = parse_shape(args.shape), parse_window(args.window)
    weight = None if args.weight is None else parse_weight(args.weight)
    return shape, window, list(_each_block(shape, window, *_SOLVERS[space], weight))


def cmd_dcb(args) -> int:
    shape, window, solved = _solve_blocks(args, args.space)
    if args.format == "latex":
        _emit("\n\n".join(blk.to_latex() for _, blk in solved) + "\n", args.out)
    else:
        blocks = [dict(blk.to_json(), weight={str(a): c for a, c in mu.items()}) for mu, blk in solved]
        data = {"shape": str(shape), "window": list(window), "space": args.space, "blocks": blocks}
        _emit(_json(data), args.out)
    return 0


def cmd_decompose(args) -> int:
    tables = [t for _, t in _solve_blocks(args, "table")[2]]
    if args.format == "csv":
        _emit("\n".join(t.to_csv() for t in tables), args.out)
    elif args.format == "latex":
        _emit("\n\n".join(t.to_latex() for t in tables) + "\n", args.out)
    else:
        _emit(_json({"tables": [t.to_json() for t in tables]}), args.out)
    return 0


def cmd_report(args) -> int:
    shape = parse_shape(args.shape)
    theta = None
    if args.theta is not None:
        try:
            theta = tuple(int(x) for x in args.theta.split(","))
        except ValueError as exc:
            raise UsageError(f"theta must be comma-separated integers: {args.theta!r}") from exc
    try:
        rep = pyramid_report(shape, theta)
    except ValueError as exc:  # a theta of the wrong length or order
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        _emit(_json(rep), args.out)
    else:
        refined = zip(rep["refined_ulam"], rep["refined_uep"])
        lines = [
            f"shape: {rep['shape']}",
            "g(0) = " + "⊕".join(rep["g0"]),
            f"q^+ = {rep['q_plus']}",
            f"q^- = {rep['q_minus']}",
            "jordan type: ({}|{})".format(*(",".join(map(str, t)) for t in rep["jordan_type"])),
            f"levi blocks: {rep['levi_blocks']}",
            f"theta: {rep['theta']}",
            "refined shape: " + " / ".join(f"{part}:{s}" for (part,), s in refined),
            f"refined signs: {rep['refined_uep']}",
            f"sign sequence: {rep['sign_sequence']}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def _random_element(signs, window, rng):
    lo, hi = window
    out = LaurentSum()
    for _ in range(3):
        f = tuple(rng.randint(lo, hi) for _ in signs)
        out.add(f, constant(rng.randint(-3, 3)))
        out.add(f, ONE, None, rng.randint(-2, 2))
    return TensorElement(signs, window, out.settle())


def _runs(signs):
    """The i with H_i defined: positions i - 1, i inside one constant-sign run."""
    return [i for i in range(1, len(signs)) if signs[i - 1] == signs[i]]


def _suite_hecke():
    window = (1, 3)
    # +++ and --- have two adjacent Hecke sites: the braid relation's cases
    for signs in map(tuple, ("++", "+-", "-++", "+-+", "+++", "---")):
        runs = _runs(signs)
        for f in itertools.product(range(1, 4), repeat=len(signs)):
            x = TensorElement.monomial(signs, window, f)
            for i in runs:
                h = hecke_act(i, x)
                # quadratic relation: H_i^2 = ZETA H_i + 1
                if hecke_act(i, h) != h.scale(ZETA) + x:
                    yield {"signs": signs, "f": f, "relation": "quadratic", "i": i}
            for i in (i for i in runs if i + 1 in runs):
                lhs = hecke_act(i, hecke_act(i + 1, hecke_act(i, x)))
                rhs = hecke_act(i + 1, hecke_act(i, hecke_act(i + 1, x)))
                if lhs != rhs:
                    yield {"signs": signs, "f": f, "relation": "braid", "i": i}


def _suite_bar():
    rng = random.Random(20260824)
    lo, hi = window = (1, 3)
    for signs in (("+", "+"), ("+", "-"), ("-", "-", "+")):
        for _ in range(10):
            x = _random_element(signs, window, rng)
            bx = bar_involution(x)
            if bar_involution(bx) != x:
                yield {"signs": signs, "property": "involution"}
            for i in _runs(signs):
                if bar_involution(hecke_act(i, x)) != hecke_act_inverse(i, bx):
                    yield {"signs": signs, "property": "hecke twist", "i": i}
            # psi commutes with E_a and F_a; a < hi keeps every image inside
            # the window
            for a in range(lo, hi):
                for name, act in (("E", act_E), ("F", act_F)):
                    if bar_involution(act(a, x)) != act(a, bx):
                        yield {"signs": signs, "property": f"{name} commutation", "a": a}


def _suite_dcb():
    for shape, window in [
        (parse_shape("1:+ / 1:+"), (1, 2)),
        (parse_shape("1,1:+"), (1, 3)),
        (parse_shape("2:+ / 1,1:-"), (1, 2)),
    ]:
        for mu, blk in _each_block(shape, window, "row", bases.dcb_S):
            for t in blk.order:
                canon = blk.canon[t]
                where = {"shape": str(shape), "window": list(window), "weight": mu, "label": str(t)}
                if canon.get(t) != ONE:
                    yield {**where, "property": "diagonal"}
                if any(g != t and not in_lattice(c) for g, c in canon.items()):
                    yield {**where, "property": "lattice"}
                elem = bases.SElement(shape, window, dict(canon))
                if bases.bar_S(elem).coeffs != elem.coeffs:
                    yield {**where, "property": "bar invariance"}


def _suite_xi():
    for shape, window in [
        (parse_shape("2,1:+"), (1, 3)),
        (parse_shape("2,1:-"), (1, 3)),
    ]:
        with _naming_block(shape, window, None):
            images = bases.xi_wedge_images(shape, window)
        for mt, el in images.items():
            if (not el.is_zero()) != mt.is_std():
                where = {"shape": str(shape), "window": list(window), "tableau": str(mt)}
                yield {**where, "property": "nonvanishing"}


def _suite_theoremC():
    for shape, window in [
        (parse_shape("2,1:+ / 2:-"), (0, 2)),
        (parse_shape("1,1:+ / 2:+"), (1, 3)),
    ]:
        with _naming_block(shape, window, None):
            rep = characters.theoremC_check(shape, window)
        if not rep["pass"]:
            yield rep


def _suite_sameDCB():
    for shape, window in [
        (parse_shape("1,1:+"), (1, 2)),
        (parse_shape("2:-"), (1, 2)),
        (parse_shape("2,1:+"), (1, 3)),
        (parse_shape("1:+ / 1,1:-"), (1, 2)),
    ]:
        pairs = _each_block(shape, window, "row", lambda *args: (bases.dcb_S(*args), bases.sym_ideal_dcb(*args)))
        for mu, (a, b) in pairs:
            if a.order != b.order or a.canon != b.canon:
                yield {"shape": str(shape), "window": list(window), "weight": mu, "property": "identification"}


def _carried(blk, img, g) -> bool:
    """Whether `img` is the block of the images under `g` of `blk`'s labels,
    with `blk`'s bar rows and canonical columns carried along; labels are
    compared as sets, since the image of `blk`'s order need not be the
    order `img` is listed in."""
    return set(img.order) == {g(t) for t in blk.order} and all(
        {g(t): {g(h): c for h, c in col.items()} for t, col in getattr(blk, cols).items()} == getattr(img, cols)
        for cols in ("bar_rows", "canon")
    )


def _solved_or_error(space, shape, window, mu):
    """The directly solved block, or for P the error its solve raised: the P
    defect raises on some blocks.  A T or S block's error propagates."""
    try:
        return bases.direct_solve(space, shape, window, mu)
    except (ValueError, RuntimeError) as exc:
        if space != "p":
            raise
        return exc


def _flipped(shape, window):
    """sigma1 on S and P, as a map of `_suite_symmetry`: the shape with every
    piece's sign flipped, the label map through the mapped row reading, and
    the weight map."""
    image = SignedMultiPartition(tuple((p, "-" if s == "+" else "+") for p, s in shape.pieces))
    _, read, weight = bases.symmetry(1, shape.sign_sequence(), window)
    return "sigma1", image, lambda mt: multi_tableau_from_row_reading(image, read(mt.row_reading())), weight


def _suite_symmetry():
    # sigma1-sigma3 (`bases.symmetry`) on T and sigma1 on S and P, each block
    # and each of its images solved directly, so that no block is compared
    # with a block relabeled from it; a P block must raise if and only if
    # its image does
    cases = []
    for text, window in [
        ("1:+ / 1:- / 1:+", (1, 5)),
        ("1:+ / 1:+ / 1:- / 1:- / 1:+", (1, 4)),
        ("1:+ / 1:- / 1:+ / 1:-", (1, 4)),
    ]:
        shape = parse_shape(text)
        signs = shape.sign_sequence()
        maps = [(f"sigma{n}", *bases.symmetry(n, signs, window)) for n in (1, 2, 3)]
        cases.append(("t", "t", shape, signs, window, maps))
    for text in ("2,1:+ / 1:-", "2:+ / 1,1:-", "3,1:+"):
        shape, window = parse_shape(text), (1, 4)
        for space, kind in (("s", "row"), ("p", "std")):
            cases.append((space, kind, shape, shape, window, [_flipped(shape, window)]))
    for space, kind, shape, own, window, maps in cases:

        def solve(_, window, mu):
            blk = _solved_or_error(space, own, window, mu)
            return blk, [(name, _solved_or_error(space, image, window, weight(mu)), g) for name, image, g, weight in maps]

        for mu, (blk, images) in _each_block(shape, window, kind, solve):
            raised = isinstance(blk, Exception)
            for name, img, g in images:
                if raised != isinstance(img, Exception) or not (raised or _carried(blk, img, g)):
                    where = {"shape": str(shape), "window": list(window), "weight": mu}
                    yield {**where, "space": space, "symmetry": name}


# Every verification suite by name, in the order `verify --suite all` runs
# them.  A suite is a generator of one detail dict per failure; a suite that
# raises fails with the error as its detail, and the next suite still runs.
SUITES = {
    "hecke": _suite_hecke,
    "bar": _suite_bar,
    "dcb": _suite_dcb,
    "xi": _suite_xi,
    "theoremC": _suite_theoremC,
    "sameDCB": _suite_sameDCB,
    "symmetry": _suite_symmetry,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failures = []
    for name in names:
        try:
            detail = next(SUITES[name](), None)
        except (ValueError, RuntimeError) as exc:
            detail = {"error": str(exc)}
        print(("PASS" if detail is None else "FAIL") + f" {name}")
        if detail is not None:
            failures.append({"suite": name, "detail": detail})
    if failures:
        print(json.dumps({"failures": failures}, sort_keys=True))
        return 1
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qchar",
        description="Exact dual-canonical-basis and character-table computations "
        "for signed multi-pyramids at a finite window.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, blocks=True):
        """The options every command that reads a shape takes; `blocks` adds
        the window and weight of the computation."""
        p.add_argument("--shape", required=True, help='signed multi-partition, e.g. "2,1:+ / 2:-"')
        if blocks:
            p.add_argument("--window", default="1..3", help='inclusive entry interval, e.g. "0..6"')
            p.add_argument("--weight", default=None, help='signed weight filter, e.g. "1:1,2:1"')
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None, help="output file (default: stdout)")

    p = sub.add_parser("enumerate", help="list Row/Col/Std tableaux with readings and weights")
    common(p, ("json", "csv", "text"))
    p.add_argument("--kind", choices=("row", "col", "std"), default="std")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("dcb", help="export dual canonical basis matrices per weight block")
    common(p, ("json", "latex"))
    p.add_argument("--space", choices=("t", "s", "p"), default="s")
    p.set_defaults(fn=cmd_dcb)

    p = sub.add_parser("decompose", help="export decomposition tables")
    common(p, ("json", "csv", "latex"))
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="run an invariant verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="pyramid statistics and Levi data")
    common(p, ("json", "text"), blocks=False)
    p.add_argument("--theta", default=None, help="comma-separated integers, one per piece")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; the flush at exit goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
