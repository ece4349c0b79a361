"""Command-line front end: enumeration listings, basis-matrix exports,
decomposition tables, invariant verification suites, and pyramid reports.

JSON is the canonical output format; CSV and LaTeX are lossy views.  Exit
codes: 0 success, 1 verification or computation failure, 2 usage error.
Identical configurations produce byte-identical output: every listing is
sorted and blocks are solved and written in weight order.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import random
import sys

from . import bases, characters
from .combinatorics import (
    Partition,
    SignedMultiPartition,
    enumerate_tableaux,
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


def _json(data):
    """`json.dumps(data, indent=2, sort_keys=True)` and a newline, in pieces of
    2^16 encoder chunks: one write call per piece, even on an unbuffered stdout."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(data)
    while piece := "".join(itertools.islice(chunks, 1 << 16)):
        yield piece
    yield "\n"


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    shape = parse_shape(args.shape)
    window = parse_window(args.window)
    tableaux = enumerate_tableaux(shape, args.kind, window)
    if args.weight is not None:
        mu = parse_weight(args.weight)
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


@contextlib.contextmanager
def _naming_block(shape, window: tuple[int, int], mu: dict[int, int] | None):
    """Re-raise a computation's ValueError or RuntimeError (a route
    disagreement included) with the block it failed on; a computation over
    every weight of the window passes `mu` None and names no weight."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        weight = "" if mu is None else f", weight {mu}"
        raise RuntimeError(
            f"shape {shape}, window {window[0]}..{window[1]}{weight}: {exc}"
        ) from exc


# Each block command's solver, by the space it solves in: the kind of label
# whose weights list the blocks, and the solve of one block.  The solvers
# look their functions up in their modules when called.
_SOLVERS = {
    "t": ("t", lambda shape, window, mu: bases.dcb_T(shape.sign_sequence(), window, mu)),
    "s": ("row", lambda shape, window, mu: bases.dcb_S(shape, window, mu)),
    "p": ("std", lambda shape, window, mu: bases.dcb_P(shape, window, mu)),
    "table": ("std", lambda shape, window, mu: characters.decomposition_matrix(shape, window, mu)),
}


def _solve_blocks(args, space: str):
    """Parse the shape and window and solve the blocks of the space, or the
    --weight block alone, in weight order, each in this process, so that the
    blocks of one weight pattern share the block memo: the (weight, solved
    block) pairs with the shape and window."""
    shape = parse_shape(args.shape)
    window = parse_window(args.window)
    kind, solve = _SOLVERS[space]
    if args.weight is not None:
        weights = [weight_key(parse_weight(args.weight))]
    else:
        weights = bases.block_weights(shape, window, kind)
    solved = []
    for mu in map(dict, weights):
        with _naming_block(shape, window, mu):
            solved.append((mu, solve(shape, window, mu)))
    return shape, window, solved


def cmd_dcb(args) -> int:
    shape, window, solved = _solve_blocks(args, args.space)
    if args.format == "latex":
        _emit("\n\n".join(blk.to_latex() for _, blk in solved) + "\n", args.out)
    else:
        blocks = [
            dict(blk.to_json(), weight={str(a): c for a, c in sorted(mu.items())})
            for mu, blk in solved
        ]
        data = {"shape": str(shape), "window": list(window), "space": args.space, "blocks": blocks}
        _emit(_json(data), args.out)
    return 0


def cmd_decompose(args) -> int:
    _, _, blocks = _solve_blocks(args, "table")
    tables = [t for _, t in blocks]
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


def _row_blocks(cases):
    """Every (shape, window, weight) of the Row weight blocks of the cases."""
    for shape, window in cases:
        for w in bases.block_weights(shape, window, "row"):
            yield shape, window, dict(w)


def _suite_dcb():
    for shape, window, mu in _row_blocks([
        (parse_shape("1:+ / 1:+"), (1, 2)),
        (parse_shape("1,1:+"), (1, 3)),
        (parse_shape("2:+ / 1,1:-"), (1, 2)),
    ]):
        with _naming_block(shape, window, mu):
            blk = bases.dcb_S(shape, window, mu)
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
    for shape, window, mu in _row_blocks([
        (parse_shape("1,1:+"), (1, 2)),
        (parse_shape("2:-"), (1, 2)),
        (parse_shape("2,1:+"), (1, 3)),
        (parse_shape("1:+ / 1,1:-"), (1, 2)),
    ]):
        with _naming_block(shape, window, mu):
            a = bases.dcb_S(shape, window, mu)
            b = bases.sym_ideal_dcb(shape, window, mu)
        if a.order != b.order or a.canon != b.canon:
            yield {"shape": str(shape), "window": list(window), "weight": mu, "property": "identification"}


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
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
