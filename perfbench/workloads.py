"""Workload definitions, op execution and result checks for the qchar benchmark.

An op is one call into the public library followed by `to_json()` on its
result, the unit of work the `qchar` command emits per block.  Ops are plain
JSON dicts so the harness can hand them to a fresh interpreter:

    {"key": str, "fn": str, "shape": str, "window": [lo, hi],
     "weight": [[a, c], ...], "label": rows-per-piece or null}

`key` names the op independently of its position in a sweep; the reference
digests are stored under it.
"""

from __future__ import annotations

import hashlib
import itertools
import json

# (workload, function, [(shape, window), ...]).  Shapes use the `qchar`
# command-line grammar; `dcb_T` takes a space-separated sign sequence.
WORKLOADS = {
    "s_sweep": (
        "dcb_S",
        [("2,1:+ / 1:+", (1, 6)), ("3,1:+ / 1:-", (1, 5))],
    ),
    "t_tensor": (
        "dcb_T",
        [("+ + - - +", (1, 4)), ("+ - + -", (1, 5))],
    ),
    "p_decompose": (
        "decomposition_matrix",
        [
            ("1,1:+ / 1:-", (1, 5)),
            ("2:+ / 1,1:-", (1, 4)),
            ("1,1:- / 2:+", (1, 4)),
            ("2:- / 1,1:+", (1, 4)),
            ("2,1:+ / 1:-", (1, 4)),
            ("2,2,1:+", (1, 4)),
            ("3,2,1:+", (1, 4)),
            ("1:+ / 1:- / 1:+", (1, 6)),
        ],
    ),
    "chars_query": (
        "simple_character",
        [("1:+ / 1:- / 1:+", (1, 5)), ("2,1:+ / 1:-", (1, 4))],
    ),
}


def _weight_text(weight) -> str:
    return ",".join(f"{a}:{c}" for a, c in weight)


def op_key(fn: str, shape: str, window, weight, label=None) -> str:
    key = f"{fn} [{shape}] @ {window[0]}..{window[1]} wt {_weight_text(weight)}"
    if label is not None:
        key += " label " + json.dumps(label, separators=(",", ":"))
    return key


def build_ops(fn: str, specs) -> list[dict]:
    """Every op of `fn` over the blocks (or, for `simple_character`, the Std
    labels) of each (shape, window) in `specs`, sorted by key.  A workload's
    ops are `build_ops(*WORKLOADS[name])`."""
    from qchar.bases import tableau_json
    from qchar.cli import parse_shape
    from qchar.combinatorics import enumerate_tableaux
    from qchar.tensor_space import wt_key

    ops = []
    for shape_text, window in specs:
        lo, hi = window
        if fn == "dcb_T":
            signs = tuple(shape_text.split())
            cells = [(w, None) for w in {
                wt_key(f, signs) for f in itertools.product(range(lo, hi + 1), repeat=len(signs))
            }]
        else:
            shape = parse_shape(shape_text)
            signs = shape.sign_sequence()
            kind = "row" if fn == "dcb_S" else "std"
            tabs = enumerate_tableaux(shape, kind, window)
            if fn == "simple_character":
                cells = [(wt_key(mt.row_reading(), signs), tableau_json(mt)) for mt in tabs]
            else:
                cells = [(w, None) for w in {wt_key(mt.row_reading(), signs) for mt in tabs}]
        for weight, label in cells:
            weight = [list(p) for p in weight]
            ops.append({
                "key": op_key(fn, shape_text, window, weight, label),
                "fn": fn,
                "shape": shape_text,
                "window": [lo, hi],
                "weight": weight,
                "label": label,
            })
    ops.sort(key=lambda op: op["key"])
    return ops


# ---------------------------------------------------------------------------
# Running an op (inside the measured interpreter).
# ---------------------------------------------------------------------------


def prepare(op: dict):
    """Turn an op into a zero-argument callable that makes the library call
    and serializes the result, with all input parsing done up front."""
    from qchar import bases, characters
    from qchar.cli import parse_shape
    from qchar.combinatorics import MultiTableau, Tableau

    fn, window = op["fn"], tuple(op["window"])
    mu = {a: c for a, c in op["weight"]}
    if fn == "dcb_T":
        signs = tuple(op["shape"].split())
        return lambda: bases.dcb_T(signs, window, mu).to_json()
    shape = parse_shape(op["shape"])
    if fn == "dcb_S":
        return lambda: bases.dcb_S(shape, window, mu).to_json()
    if fn == "decomposition_matrix":
        return lambda: characters.decomposition_matrix(shape, window, mu).to_json()
    if fn == "simple_character":
        label = MultiTableau(tuple(
            Tableau(part, sign, tuple(tuple(row) for row in rows))
            for (part, sign), rows in zip(shape.pieces, op["label"])
        ))

        def call():
            delta_exp, verma = characters.simple_character(label, window)
            return {
                "delta": [[bases.tableau_json(g), c] for g, c in delta_exp.items()],
                "verma": verma.to_json(),
            }

        return call
    raise ValueError(f"unknown op function {fn!r}")


# ---------------------------------------------------------------------------
# Checks on the serialized output.  They use no library code, so a traced
# sweep counts only the ops themselves.
# ---------------------------------------------------------------------------


def _lab(x) -> str:
    return json.dumps(x, separators=(",", ":"))


def _by_label(order, entries):
    return sorted([_lab(order[i]), _lab(order[j]), v] for i, j, v in entries)


def canonical_form(op: dict, out: dict) -> dict:
    """The op's output with block positions replaced by tableau labels, so
    that a valid re-ordering of a block leaves it unchanged."""
    fn = op["fn"]
    if fn in ("dcb_S", "dcb_T"):
        order = out["order"]
        return {
            "space": out["space"],
            "labels": sorted(_lab(t) for t in order),
            "bar": _by_label(order, out["bar"]),
            "canonical": _by_label(order, out["canonical"]),
        }
    if fn == "decomposition_matrix":
        order = out["order"]
        return {
            "weight": out["weight"],
            "labels": sorted(_lab(t) for t in order),
            "L_in_Delta": _by_label(order, out["L_in_Delta"]),
            "Delta_in_L": _by_label(order, out["Delta_in_L"]),
        }
    return {
        "delta": sorted([_lab(g), c] for g, c in out["delta"]),
        "verma": sorted([_lab(t["tableau"]), t["coeff"]] for t in out["verma"]["terms"]),
    }


def digest(form: dict) -> str:
    text = json.dumps(form, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


_ONE = [[0, "1"]]


def _unitriangular(form_entries, labels) -> bool:
    """Unit diagonal; every off-diagonal coefficient in q^-1 Z[q^-1]."""
    diag = {}
    for gi, gj, coeff in form_entries:
        if gi == gj:
            diag[gi] = coeff
        elif any(e > -1 for e, _ in coeff):
            return False
    return all(diag.get(t) == _ONE for t in labels)


def invariants_hold(op: dict, form: dict) -> bool:
    """The checks an op must pass when it has no reference digest, i.e. when
    it raised at the reference commit and succeeds now."""
    fn = op["fn"]
    if fn in ("dcb_S", "dcb_T"):
        return _unitriangular(form["canonical"], form["labels"])
    if fn == "decomposition_matrix":
        mults = form["Delta_in_L"]
        diag = {gi: v for gi, gj, v in mults if gi == gj}
        return (
            _unitriangular(form["L_in_Delta"], form["labels"])
            and all(isinstance(v, int) and v >= 0 for _, _, v in mults)
            and all(diag.get(t) == 1 for t in form["labels"])
        )
    own = _lab(op["label"])
    return dict(form["delta"]).get(own) == 1
