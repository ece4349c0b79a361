"""Per-layer tracing for the qchar benchmark, installed from outside the
library.

`Tracer.installed()` wraps public library functions at every module binding
(`bases`, `characters` and `cli` import names directly, so patching only the
defining module would miss calls) and restores the originals on exit.

Three kinds of wrapper:

* span  -- records (id, name, start, end, parent id, op id) in memory and
  adds the call's duration to its parent's child time, so self time is the
  duration minus what child spans and Laurent operators cover;
* leaf  -- `LaurentPoly` operators, over a million calls per sweep: counted
  and timed in aggregate, not kept as individual spans;
* count -- calls only (`exact_divide`, `antisym_solve`), whose time stays with
  the calling span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import sys
from time import perf_counter

SPAN, LEAF, COUNT = "span", "leaf", "count"


def _len_result(args, result):
    return len(result)


def _len_first(args, result):
    return len(args[0])


def _len_coeffs(args, result):
    return len(args[0].coeffs)


def _len_order_arg(args, result):
    return len(args[0].order)


def _len_order_result(args, result):
    return len(result.order)


def _len_block_result(args, result):
    return len(result[0])


def _block_key(args):
    shape, window, mu = args[:3]
    return (str(shape), tuple(window), tuple(sorted(mu.items())))


# (module, attribute, stat name, kind, count function, distinct-key function).
# Several attributes may share one stat name.
TARGETS = [
    ("qchar.laurent", "LaurentPoly.__mul__", "laurent.mul", LEAF, None, None),
    ("qchar.laurent", "LaurentPoly.__add__", "laurent.add", LEAF, None, None),
    ("qchar.laurent", "LaurentPoly.__sub__", "laurent.add", LEAF, None, None),
    ("qchar.laurent", "LaurentPoly.__neg__", "laurent.neg", LEAF, None, None),
    ("qchar.laurent", "exact_divide", "laurent.exact_divide", COUNT, None, None),
    ("qchar.laurent", "antisym_solve", "laurent.antisym_solve", COUNT, None, None),
    ("qchar.combinatorics", "enumerate_tableaux", "combinatorics.enumerate_tableaux", SPAN, _len_result, None),
    ("qchar.tensor_space", "linear_extension", "tensor_space.linear_extension", SPAN, _len_first, None),
    ("qchar.tensor_space", "weight_block", "tensor_space.weight_block", SPAN, None, None),
    ("qchar.tensor_space", "bar_involution", "tensor_space.bar_involution", SPAN, _len_coeffs, None),
    ("qchar.tensor_space", "symmetrize", "tensor_space.symmetrizers", SPAN, None, None),
    ("qchar.tensor_space", "antisymmetrize", "tensor_space.symmetrizers", SPAN, None, None),
    ("qchar.tensor_space", "hecke_act_word", "tensor_space.symmetrizers", SPAN, None, None),
    ("qchar.bases", "dcb_T", "bases.dcb_T", SPAN, None, None),
    ("qchar.bases", "dcb_S", "bases.dcb_S", SPAN, _len_order_result, None),
    ("qchar.bases", "bar_S", "bases.bar_S", SPAN, None, None),
    ("qchar.bases", "dcb_solve", "bases.dcb_solve", SPAN, _len_order_arg, None),
    ("qchar.bases", "straighten", "bases.straighten", SPAN, None, None),
    ("qchar.bases", "delta_block", "bases.delta_block", SPAN, _len_block_result, None),
    ("qchar.bases", "delta", "bases.delta", SPAN, None, None),
    ("qchar.bases", "delta_coords", "bases.delta_coords", SPAN, None, None),
    ("qchar.bases", "dcb_P", "bases.dcb_P", SPAN, None, _block_key),
    ("qchar.bases", "TriangularBlock.to_json", "bases.to_json", SPAN, None, None),
    ("qchar.characters", "decomposition_matrix", "characters.decomposition_matrix", SPAN, None, None),
    ("qchar.characters", "simple_character", "characters.simple_character", SPAN, None, None),
    ("qchar.characters", "expand_standard", "characters.expand_standard", SPAN, None, None),
    ("qchar.characters", "DecompositionTable.to_json", "characters.to_json", SPAN, None, None),
    ("qchar.characters", "VermaSum.to_json", "characters.to_json", SPAN, None, None),
]


class Tracer:
    """Holds the stats and spans of one traced sweep."""

    def __init__(self):
        # name -> [calls, self seconds, count]; a target the library no longer
        # has keeps zeros
        self.stats = {t[2]: [0, 0.0, 0] for t in TARGETS}
        self.distinct = {t[2]: set() for t in TARGETS if t[5]}
        self.spans: list[tuple] = []
        self.op = None  # id of the op in progress, stamped on every span
        self._stack = [[-1, 0.0]]  # frames of [span id, child seconds]; root first
        self._ids = itertools.count()

    def wrap(self, name, kind, fn, count=None, key=None):
        stat = self.stats[name]
        stack = self._stack
        if kind == COUNT:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
        elif kind == LEAF:
            def wrapper(*args):
                start = perf_counter()
                result = fn(*args)
                elapsed = perf_counter() - start
                stack[-1][1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                return result
        else:
            spans, ids, tracer = self.spans, self._ids, self
            keys = self.distinct.get(name)

            def wrapper(*args, **kwargs):
                frame = [next(ids), 0.0]
                parent = stack[-1][0]
                stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    stack[-1][1] += end - start
                    stat[0] += 1
                    stat[1] += end - start - frame[1]
                    spans.append((frame[0], name, start, end, parent, tracer.op))
                    if key:
                        keys.add(key(args))
                if count:
                    stat[2] += count(args, result)
                return result
        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper at every binding; restore them on exit."""
        undo = []
        try:
            for module, attr, name, kind, count, key in TARGETS:
                owner = importlib.import_module(module)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:  # a method: patch the class, under every alias
                    owner = getattr(owner, cls_name)
                    scopes = [owner]
                else:
                    scopes = _qchar_modules()
                original = vars(owner).get(method)
                if original is None:  # gone from the library: its stats stay 0
                    continue
                places = [(obj, a) for obj in scopes for a, v in list(vars(obj).items()) if v is original]
                wrapper = self.wrap(name, kind, original, count, key)
                for obj, a in places:
                    setattr(obj, a, wrapper)
                    undo.append((obj, a, original))
            yield self
        finally:
            for obj, a, original in reversed(undo):
                setattr(obj, a, original)

    def metrics(self) -> dict[str, float]:
        """Flat `<module>.<function>.<calls|self_s|count>` numbers plus the
        derived ratios the benchmark reports."""
        out: dict[str, float] = {}
        for name, (calls, self_s, count) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.count"] = count
        out["laurent.ops.self_s"] = sum(
            self.stats[n][1] for n in ("laurent.mul", "laurent.add", "laurent.neg")
        )
        tableaux = self.stats["combinatorics.enumerate_tableaux"][2]
        labels = self.stats["bases.dcb_S"][2] + self.stats["bases.delta_block"][2]
        out["combinatorics.label_yield"] = labels / tableaux if tableaux else 0.0
        blocks = len(self.distinct["bases.dcb_P"])
        out["bases.dcb_P.reuse"] = self.stats["bases.dcb_P"][0] / blocks if blocks else 0.0
        return out


def _qchar_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "qchar" or name.startswith("qchar."))
    ]
