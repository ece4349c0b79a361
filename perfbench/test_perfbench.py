"""Tests of the benchmark harness: tracing counts, tracing side effects, seed
handling, the correctness gate and the metric list in BENCHMARK.json."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Two one-box "+" pieces at window 1..2, weight {1:1, 2:1}: the block has the
# two labels (1)(2) < (2)(1); every tableau of the shape is Row and Std.
TINY = [("1:+ / 1:+", (1, 2))]
TINY_WEIGHT = [[1, 1], [2, 1]]


def tiny_op(fn):
    (op,) = [op for op in workloads.build_ops(fn, TINY) if op["weight"] == TINY_WEIGHT]
    return op


def traced(op):
    t = tracer.Tracer()
    with t.installed():
        workloads.prepare(op)()
    return t.metrics()


def test_dcb_S_counts_match_hand_count():
    m = traced(tiny_op("dcb_S"))
    assert m["combinatorics.enumerate_tableaux.calls"] == 1
    assert m["combinatorics.enumerate_tableaux.count"] == 4  # all Row tableaux
    assert m["combinatorics.label_yield"] == 2 / 4
    assert m["tensor_space.linear_extension.calls"] == 1
    assert m["tensor_space.linear_extension.count"] == 2
    # one bar_S per label, each one tensor bar of one monomial and one straighten
    assert m["bases.bar_S.calls"] == 2
    assert m["tensor_space.bar_involution.calls"] == 2
    assert m["tensor_space.bar_involution.count"] == 2
    assert m["bases.straighten.calls"] == 2
    assert (m["bases.dcb_solve.calls"], m["bases.dcb_solve.count"]) == (1, 2)
    # the lower label is bar-invariant; the upper needs one correction
    assert m["laurent.antisym_solve.calls"] == 1
    assert m["bases.to_json.calls"] == 1
    assert m["bases.delta.calls"] == m["bases.dcb_P.calls"] == 0


def test_decomposition_counts_match_hand_count():
    m = traced(tiny_op("decomposition_matrix"))
    assert m["characters.decomposition_matrix.calls"] == 1
    assert (m["bases.dcb_P.calls"], m["bases.dcb_P.reuse"]) == (1, 1.0)
    # Std labels for route (a) and Row labels for route (b)'s dcb_S
    assert m["combinatorics.enumerate_tableaux.calls"] == 2
    assert m["combinatorics.enumerate_tableaux.count"] == 8
    assert m["combinatorics.label_yield"] == 4 / 8
    assert m["bases.delta.calls"] == 2
    # kappa antisymmetrizes once per label; the braiding word acts per piece
    assert m["tensor_space.symmetrizers.calls"] == 2 + 2 * 2
    # route (a) bars each Delta, route (b)'s dcb_S bars each Pi
    assert m["bases.bar_S.calls"] == 4
    assert m["tensor_space.bar_involution.calls"] == 4
    # one per Delta, one per bar in route (a), one per bar in dcb_S
    assert m["bases.straighten.calls"] == 6
    # route (a) expands each bar image, route (b) each dcb_S element
    assert m["bases.delta_coords.calls"] == 4
    assert (m["bases.dcb_solve.calls"], m["bases.dcb_solve.count"]) == (2, 4)
    # Delta_A = Pi_A here, so each expansion divides once per nonzero pivot:
    # bar of the lower label has one, of the upper two; same for the canonical
    # elements of route (b).  These calls go through the `bases` binding.
    assert m["laurent.exact_divide.calls"] == 6
    assert m["laurent.antisym_solve.calls"] == 2
    assert m["characters.to_json.calls"] == 1


def bindings():
    """Identity of every attribute of every qchar module and of LaurentPoly."""
    from qchar.laurent import LaurentPoly

    snap = {("LaurentPoly", k): id(v) for k, v in vars(LaurentPoly).items()}
    for mod in tracer._qchar_modules():
        snap.update({(mod.__name__, k): id(v) for k, v in vars(mod).items()})
    return snap


def test_tracing_leaves_results_alone_and_uninstalls():
    ops = workloads.build_ops("decomposition_matrix", [("1,1:+ / 1:-", (1, 3))])
    before = bindings()
    plain = child.sweep(ops)
    t = tracer.Tracer()
    with t.installed():
        assert bindings() != before
        traced_records = child.sweep(ops, t)
    assert bindings() == before
    strip = [{k: v for k, v in r.items() if k not in ("s", "cal")} for r in plain]
    assert strip == [{k: v for k, v in r.items() if k not in ("s", "cal")} for r in traced_records]
    assert t.spans and all(span[5] is not None for span in t.spans)


def test_seeds_change_order_not_results():
    # Includes the P-defect block {2:1} of 1,1:+ / 1:- at 1..3.
    ops = workloads.build_ops("decomposition_matrix", [("1,1:+ / 1:-", (1, 3))])
    a, b = run.shuffled(ops, 1), run.shuffled(ops, 2)
    assert [op["key"] for op in a] != [op["key"] for op in b]
    assert run.shuffled(ops, 1) == a
    ra, rb = child.sweep(a), child.sweep(b)
    assert {(r["key"], r.get("digest")) for r in ra} == {(r["key"], r.get("digest")) for r in rb}
    assert sum("error" in r for r in ra) == sum("error" in r for r in rb) == 1


def test_gate():
    op = tiny_op("dcb_S")
    (good,) = child.sweep([op])
    assert good["invariants"]
    key = op["key"]
    assert run.check([op], [good], {key: {"digest": good["digest"]}}) == ([], [])
    problems, _ = run.check([op], [dict(good, digest="0")], {key: {"digest": good["digest"]}})
    assert problems and "mismatch" in problems[0]
    # raised at the reference, succeeds now: invariants decide
    assert run.check([op], [good], {key: {"error": "ValueError"}}) == ([], [])
    problems, _ = run.check([op], [dict(good, invariants=False)], {key: {"error": "ValueError"}})
    assert problems
    # raises now: always a recorded failure; a problem only if it had a result
    failed = {"key": key, "s": 0.0, "cal": 1.0, "error": "ValueError", "detail": "x"}
    problems, failures = run.check([op], [failed], {key: {"error": "ValueError"}})
    assert problems == [] and failures[0]["error"] == "ValueError"
    assert failures[0]["shape"] == "1:+ / 1:+" and failures[0]["weight"] == TINY_WEIGHT
    problems, _ = run.check([op], [failed], {key: {"digest": good["digest"]}})
    assert problems


def test_invariants_reject_a_broken_table():
    op = tiny_op("decomposition_matrix")
    out = workloads.prepare(op)()
    form = workloads.canonical_form(op, out)
    assert workloads.invariants_hold(op, form)
    i, j, _ = form["Delta_in_L"][0]
    broken = dict(form, Delta_in_L=[[i, j, -1]] + form["Delta_in_L"][1:])
    assert not workloads.invariants_hold(op, broken)


def test_digest_ignores_block_order():
    op = tiny_op("dcb_S")
    out = workloads.prepare(op)()
    n = len(out["order"])
    flip = lambda entries: [[n - 1 - i, n - 1 - j, c] for i, j, c in entries]  # noqa: E731
    reordered = dict(out, order=out["order"][::-1], bar=flip(out["bar"]), canonical=flip(out["canonical"]))
    same = workloads.digest(workloads.canonical_form(op, reordered))
    assert same == workloads.digest(workloads.canonical_form(op, out))


def test_benchmark_json_metrics_are_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    t = tracer.Tracer()
    with t.installed():
        pass
    produced = set(t.metrics()) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert {m["name"] for m in spec["workloads"]} == set(workloads.WORKLOADS)
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    for name, (fn, specs) in workloads.WORKLOADS.items():
        assert sorted(reference[name]) == [op["key"] for op in workloads.build_ops(fn, specs)]
