"""Window stability: a finite window is a truncation of the completed module,
so the dual canonical coefficients among labels inside a window must not
change when the window grows (Brundan, JAMS 16 (2003); Cheng-Lam-Wang, Duke
Math. J. 2008)."""

from qchar.bases import block_weights, dcb_S, dcb_T
from qchar.combinatorics import Partition, SignedMultiPartition
from qchar.tensor_space import weight_keys

WINDOW = (1, 3)


def inside(entries):
    return all(WINDOW[0] <= x <= WINDOW[1] for x in entries)


def restricted(col, reading):
    """A canonical column restricted to labels whose entries lie in WINDOW."""
    return {g: c for g, c in col.items() if inside(reading(g))}


def test_tensor_blocks_are_window_stable():
    checked = 0
    for text in ("+-", "++-", "+-+", "-++", "++--"):
        signs = tuple(text)
        for key in sorted(weight_keys(signs, WINDOW)):
            mu = dict(key)
            small = dcb_T(signs, WINDOW, mu)
            for wide_window in ((0, 4), (1, 4)):
                wide = dcb_T(signs, wide_window, mu)
                for t in small.order:
                    assert restricted(wide.canon[t], lambda f: f) == small.canon[t], (
                        signs, wide_window, mu, t,
                    )
                    checked += 1
    assert checked == 342


def test_row_symmetric_blocks_are_window_stable():
    checked = 0
    for pieces in (
        (((2,), "+"), ((1,), "-")),
        (((1, 1), "+"), ((1,), "-")),
        (((2, 1), "+"), ((1,), "+")),
        (((1,), "+"), ((1,), "-"), ((1,), "+")),
        (((2,), "-"), ((1,), "+")),
    ):
        shape = SignedMultiPartition(tuple((Partition(p), s) for p, s in pieces))
        for key in block_weights(shape, WINDOW, "row"):
            mu = dict(key)
            small = dcb_S(shape, WINDOW, mu)
            wide = dcb_S(shape, (0, 4), mu)
            for t in small.order:
                assert restricted(wide.canon[t], lambda g: g.row_reading()) == small.canon[t], (
                    str(shape), mu, t,
                )
                checked += 1
    assert checked == 144
