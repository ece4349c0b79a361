"""Exact computation of standard and dual canonical bases on tensor modules,
and the character tables (decomposition matrices, simple-character and
standard-module expansions) they control.
"""

from . import bases, characters, combinatorics, tensor_space

__version__ = "0.1.0"

# Every memo the library keeps, by short name.  The entries are the bounded
# `functools.lru_cache` objects themselves, not names looked up later: a
# wrapper or a test's monkeypatch that rebinds a module name leaves the real
# memo listed and cleared here.  `MEMOS[name].cache_info()` gives its hits,
# misses, size and bound.
MEMOS = {
    "labels": combinatorics._label,
    "row_normal_forms": combinatorics.row_normal_form,
    "listings": combinatorics._tableaux,
    "monomials": tensor_space._monomials_by_weight,
    "psi": tensor_space._psi_monomial,
    "verma_expansions": characters.expand_standard,
    "blocks": bases._blocks,
}


def clear_caches() -> None:
    """Empty every memo of `MEMOS`, as a fresh process starts."""
    for memo in MEMOS.values():
        memo.cache_clear()
