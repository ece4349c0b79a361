import importlib
import pkgutil

import qchar


def memos():
    """Every memoized function bound in a qchar module or on one of its
    classes, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(qchar.__path__):
        mod = importlib.import_module(f"qchar.{info.name}")
        scopes = [vars(mod)] + [vars(v) for v in vars(mod).values() if isinstance(v, type)]
        for scope in scopes:
            for v in scope.values():
                if hasattr(v, "cache_info"):
                    found[f"{v.__module__}.{v.__qualname__}"] = v
    return found


def test_every_memo_is_bounded_and_clearable():
    found = memos()
    assert {
        "qchar.combinatorics.enumerate_tableaux",
        "qchar.combinatorics.multi_tableau_from_row_reading",
        "qchar.combinatorics.row_normal_form",
        "qchar.characters.expand_standard",
        "qchar.characters._solved_block",
        "qchar.tensor_space.zeta_constants",
        "qchar.tensor_space._psi_monomial",
    } <= set(found)
    for name, fn in found.items():
        assert fn.cache_info().maxsize is not None, name
        assert callable(fn.cache_clear), name
