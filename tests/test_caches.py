import importlib
import pkgutil

import qchar
from qchar.characters import simple_character
from qchar.combinatorics import Partition, SignedMultiPartition, enumerate_tableaux


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


def test_the_memo_list_is_every_memo_and_each_is_bounded():
    # a function that only carries another memo's cache_info is not a memo
    assert set(qchar.MEMOS.values()) == set(memos().values())
    for name, memo in qchar.MEMOS.items():
        assert memo.cache_info().maxsize is not None, name


def test_clear_caches_empties_every_memo():
    shape = SignedMultiPartition(((Partition((2, 1)), "+"), (Partition((1,)), "-")))
    for mt in enumerate_tableaux(shape, "std", (1, 3)):
        try:
            simple_character(mt, (1, 3))
        except ValueError:  # the P defect raises on some blocks
            pass
    assert all(memo.cache_info().currsize for memo in qchar.MEMOS.values())
    qchar.clear_caches()
    assert not any(memo.cache_info().currsize for memo in qchar.MEMOS.values())
