"""The library computes exactly: no floating point, no randomized search.

The only randomness allowed is the seeded ``random.Random`` sampler that
picks the gap-suite uniserial pairs in ``vanishing.py``.
"""

import ast
import re
from pathlib import Path

import quiverhom

SOURCES = sorted(Path(quiverhom.__file__).parent.glob("*.py"))
FORBIDDEN = ("np.random", "default_rng", "import math", "float(", "itertools")


def test_library_has_no_inexact_or_randomized_code():
    assert SOURCES
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for token in FORBIDDEN:
            assert token not in text, f"{path.name} contains {token!r}"
        uses = set(re.findall(r"\brandom\.\w+", text))
        if path.name == "vanishing.py":
            assert uses == {"random.Random"}, uses
        else:
            assert not uses and "import random" not in text, f"{path.name} uses random"


# Memos live on algebra objects, so a new algebra starts empty and repeated
# runs over new algebras do the same work; a process-wide cache would not.
DICT_FACTORIES = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary"}


def _module_level_memos(tree: ast.Module) -> list[str]:
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        callee = value.func if isinstance(value, ast.Call) else None
        factory = getattr(callee, "id", None) or getattr(callee, "attr", None)
        if (
            (isinstance(value, ast.Dict) and not value.keys)
            or factory in DICT_FACTORIES
            or any(re.search("cache|memo", name, re.IGNORECASE) for name in names)
        ):
            found.extend(names)
    return found


def test_library_keeps_no_process_wide_cache():
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        for token in ("lru_cache", "functools.cache"):
            assert token not in text, f"{path.name} contains {token!r}"
        tree = ast.parse(text)
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
        }
        assert not imported & {"cache", "lru_cache"}, f"{path.name} imports {imported}"
        memos = _module_level_memos(tree)
        assert not memos, f"{path.name} has module-level memos {memos}"
