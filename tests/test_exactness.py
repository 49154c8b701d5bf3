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


def _declared_in_init(tree: ast.Module, cls: str) -> set[str]:
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    init = next(n for n in body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    return {
        t.attr
        for node in ast.walk(init)
        for t in (node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)])
        if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
    }


def _algebra_state(alg) -> dict:
    return {k: (id(v), len(v) if hasattr(v, "__len__") else None) for k, v in vars(alg).items()}


def test_algebra_memos_are_declared_in_init_and_start_empty():
    from quiverhom.algebra import nakayama_algebra
    from quiverhom.homology import detect_period, ext_dims, stable_hom_dim
    from quiverhom.koszul import build_periodicity_tower
    from quiverhom.modules import decompose_serial, uniserial

    algebra_py = Path(quiverhom.__file__).parent / "algebra.py"
    declared = _declared_in_init(ast.parse(algebra_py.read_text(encoding="utf-8")), "BoundQuiverAlgebra")
    fresh = vars(nakayama_algebra(3, 2))
    # A memo starts empty; the walk and the relation paths and arrays are filled in __init__.
    memos = {k for k, v in fresh.items() if k.startswith("_") and not (len(v) if hasattr(v, "__len__") else v)}
    alg = nakayama_algebra(3, 2)
    before = _algebra_state(alg)
    mods = [uniserial(alg, i, length) for i in range(1, 4) for length in range(1, 4)]
    for m in mods:
        build_periodicity_tower(m)
        for n in mods:
            ext_dims(m, n, 4)
            stable_hom_dim(m, n)
    detect_period(mods[0])
    decompose_serial(mods[0])
    after = _algebra_state(alg)
    # Every attribute, memos included, is declared in __init__; the work grows
    # exactly the attributes that a fresh algebra holds empty.
    assert set(fresh) == set(after) == declared
    assert {k for k in after if after[k] != before[k]} == memos
    assert {"_resolution_steps", "_serial_summands", "_hom_complex_ranks", "_hom_kernels"} <= memos


NAMED_ACCESS = {"getattr", "setattr", "hasattr", "delattr"}


def test_no_memo_is_reached_by_attribute_name():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) in NAMED_ACCESS):
                continue
            obj, name = node.args[0], node.args[1]
            assert not (isinstance(name, ast.Constant) and str(name.value).startswith("_")), ast.unparse(node)
            assert "alg" not in ast.unparse(obj), f"{path.name}: {ast.unparse(node)}"


def test_library_multiplies_matrices_only_through_gf_matmul():
    # GF.matmul is where a product is reduced mod p, so no file but linalg.py writes an inline `a @ b % p`.
    products = [
        f"{path.name}: {ast.unparse(node)}"
        for path in SOURCES
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    ]
    assert not products, products


def _is_two_times_t(node: ast.AST) -> bool:
    sides = (node.left, node.right) if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) else ()
    return any(isinstance(x, ast.Constant) and x.value == 2 for x in sides) and any(
        getattr(x, "id", None) == "t" or getattr(x, "attr", None) == "t" for x in sides
    )


def test_only_algebra_py_states_the_period_bound():
    # 2t is the family's Omega-period bound; every other file reads algebra.period_bound.
    products = [
        f"{path.name}: {ast.unparse(node)}"
        for path in SOURCES
        if path.name != "algebra.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _is_two_times_t(node)
    ]
    assert not products, products
