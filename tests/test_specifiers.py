import numpy as np
import pytest

import quiverhom.specifiers as specifiers
from quiverhom.algebra import nakayama_algebra
from quiverhom.homology import minimal_resolution
from quiverhom.modules import decompose_serial
from quiverhom.specifiers import MAX_DEGREE, SpecifierError, parse_module_spec


@pytest.fixture(scope="module")
def a32():
    return nakayama_algebra(3, 2)


def test_parse_simple(a32):
    m = parse_module_spec(a32, "simple:2")
    assert m.dims == (0, 1, 0)


def test_parse_projective(a32):
    assert parse_module_spec(a32, "projective:1").dims == (1, 1, 1)


def test_parse_uniserial(a32):
    m = parse_module_spec(a32, "uniserial:2:2")
    assert decompose_serial(m) == [(2, 2)]


def test_parse_syzygy_recursive(a32):
    m = parse_module_spec(a32, "syzygy:1:simple:1")
    assert decompose_serial(m) == [(2, 2)]
    m2 = parse_module_spec(a32, "syzygy:2:simple:1")
    assert decompose_serial(m2) == [(1, 1)]
    assert m2.name == "syzygy:2:simple:1"


def test_syzygy_spec_returns_a_copy_and_renames_nothing(a32, monkeypatch):
    seen = []

    def capture(module, k):
        seen.append(minimal_resolution(module, k))
        return seen[-1]

    monkeypatch.setattr(specifiers, "minimal_resolution", capture)
    m = parse_module_spec(a32, "syzygy:2:uniserial:1:2")
    inner = seen[0].syzygy(2)
    assert m is not inner and m.name == "syzygy:2:uniserial:1:2"
    assert m.dims == inner.dims
    assert all(np.array_equal(x, y) for x, y in zip(m.arrow_maps, inner.arrow_maps, strict=True))


@pytest.mark.parametrize(
    "bad",
    [
        "simple",
        "simple:",
        "simple:x",
        "simple: 1",
        "uniserial:1",
        "syzygy:2",
        "module:1",
        "projective:9",
        "uniserial:1:99",
        "simple:1 ",
        "simple:३",
        "syzygy:١:simple:1",
        "uniserial:1:٢",
        "simple:²",
    ],
)
def test_bad_specifiers_rejected(a32, bad):
    with pytest.raises(SpecifierError):
        parse_module_spec(a32, bad)


def test_error_names_grammar(a32):
    with pytest.raises(SpecifierError, match="grammar"):
        parse_module_spec(a32, "nope:1")


def test_syzygy_count_is_accepted_at_its_bound_and_rejected_above_before_resolving(a32, monkeypatch):
    at_bound = f"syzygy:{MAX_DEGREE}:simple:1"
    assert parse_module_spec(a32, at_bound).name == at_bound

    def no_resolution(*args):
        raise AssertionError("a resolution was built")

    monkeypatch.setattr(specifiers, "minimal_resolution", no_resolution)
    for text in (
        f"syzygy:{MAX_DEGREE + 1}:simple:1",
        f"syzygy:{MAX_DEGREE}:syzygy:1:simple:1",
        "syzygy:1:" * (MAX_DEGREE + 1) + "simple:1",
        "syzygy:400000:simple:1",
    ):
        with pytest.raises(SpecifierError, match=f"sum to more than {MAX_DEGREE}"):
            parse_module_spec(a32, text)


def test_nested_syzygy_prefixes_compose(a32):
    nested = parse_module_spec(a32, "syzygy:1:syzygy:2:uniserial:1:2")
    flat = parse_module_spec(a32, "syzygy:3:uniserial:1:2")
    assert nested.name == "syzygy:1:syzygy:2:uniserial:1:2"
    assert nested.content_key() == flat.content_key()


def test_a_syzygy_count_of_zero_is_the_module_itself(a32):
    # Counts and vertices are non-negative integers in ASCII digits; a range may then refuse 0 (a vertex
    # is 1..t), but syzygy:0: names the module itself.
    m, s1 = parse_module_spec(a32, "syzygy:0:simple:1"), parse_module_spec(a32, "simple:1")
    assert m.name == "syzygy:0:simple:1" and m.content_key() == s1.content_key()
    assert parse_module_spec(a32, "syzygy:00:syzygy:0:simple:1").content_key() == s1.content_key()
    with pytest.raises(SpecifierError, match="syzygy count must be a non-negative integer in ASCII digits, got '-1'"):
        parse_module_spec(a32, "syzygy:-1:simple:1")
    with pytest.raises(SpecifierError, match=r"vertex 0 outside \[1,3\]"):
        parse_module_spec(a32, "simple:0")
