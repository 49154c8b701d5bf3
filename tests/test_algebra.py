import itertools

import pytest

from quiverhom.algebra import ZeroProduct, circular_quiver, nakayama_algebra
from quiverhom.linalg import GF


def test_circular_quiver_smallest():
    q = circular_quiver(2)
    assert q.vertex_count == 2
    assert q.arrows == ((1, 2), (2, 1))


def test_circular_quiver_three():
    q = circular_quiver(3)
    assert q.arrows == ((1, 2), (2, 3), (3, 1))


def test_circular_quiver_degrees():
    q = circular_quiver(5)
    assert len(q.arrows) == 5
    for v in range(1, 6):
        assert len(q.arrows_from[v]) == 1
        assert len(q.arrows_into[v]) == 1


def test_circular_quiver_rejects_small_t():
    with pytest.raises(ValueError):
        circular_quiver(1)


@pytest.mark.parametrize("t,n,dim", [(3, 2, 9), (2, 1, 4), (4, 4, 20), (6, 8, 54)])
def test_nakayama_dimension(t, n, dim):
    assert nakayama_algebra(t, n).dimension == dim
    assert nakayama_algebra(t, n).dimension == t * (n + 1)


def test_nakayama_metadata():
    a = nakayama_algebra(4, 4)
    assert a.r == 0
    assert a.is_symmetric
    b = nakayama_algebra(3, 2)
    assert b.r == 2
    assert not b.is_symmetric


def test_nakayama_rejects_bad_parameters():
    with pytest.raises(ValueError):
        nakayama_algebra(1, 2)
    with pytest.raises(ValueError):
        nakayama_algebra(3, 0)


def test_one_basis_path_per_vertex_and_length():
    for t, n in [(2, 1), (3, 2), (4, 4), (5, 3)]:
        a = nakayama_algebra(t, n)
        for v in range(1, t + 1):
            lengths = sorted(p.length for p in a.paths_from(v))
            assert lengths == list(range(n + 1))


def test_multiply_idempotent_acts_as_identity():
    a = nakayama_algebra(3, 2)
    e1 = a.quiver.trivial_path(1)
    alpha1 = a.quiver.make_path(1, [0])
    assert a.multiply(e1, alpha1) == alpha1


def test_multiply_composition_and_truncation():
    a = nakayama_algebra(3, 2)
    alpha1 = a.quiver.make_path(1, [0])
    alpha2 = a.quiver.make_path(2, [1])
    alpha3 = a.quiver.make_path(3, [2])
    prod = a.multiply(alpha1, alpha2)
    assert prod.start == 1 and prod.end == 3 and prod.length == 2
    assert a.multiply(prod, alpha3) is ZeroProduct.TRUNCATED
    assert a.multiply(alpha1, alpha3) is ZeroProduct.NON_COMPOSABLE


def test_multiply_rejects_non_basis_paths():
    a = nakayama_algebra(3, 2)
    long_path = a.quiver.make_path(1, [0, 1, 2])
    with pytest.raises(ValueError):
        a.multiply(long_path, a.quiver.trivial_path(1))


@pytest.mark.parametrize("t,n", [(2, 1), (3, 2)])
def test_multiplication_associative_exhaustively(t, n):
    a = nakayama_algebra(t, n)

    def value(x):
        return None if isinstance(x, ZeroProduct) else x

    def mul(x, y):
        if x is None or y is None:
            return None
        return value(a.multiply(x, y))

    for p, q, r in itertools.product(a.path_basis, repeat=3):
        left = mul(value(a.multiply(p, q)), r)
        right = mul(p, value(a.multiply(q, r)))
        assert left == right


def test_unique_path_lookup():
    a = nakayama_algebra(4, 4)
    p = a.unique_path(2, 3)
    assert p.start == 2 and p.length == 3 and p.end == 1
    with pytest.raises(ValueError):
        a.unique_path(1, 9)


def test_unique_path_matches_the_path_basis():
    for t in range(2, 7):
        for n in range(1, 9):
            a = nakayama_algebra(t, n)
            for v in range(1, t + 1):
                for length in range(n + 1):
                    (want,) = [p for p in a.path_basis if p.start == v and p.length == length]
                    assert a.unique_path(v, length) == want
            for v, length in [(0, 0), (t + 1, 1), (1, -1), (1, n + 1)]:
                with pytest.raises(ValueError):
                    a.unique_path(v, length)


def test_configurable_field():
    a = nakayama_algebra(3, 2, GF(2))
    assert a.field.p == 2
    assert nakayama_algebra(3, 2).field.p == 101
