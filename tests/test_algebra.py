import pytest

from quiverhom.algebra import circular_quiver, nakayama_algebra
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


def test_configurable_field():
    a = nakayama_algebra(3, 2, GF(2))
    assert a.field.p == 2
    assert nakayama_algebra(3, 2).field.p == 101
