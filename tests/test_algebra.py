import pytest

from quiverhom.algebra import BoundQuiverAlgebra, circular_quiver, nakayama_algebra
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
    with pytest.raises(ValueError, match=r"^need t >= 2, got 1$"):
        nakayama_algebra(1, 2)
    with pytest.raises(ValueError, match=r"^need n >= 1, got 0$"):
        nakayama_algebra(3, 0)


def test_the_algebra_is_the_circular_nakayama_algebra():
    a = BoundQuiverAlgebra(3, 2, GF(7))
    assert repr(a) == "NakayamaAlgebra(t=3, n=2, p=7)" and repr(nakayama_algebra(3, 2)).endswith("p=101)")
    assert (a.t, a.n, a.r, a.nilpotency, a.period_bound, a.is_symmetric) == (3, 2, 2, 3, 6, False)
    assert a.quiver.arrows == circular_quiver(3).arrows


def test_one_basis_path_per_vertex_and_length():
    # The walk from v has one entry of each length 0..n + 1, and the length-L one ends at v + L (mod t).
    for t, n in [(2, 1), (3, 2), (4, 4), (5, 3)]:
        a = nakayama_algebra(t, n)
        for v in range(1, t + 1):
            entries, levels = a.walk(v)
            assert levels == tuple(range(n + 3))
            assert [end for _, _, end in entries] == [(v - 1 + length) % t + 1 for length in range(n + 2)]


def test_configurable_field():
    a = nakayama_algebra(3, 2, GF(2))
    assert a.field.p == 2
    assert nakayama_algebra(3, 2).field.p == 101
