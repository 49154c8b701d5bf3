import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverhom.linalg import GF, is_prime


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)


def test_a_characteristic_above_the_bound_is_refused_before_the_primality_test():
    # 10**18 + 3 is prime; trial division would run up to 10**9.
    with pytest.raises(ValueError, match="exceeds exact-arithmetic bound 1048576"):
        GF(10**18 + 3)


def test_matmul_enforces_the_int64_exactness_bound():
    # Zero-stride operands: the inner dimension is large, but nothing large is allocated.
    f = GF(1048573)  # the largest prime <= GF.MAX_CHARACTERISTIC
    limit = (2**63 - 1) // (f.p - 1) ** 2
    assert limit == 8_388_672
    top = np.int64(f.p - 1)
    # At the bound the int64 sum limit * (p - 1)^2 is exact, and (p - 1)^2 = 1 mod p.
    at = f.matmul(np.broadcast_to(top, (1, limit)), np.broadcast_to(top, (limit, 1)))
    assert at.tolist() == [[limit % f.p]]
    for a, b in [((1, limit + 1), (limit + 1, 1)), ((2, 3, limit + 1), (limit + 1, 4)), ((limit + 1,), (limit + 1,))]:
        with pytest.raises(ValueError, match=r"GF\(1048573\): inner dimension above 8388672"):
            f.matmul(np.broadcast_to(top, a), np.broadcast_to(top, b))
    # Over GF(2) the bound is 2^63 - 1, so the same inner dimension passes.
    ones = np.broadcast_to(np.int64(1), (limit + 1,))
    assert GF(2).matmul(ones, ones) == (limit + 1) % 2


def test_rref_identity_fixed():
    f = GF(5)
    m = f.eye(2)
    r, pivots = f.rref(m)
    assert np.array_equal(r, m)
    assert pivots == [0, 1]


def test_rref_hand_reduction():
    f = GF(5)
    r, pivots = f.rref(f.mat([[2, 4], [1, 2]]))
    assert np.array_equal(r, f.mat([[1, 2], [0, 0]]))
    assert pivots == [0]


def test_rref_zero_matrix():
    f = GF(7)
    r, pivots = f.rref(f.zeros(3, 3))
    assert np.array_equal(r, f.zeros(3, 3))
    assert pivots == []


def test_kernel_of_identity_empty():
    f = GF(3)
    assert f.kernel_basis(f.eye(2)) == []


def test_kernel_forced_by_rank():
    f = GF(2)
    basis = f.kernel_basis(f.mat([[1, 1]]))
    assert len(basis) == 1
    assert np.array_equal(basis[0], np.array([1, 1]))


def test_kernel_verified_by_multiplication():
    f = GF(5)
    m = f.mat([[1, 2], [2, 4]])
    basis = f.kernel_basis(m)
    assert len(basis) == 1
    assert not np.any(f.matmul(m, basis[0].reshape(-1, 1)))


def test_solve_identity():
    f = GF(7)
    b = f.vec([3, 5])
    assert np.array_equal(f.solve(f.eye(2), b), b)


def test_solve_inconsistent():
    f = GF(7)
    assert f.solve(f.zeros(2, 2), f.vec([1, 0])) is None


def test_solve_back_substitution():
    f = GF(3)
    x = f.solve(f.mat([[1, 1], [0, 1]]), f.vec([2, 1]))
    assert np.array_equal(x, np.array([1, 1]))


def test_solve_dimension_mismatch_is_error():
    f = GF(3)
    with pytest.raises(ValueError):
        f.solve(f.zeros(2, 2), f.vec([1, 0, 0]))


def test_inverse_roundtrip():
    f = GF(101)
    m = f.mat([[2, 3], [1, 4]])
    inv = f.inverse(m)
    assert np.array_equal(f.matmul(m, inv), f.eye(2))
    assert f.inverse(f.mat([[1, 2], [2, 4]])) is None


small_prime = st.sampled_from([2, 3, 5, 101])
dims = st.integers(min_value=0, max_value=6)


@st.composite
def matrix_and_field(draw):
    p = draw(small_prime)
    rows, cols = draw(dims), draw(dims)
    entries = draw(
        st.lists(st.integers(min_value=0, max_value=p - 1), min_size=rows * cols, max_size=rows * cols)
    )
    return GF(p), np.array(entries, dtype=np.int64).reshape(rows, cols)


@given(matrix_and_field())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(mf):
    f, m = mf
    assert f.rank(m) + len(f.kernel_basis(m)) == m.shape[1]


@given(matrix_and_field())
@settings(max_examples=80, deadline=None)
def test_rref_idempotent(mf):
    f, m = mf
    r, pivots = f.rref(m)
    r2, pivots2 = f.rref(r)
    assert np.array_equal(r, r2)
    assert pivots == pivots2


@given(matrix_and_field(), st.data())
@settings(max_examples=80, deadline=None)
def test_solve_exact_on_consistent_systems(mf, data):
    f, m = mf
    x = np.array(
        data.draw(st.lists(st.integers(0, f.p - 1), min_size=m.shape[1], max_size=m.shape[1])),
        dtype=np.int64,
    )
    b = f.matmul(m, x.reshape(-1, 1))[:, 0] if m.shape[1] else np.zeros(m.shape[0], dtype=np.int64)
    got = f.solve(m, b)
    assert got is not None
    assert np.array_equal(f.matmul(m, got.reshape(-1, 1))[:, 0], b)


@given(matrix_and_field())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_are_independent_solutions(mf):
    f, m = mf
    basis = f.kernel_basis(m)
    for v in basis:
        assert not np.any(f.matmul(m, v.reshape(-1, 1)))
    if basis:
        stacked = np.column_stack(basis)
        assert f.rank(stacked) == len(basis)


def _numpy_rref(p: int, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reference Gauss-Jordan on int64 arrays: first nonzero row at or below the lead is the pivot row."""
    r = np.array(m, dtype=np.int64) % p
    rows, cols = r.shape
    pivots: list[int] = []
    lead = 0
    for c in range(cols):
        if lead >= rows:
            break
        nz = np.nonzero(r[lead:, c])[0]
        if nz.size == 0:
            continue
        k = lead + int(nz[0])
        if k != lead:
            r[[lead, k]] = r[[k, lead]]
        r[lead] = (r[lead] * pow(int(r[lead, c]), p - 2, p)) % p
        col = r[:, c].copy()
        col[lead] = 0
        r = (r - np.outer(col, r[lead])) % p
        pivots.append(c)
        lead += 1
    return r, pivots


# The largest prime below GF.MAX_CHARACTERISTIC is 1048573.
reference_prime = st.sampled_from([2, 3, 101, 1048573])


@st.composite
def sparse_or_dense(draw, rows, cols, p):
    if draw(st.booleans()):
        entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    else:
        entries = [0] * (rows * cols)
        if entries:
            for i in draw(st.sets(st.integers(0, rows * cols - 1), max_size=max(rows, cols))):
                entries[i] = draw(st.integers(1, p - 1))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def reference_case(draw):
    p = draw(reference_prime)
    rows, cols, width = draw(st.integers(0, 13)), draw(st.integers(0, 26)), draw(st.integers(0, 4))
    m = draw(sparse_or_dense(rows, cols, p))
    return GF(p), m, draw(sparse_or_dense(rows, width, p))


@given(reference_case())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_the_numpy_reference(case):
    f, m, b = case
    p = f.p
    rows, cols = m.shape
    want, want_pivots = _numpy_rref(p, m)
    got, pivots = f.rref(m)
    assert got.dtype == np.int64 and got.shape == m.shape
    assert np.array_equal(got, want) and pivots == want_pivots
    assert f.rank(m) == len(want_pivots)
    # Kernel: one column per free column f, with 1 at f and -r[i, f] at the i-th pivot.
    free = [c for c in range(cols) if c not in want_pivots]
    ker = np.zeros((cols, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        ker[c, j] = 1
        for i, pc in enumerate(want_pivots):
            ker[pc, j] = -want[i, c] % p
    got_ker = f.kernel_matrix(m)
    assert np.array_equal(got_ker, ker) and got_ker.shape == (cols, len(free))
    basis = f.kernel_basis(m)
    assert len(basis) == len(free) and all(np.array_equal(v, ker[:, j]) for j, v in enumerate(basis))
    # Solve: consistent iff no pivot of [m | b] lies in b; the pivot rows give X.
    aug, aug_pivots = _numpy_rref(p, np.hstack([m, b]))
    x = f.solve_matrix(m, b)
    if any(c >= cols for c in aug_pivots):
        assert x is None
    else:
        want_x = np.zeros((cols, b.shape[1]), dtype=np.int64)
        for i, c in enumerate(aug_pivots):
            want_x[c] = aug[i, cols:]
        assert np.array_equal(x, want_x) and x.shape == want_x.shape
    # Inverse of the leading square block, read from the reference RREF of [s | I].
    k = min(rows, cols)
    s = m[:k, :k]
    inv_ref, inv_pivots = _numpy_rref(p, np.hstack([s, np.eye(k, dtype=np.int64)]))
    inv = f.inverse(s)
    if inv_pivots != list(range(k)):
        assert inv is None
    else:
        assert np.array_equal(inv, inv_ref[:, k:]) and inv.shape == (k, k)
