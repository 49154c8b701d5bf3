"""Exact dense linear algebra over a prime field GF(p).

Matrices are numpy int64 arrays with all entries reduced modulo p.
Everything here is integer arithmetic; there is no floating point and
no tolerance anywhere.  Elimination (rref, rank, kernels, solves and
inverses) runs on lists of Python ints, which cannot overflow: arrays
go in and come out.  The intertwining Hom system is assembled on
Python ints too.  GF.matmul is the one place where int64 products are
reduced, also over the zero-padded stacks of the batched intertwining
check, and it raises ValueError for an inner dimension past the bound
that keeps them exact.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GF", "is_prime"]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class GF:
    """The prime field GF(p) together with its dense matrix routines.

    All methods are pure: inputs are never mutated, outputs are fresh
    arrays, so field objects are safe to share across concurrent tasks.
    """

    # int64 accumulation in a matrix product is exact while
    # inner * (p-1)^2 <= 2^63 - 1, which matmul enforces; under this cap
    # the inner dimension may reach 8,388,672 (p = 1048573).
    MAX_CHARACTERISTIC = 2**20

    def __init__(self, p: int):
        if p > self.MAX_CHARACTERISTIC:  # before the primality test, whose trial division grows with sqrt(p)
            raise ValueError(
                f"characteristic {p} exceeds exact-arithmetic bound {self.MAX_CHARACTERISTIC}"
            )
        if not is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        self.p = p
        self._max_inner = (2**63 - 1) // (p - 1) ** 2

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"

    # -- construction -------------------------------------------------

    def mat(self, rows) -> np.ndarray:
        m = np.asarray(rows, dtype=np.int64)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        return m % self.p

    def vec(self, entries) -> np.ndarray:
        return np.asarray(entries, dtype=np.int64).reshape(-1) % self.p

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n, dtype=np.int64)

    # -- arithmetic ----------------------------------------------------

    def inv_scalar(self, x: int) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(x, self.p - 2, self.p)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if a.shape[-1] > self._max_inner:  # past it, int64 accumulation could overflow
            raise ValueError(f"{a.shape} @ {b.shape} over GF({self.p}): inner dimension above {self._max_inner}")
        return (a @ b) % self.p

    def _echelon(self, m: np.ndarray) -> tuple[list[list[int]], list[int]]:
        """Gauss-Jordan reduction of m on Python ints: its RREF rows and the pivot columns.

        Each pivot row is the first nonzero row at or below the current lead,
        scaled to a leading 1; only the other rows with a nonzero entry in the
        pivot column are touched when it is eliminated.
        """
        p = self.p
        m = np.asarray(m, dtype=np.int64)
        rows, cols = m.shape
        r = (m % p).tolist()
        pivots: list[int] = []
        lead = 0
        for c in range(cols):
            if lead == rows:
                break
            for k in range(lead, rows):
                if r[k][c]:
                    break
            else:
                continue
            row, r[k] = r[k], r[lead]
            if row[c] != 1:
                s = self.inv_scalar(row[c])
                row = [x * s % p for x in row]
            r[lead] = row
            for i, other in enumerate(r):
                x = other[c]
                if x and i != lead:
                    r[i] = [(y - x * z) % p for y, z in zip(other, row)]
            pivots.append(c)
            lead += 1
        return r, pivots

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and the ordered pivot column indices."""
        r, pivots = self._echelon(m)
        return np.array(r, dtype=np.int64).reshape(np.shape(m)), pivots

    def rank(self, m: np.ndarray) -> int:
        return len(self._echelon(m)[1])

    def kernel_basis(self, m: np.ndarray) -> list[np.ndarray]:
        """Basis of the right kernel {v : m @ v = 0}, one vector per free column."""
        return list(self.kernel_matrix(m).T)

    def kernel_matrix(self, m: np.ndarray) -> np.ndarray:
        """Kernel basis packed as columns, one per free column of the RREF; shape (cols, dim ker)."""
        return self._kernel_free(m)[0]

    def _kernel_free(self, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
        """kernel_matrix(m) and the free columns of the RREF, in order: its rows there are the identity."""
        cols = m.shape[1]
        r, pivots = self._echelon(m)
        free = sorted(set(range(cols)).difference(pivots))
        out = [[0] * len(free) for _ in range(cols)]
        for j, c in enumerate(free):
            out[c][j] = 1
        for row, c in zip(r, pivots):
            out[c] = [-row[f] % self.p for f in free]
        return np.array(out, dtype=np.int64).reshape(cols, len(free)), free

    def solve(self, m: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Some x with m @ x = b, or None when the system is inconsistent."""
        b = np.asarray(b, dtype=np.int64).reshape(-1) % self.p
        if b.shape[0] != m.shape[0]:
            raise ValueError(
                f"dimension mismatch: matrix has {m.shape[0]} rows, vector has {b.shape[0]}"
            )
        x = self.solve_matrix(m, b.reshape(-1, 1))
        return None if x is None else x[:, 0]

    def solve_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
        """Some X with a @ X = b (columnwise), or None if any column is inconsistent."""
        if b.shape[0] != a.shape[0]:
            raise ValueError(
                f"dimension mismatch: {a.shape[0]} rows vs {b.shape[0]} rows"
            )
        cols, width = a.shape[1], b.shape[1]
        r, pivots = self._echelon(np.hstack([a, b]))
        if any(p >= cols for p in pivots):
            return None
        x = [[0] * width for _ in range(cols)]
        for row, c in zip(r, pivots):
            x[c] = row[cols:]
        return np.array(x, dtype=np.int64).reshape(cols, width)

    def inverse(self, m: np.ndarray) -> np.ndarray | None:
        """Inverse of a square matrix, or None when singular."""
        n = m.shape[0]
        if m.shape[1] != n:
            raise ValueError(f"inverse of non-square matrix {m.shape}")
        r, pivots = self._echelon(np.hstack([m, self.eye(n)]))
        if pivots != list(range(n)):
            return None
        return np.array([row[n:] for row in r], dtype=np.int64).reshape(n, n)

    def is_invertible(self, m: np.ndarray) -> bool:
        return m.shape[0] == m.shape[1] and self.rank(m) == m.shape[0]
