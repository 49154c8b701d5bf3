"""Closed-form Ext and stable Hom between uniserials over kG/J^{n+1}.

An independent reference for the ext_queries workload; it imports
nothing from quiverhom.  M(i, l) is the uniserial module with top vertex
i (1-based, read mod t) and length l, 1 <= l <= n for non-projectives.

    Omega M(i, l) = M(i + l, n + 1 - l)
    dim stHom(M(i, a), M(j, b)) = #{c : max(1, a + b - n) <= c <= min(a, b),
                                        c = j + b - i (mod t)}
    Ext^k(M, N) = stHom(Omega^k M, N)   for k >= 1
"""

from __future__ import annotations


def wrap(t: int, v: int) -> int:
    return (v - 1) % t + 1


def syzygy(t: int, n: int, m: tuple[int, int]) -> tuple[int, int]:
    i, length = m
    return wrap(t, i + length), n + 1 - length


def stable_hom_dim(t: int, n: int, m: tuple[int, int], target: tuple[int, int]) -> int:
    (i, a), (j, b) = m, target
    return sum(1 for c in range(max(1, a + b - n), min(a, b) + 1) if (c - (j + b - i)) % t == 0)


def ext_dims(t: int, n: int, m: tuple[int, int], target: tuple[int, int], max_degree: int) -> list[int]:
    out = []
    for _ in range(max_degree):
        m = syzygy(t, n, m)
        out.append(stable_hom_dim(t, n, m, target))
    return out


def non_projective_uniserials(t: int, n: int) -> list[tuple[int, int]]:
    return [(i, length) for i in range(1, t + 1) for length in range(1, n + 1)]
