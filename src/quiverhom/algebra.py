"""Quivers and the circular Nakayama algebras kΓ/J^{n+1}.

Vertices are 1-based everywhere.  A path lists its arrows in traversal
order: the path ``(a1, a2)`` starts at the source of ``a1`` and ends at
the target of ``a2``.  Multiplication ``p * q`` is "follow p, then q"
and is defined when ``p`` ends where ``q`` starts.
"""

from __future__ import annotations

import numpy as np

from .linalg import GF

DEFAULT_FIELD_P = 101


def _turn(x: tuple, k: int) -> tuple:
    """σ^k of a per-vertex or per-arrow tuple over the circular quiver: entry v moves to v + k."""
    return x[-k:] + x[:-k]


class Quiver:
    """A finite directed graph with an indexed, order-stable arrow list."""

    def __init__(self, vertex_count: int, arrows: list[tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError(f"vertex count must be >= 1, got {vertex_count}")
        self.vertex_count = vertex_count
        self.arrows = tuple((int(s), int(t)) for s, t in arrows)
        for idx, (s, t) in enumerate(self.arrows):
            if not (1 <= s <= vertex_count and 1 <= t <= vertex_count):
                raise ValueError(f"arrow {idx} endpoints ({s},{t}) outside [1,{vertex_count}]")
        # 0-based vertex indices of each arrow's endpoints, for indexing per-vertex stacks.
        self.arrow_sources = np.array([s - 1 for s, _ in self.arrows], dtype=np.intp)
        self.arrow_targets = np.array([t - 1 for _, t in self.arrows], dtype=np.intp)
        self.arrows_from = {v: [] for v in range(1, vertex_count + 1)}
        self.arrows_into = {v: [] for v in range(1, vertex_count + 1)}
        for idx, (s, t) in enumerate(self.arrows):
            self.arrows_from[s].append(idx)
            self.arrows_into[t].append(idx)

    def source(self, a: int) -> int:
        return self.arrows[a][0]

    def target(self, a: int) -> int:
        return self.arrows[a][1]


def circular_quiver(t: int) -> Quiver:
    """The cyclic quiver on t vertices with arrows i -> i+1 (mod t)."""
    if t < 2:
        raise ValueError(f"circular quiver needs t >= 2, got {t}")
    return Quiver(t, [(i, i % t + 1) for i in range(1, t + 1)])


class BoundQuiverAlgebra:
    """The circular Nakayama algebra kΓ/J^{n+1} on t vertices, with its paths walked once per start vertex.

    Γ is circular_quiver(t); the basis consists of all paths of length <= n, the relations of those of
    length n + 1.  The algebra is selfinjective, and symmetric exactly when t divides n.
    """

    def __init__(self, t: int, n: int, field: GF | None = None):
        if t < 2:
            raise ValueError(f"need t >= 2, got {t}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.quiver = circular_quiver(t)
        self.t = t
        self.n = n
        self.r = n % t
        self.nilpotency = n + 1
        self.is_symmetric = self.r == 0
        # Omega^2 M(i, l) = M(i+n+1, l), so Omega^{2t} fixes every non-projective
        # module and each syzygy period divides 2t.
        self.period_bound = 2 * t
        self.field = field if field is not None else GF(DEFAULT_FIELD_P)
        # The walk from v, _walks[v - 1] = (entries, levels): each path from v through length nilpotency as (parent
        # entry, last arrow, end vertex), e_v = (-1, -1, v) first, shortest first, lexicographic within a length (as
        # arrows_from ascends); levels[L] is the first entry of length L.  Basis paths precede levels[nilpotency].
        self._walks = tuple(self._walk(v) for v in range(1, t + 1))
        # The relation paths' arrows, by start vertex and in walk order; each row read back along its parents.
        self._relation_arrows = np.array(
            [self._arrows_of(entries, i) for entries, levels in self._walks for i in range(levels[-2], levels[-1])],
            dtype=np.intp,
        ).reshape(-1, self.nilpotency)
        self._relation_arrows.flags.writeable = False
        # Content ids, interned by _content_id: _contents[i] is the exact (dims, arrow bytes) of id i, and
        # _orbits[i] the ids of its turns σ^0 .. σ^{t-1} (a σ-fixed one repeats).
        self._ids: dict[tuple, int] = {}
        self._contents: list[tuple] = []
        self._orbits: list[tuple[int, ...]] = []
        # Memos, filled on first use; those keyed by content ids (QuiverModule.content_key)
        # hold only results already checked, or turned from one by the rotation of the
        # circular quiver (see modules._memo_read).
        self._resolution_steps: dict[int, tuple] = {}  # see modules._step
        self._labeled_projectives: dict[tuple, object] = {}  # summand tuple; see modules._labeled_projective
        self._serial_summands: dict[int, tuple] = {}  # see modules._serial_memo
        self._hom_complex_ranks: dict[tuple, tuple] = {}  # (syzygy id, target id); see homology.ext_dims
        self._hom_kernels: dict[tuple, object] = {}  # (source id, target id): padded Hom stack; see modules._hom_stack

    def _walk(self, v: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """The walk from v, one length at a time: each entry of length L - 1 extended by every arrow out of its end."""
        q = self.quiver
        entries, levels = [(-1, -1, v)], [0, 1]
        for _ in range(self.nilpotency):
            entries += [(i, a, q.target(a)) for i in range(*levels[-2:]) for a in q.arrows_from[entries[i][2]]]
            levels.append(len(entries))
        return tuple(entries), tuple(levels)

    @staticmethod
    def _arrows_of(entries: tuple[tuple[int, int, int], ...], i: int) -> tuple[int, ...]:
        """The arrows of walk entry i in traversal order: its last arrow, after those of its parent."""
        arrows = []
        while i > 0:
            i, a, _ = entries[i]
            arrows.append(a)
        return tuple(reversed(arrows))

    def walk(self, v: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """The walk from vertex v, (entries, levels), as described in __init__."""
        if not (1 <= v <= self.quiver.vertex_count):
            raise ValueError(f"vertex {v} outside [1,{self.quiver.vertex_count}]")
        return self._walks[v - 1]

    def _content_id(self, content: tuple) -> int:
        """The id of an exact content (dims, arrow bytes); the first content of a σ-orbit interns all of it.

        Arrow a runs a + 1 -> a + 2, so σ^k turns both tuples by k.
        """
        i = self._ids.get(content)
        if i is None:
            turns = [(_turn(content[0], k), _turn(content[1], k)) for k in range(self.t)]
            row = tuple(self._ids.setdefault(c, len(self._ids)) for c in turns)
            new = len(self._ids) - len(self._contents)  # the orbit's distinct contents: turns[:new]
            self._contents.extend(turns[:new])
            self._orbits.extend(row[k:] + row[:k] for k in range(new))
            i = row[0]
        return i

    @property
    def dimension(self) -> int:
        """t(n + 1): one basis path of each length 0..n from each vertex."""
        return self.t * self.nilpotency

    def relation_arrows(self) -> np.ndarray:
        """The relation paths, every path of length n + 1, as one read-only (paths, n + 1) array of arrow indices.

        Row order is by start vertex, then walk order.
        """
        return self._relation_arrows

    def wrap(self, v: int) -> int:
        """Reduce a vertex label modulo t into [1, t]."""
        return (v - 1) % self.quiver.vertex_count + 1

    def __repr__(self) -> str:
        return f"NakayamaAlgebra(t={self.t}, n={self.n}, p={self.field.p})"


def nakayama_algebra(t: int, n: int, field: GF | None = None) -> BoundQuiverAlgebra:
    """The circular Nakayama algebra on t vertices with radical length n+1, of dimension t(n + 1)."""
    return BoundQuiverAlgebra(t, n, field)
