"""Quivers, path words, and truncated path algebras kQ/J^N.

Vertices are 1-based everywhere.  A path word lists its arrows in
traversal order: the path ``(a1, a2)`` starts at the source of ``a1``
and ends at the target of ``a2``.  Multiplication ``p * q`` is "follow
p, then q" and is defined when ``p`` ends where ``q`` starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import GF

DEFAULT_FIELD_P = 101


def _turn(x: tuple, k: int) -> tuple:
    """σ^k of a per-vertex or per-arrow tuple over the circular quiver: entry v moves to v + k."""
    return x[-k:] + x[:-k]


@dataclass(frozen=True)
class PathWord:
    """A directed path: start vertex plus an arrow index sequence (empty = e_i)."""

    start: int
    arrows: tuple[int, ...]
    end: int

    @property
    def length(self) -> int:
        return len(self.arrows)

    def __repr__(self) -> str:
        if not self.arrows:
            return f"e_{self.start}"
        return f"path({self.start}->{self.end}, arrows={list(self.arrows)})"


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
    """A path algebra truncated at a nilpotency degree, kQ/J^N, with its paths walked once per start vertex.

    The basis consists of all paths of length < N, the relations of those of length N.  Serial structure,
    isomorphism, stable Hom, periodicity and complexity are defined only
    for the circular Nakayama algebras built by nakayama_algebra().
    """

    def __init__(self, quiver: Quiver, nilpotency: int, field: GF | None = None):
        if nilpotency < 1:
            raise ValueError(f"nilpotency degree must be >= 1, got {nilpotency}")
        self.quiver = quiver
        self.nilpotency = nilpotency
        self.field = field if field is not None else GF(DEFAULT_FIELD_P)
        # The walk from v, _walks[v - 1] = (entries, levels): each path from v through length nilpotency as (parent
        # entry, last arrow, end vertex), e_v = (-1, -1, v) first, shortest first, lexicographic within a length (as
        # arrows_from ascends); levels[L] is the first entry of length L.  Basis paths precede levels[nilpotency].
        self._walks = tuple(self._walk(v) for v in range(1, quiver.vertex_count + 1))
        # The relation paths' arrows, by start vertex and in walk order; each row read back along its parents.
        self._relation_arrows = np.array(
            [self._arrows_of(entries, i) for entries, levels in self._walks for i in range(levels[-2], levels[-1])],
            dtype=np.intp,
        ).reshape(-1, nilpotency)
        self._relation_arrows.flags.writeable = False
        # Circular Nakayama metadata; set by nakayama_algebra().
        self.is_selfinjective_nakayama = False
        self.is_symmetric = False
        self.t: int | None = None
        self.n: int | None = None
        self.r: int | None = None
        self.period_bound: int | None = None
        # Content ids, interned by _content_id: _contents[i] is the exact (dims, arrow bytes) of id i, and
        # _orbits[i] the ids of its turns σ^0 .. σ^{t-1} over kΓ/J^{n+1} (a σ-fixed one repeats), else (i,).
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

    def _words(self, v: int) -> list[PathWord]:
        """Every walk entry from v as a PathWord, in walk order: each arrow word is its parent's plus one arrow."""
        entries, _ = self._walks[v - 1]
        words = [()]
        for parent, a, _ in entries[1:]:
            words.append(words[parent] + (a,))
        return [PathWord(v, w, end) for w, (_, _, end) in zip(words, entries)]

    def walk(self, v: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
        """The walk from vertex v, (entries, levels), as described in __init__."""
        if not (1 <= v <= self.quiver.vertex_count):
            raise ValueError(f"vertex {v} outside [1,{self.quiver.vertex_count}]")
        return self._walks[v - 1]

    def _content_id(self, content: tuple) -> int:
        """The id of an exact content (dims, arrow bytes); the first content of a σ-orbit interns all of it.

        Over kΓ/J^{n+1} arrow a runs a + 1 -> a + 2, so σ^k turns both tuples by k.
        """
        i = self._ids.get(content)
        if i is None:
            t = self.t if self.is_selfinjective_nakayama else 1
            turns = [(_turn(content[0], k), _turn(content[1], k)) for k in range(t)]
            row = tuple(self._ids.setdefault(c, len(self._ids)) for c in turns)
            new = len(self._ids) - len(self._contents)  # the orbit's distinct contents: turns[:new]
            self._contents.extend(turns[:new])
            self._orbits.extend(row[k:] + row[:k] for k in range(new))
            i = row[0]
        return i

    @cached_property
    def _path_words(self) -> tuple[tuple[PathWord, ...], tuple[PathWord, ...]]:
        """(path_basis, relation generators) as PathWords: the walks' entries by length, then start vertex."""
        words = [(self._words(v), levels) for v, (_, levels) in enumerate(self._walks, start=1)]
        by_length = [[p for ws, lv in words for p in ws[lv[d] : lv[d + 1]]] for d in range(self.nilpotency + 1)]
        return tuple(p for paths in by_length[:-1] for p in paths), tuple(by_length[-1])

    @property
    def path_basis(self) -> tuple[PathWord, ...]:
        """Every basis path, shortest first and by start vertex within a length; built on first read."""
        return self._path_words[0]

    @property
    def dimension(self) -> int:
        return len(self.path_basis)

    def paths_from(self, v: int) -> list[PathWord]:
        """The basis paths from v, shortest first: the walk's entries of length < nilpotency."""
        _, levels = self.walk(v)
        return self._words(v)[: levels[self.nilpotency]]

    def relation_generators(self) -> tuple[PathWord, ...]:
        """Every composable word of length = nilpotency: the walk's last entries, by start vertex; built on first read."""
        return self._path_words[1]

    def relation_arrows(self) -> np.ndarray:
        """The relation generators as one read-only (paths, nilpotency) array of arrow indices, in the same order."""
        return self._relation_arrows

    def wrap(self, v: int) -> int:
        """Reduce a vertex label modulo t into [1, t]."""
        return (v - 1) % self.quiver.vertex_count + 1

    def __repr__(self) -> str:
        if self.is_selfinjective_nakayama:
            return f"NakayamaAlgebra(t={self.t}, n={self.n}, p={self.field.p})"
        return (
            f"BoundQuiverAlgebra(vertices={self.quiver.vertex_count}, "
            f"nilpotency={self.nilpotency}, dim={self.dimension})"
        )


def nakayama_algebra(t: int, n: int, field: GF | None = None) -> BoundQuiverAlgebra:
    """The circular Nakayama algebra on t vertices with radical length n+1.

    The path basis is every path of length 0..n, so the dimension is
    t*(n+1).  The algebra is selfinjective; it is symmetric exactly when
    n is divisible by t.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    alg = BoundQuiverAlgebra(circular_quiver(t), nilpotency=n + 1, field=field)
    alg.is_selfinjective_nakayama = True
    alg.t = t
    alg.n = n
    alg.r = n % t
    alg.is_symmetric = alg.r == 0
    # Omega^2 M(i, l) = M(i+n+1, l), so Omega^{2t} fixes every non-projective
    # module and each syzygy period divides 2t.
    alg.period_bound = 2 * t
    return alg
