"""Quivers, path words, and truncated path algebras kQ/J^N.

Vertices are 1-based everywhere.  A path word lists its arrows in
traversal order: the path ``(a1, a2)`` starts at the source of ``a1``
and ends at the target of ``a2``.  Multiplication ``p * q`` is "follow
p, then q" and is defined when ``p`` ends where ``q`` starts.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def sort_key(self) -> tuple:
        return (len(self.arrows), self.start, self.arrows)

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

    def trivial_path(self, v: int) -> PathWord:
        if not (1 <= v <= self.vertex_count):
            raise ValueError(f"vertex {v} outside [1,{self.vertex_count}]")
        return PathWord(v, (), v)

    def extend(self, p: PathWord, a: int) -> PathWord:
        if self.source(a) != p.end:
            raise ValueError(f"arrow {a} does not compose with path ending at {p.end}")
        return PathWord(p.start, p.arrows + (a,), self.target(a))


def circular_quiver(t: int) -> Quiver:
    """The cyclic quiver on t vertices with arrows i -> i+1 (mod t)."""
    if t < 2:
        raise ValueError(f"circular quiver needs t >= 2, got {t}")
    return Quiver(t, [(i, i % t + 1) for i in range(1, t + 1)])


class BoundQuiverAlgebra:
    """A path algebra truncated at a nilpotency degree, kQ/J^N, with an explicit path basis.

    The basis consists of all paths of length < N.  Serial structure,
    isomorphism, stable Hom, periodicity and complexity are defined only
    for the circular Nakayama algebras built by nakayama_algebra().
    """

    def __init__(self, quiver: Quiver, nilpotency: int, field: GF | None = None):
        if nilpotency < 1:
            raise ValueError(f"nilpotency degree must be >= 1, got {nilpotency}")
        self.quiver = quiver
        self.nilpotency = nilpotency
        self.field = field if field is not None else GF(DEFAULT_FIELD_P)
        self.path_basis = tuple(sorted(self._enumerate_basis(), key=PathWord.sort_key))
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
        self._relation_generators: tuple[PathWord, ...] | None = None
        self._relation_arrows: np.ndarray | None = None  # set with _relation_generators
        self._resolution_steps: dict[int, tuple] = {}  # see modules._step
        self._labeled_projectives: dict[tuple, object] = {}  # summand tuple; see modules._labeled_projective
        self._serial_summands: dict[int, tuple] = {}  # see modules._serial_memo
        self._hom_complex_ranks: dict[tuple, tuple] = {}  # (syzygy id, target id); see homology.ext_dims
        self._hom_kernels: dict[tuple, object] = {}  # (source id, target id): padded Hom stack; see modules._hom_stack
        self._towers: dict[int, object] = {}  # checked KoszulSteps; see koszul.build_periodicity_tower

    def _enumerate_basis(self):
        frontier = [self.quiver.trivial_path(v) for v in range(1, self.quiver.vertex_count + 1)]
        basis = list(frontier)
        for _ in range(1, self.nilpotency):
            frontier = [self.quiver.extend(p, a) for p in frontier for a in self.quiver.arrows_from[p.end]]
            basis.extend(frontier)
        return basis

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

    @property
    def dimension(self) -> int:
        return len(self.path_basis)

    def paths_from(self, v: int) -> list[PathWord]:
        return [p for p in self.path_basis if p.start == v]

    def relation_generators(self) -> tuple[PathWord, ...]:
        """Every composable word of length = nilpotency (computed on first use)."""
        if self._relation_generators is None:
            frontier = [self.quiver.trivial_path(v) for v in range(1, self.quiver.vertex_count + 1)]
            for _ in range(self.nilpotency):
                frontier = [self.quiver.extend(p, a) for p in frontier for a in self.quiver.arrows_from[p.end]]
            self._relation_generators = tuple(frontier)
            arrows = np.array([p.arrows for p in frontier], dtype=np.intp).reshape(len(frontier), self.nilpotency)
            arrows.flags.writeable = False
            self._relation_arrows = arrows
        return self._relation_generators

    def relation_arrows(self) -> np.ndarray:
        """The relation generators as one read-only (paths, nilpotency) array of arrow indices, in the same order."""
        self.relation_generators()
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
