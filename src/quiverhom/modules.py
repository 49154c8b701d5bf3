"""Finite-dimensional quiver representations and module maps.

A module assigns a vector space to each vertex and a matrix to each
arrow; the matrix of an arrow i -> j maps the vertex-i space into the
vertex-j space, and a path acts by applying its arrows in written
order.  Every map produced here satisfies the intertwining equations
exactly and is validated on construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import BoundQuiverAlgebra, PathWord

# One global seed drives every randomized fallback; it is recorded in
# reports so "undecided" outcomes are reproducible.
RANDOM_SEED = 1729


class UnsupportedOperation(RuntimeError):
    """Raised when an operation requires structure the algebra lacks."""


class IsomorphismUndecided(RuntimeError):
    """The generic isomorphism search exhausted its budget with no verdict.

    Dimension vectors match but no invertible map was found; this is
    surfaced rather than coerced to a negative answer.
    """


class QuiverModule:
    """A representation: per-vertex dimensions plus one matrix per arrow."""

    def __init__(self, algebra: BoundQuiverAlgebra, dims, arrow_maps, name: str = "", check: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        self.arrow_maps = tuple(np.asarray(m, dtype=np.int64) % algebra.field.p for m in arrow_maps)
        self.name = name
        self._path_cache: dict[PathWord, np.ndarray] = {}
        self._resolution_cache = None  # grown in place by homology.minimal_resolution
        if check:
            self._validate()

    def _validate(self):
        q = self.algebra.quiver
        if len(self.dims) != q.vertex_count:
            raise ValueError(f"dimension vector has {len(self.dims)} entries for {q.vertex_count} vertices")
        if any(d < 0 for d in self.dims):
            raise ValueError(f"negative dimension in {self.dims}")
        if len(self.arrow_maps) != len(q.arrows):
            raise ValueError(f"{len(self.arrow_maps)} arrow matrices for {len(q.arrows)} arrows")
        for a, m in enumerate(self.arrow_maps):
            want = (self.dims[q.target(a) - 1], self.dims[q.source(a) - 1])
            if m.shape != want:
                raise ValueError(f"arrow {a} matrix has shape {m.shape}, expected {want}")
        for rel in self.algebra.relation_generators():
            if np.any(self.path_action(rel)):
                raise ValueError(f"relation path {rel} does not act as zero")

    # -- basic structure ----------------------------------------------

    @property
    def field(self):
        return self.algebra.field

    def vertex_dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def arrow_matrix(self, a: int) -> np.ndarray:
        return self.arrow_maps[a]

    def path_action(self, p: PathWord) -> np.ndarray:
        """Matrix of the path acting from its start space to its end space."""
        hit = self._path_cache.get(p)
        if hit is not None:
            return hit
        q = self.algebra.quiver
        m = np.eye(self.dims[p.start - 1], dtype=np.int64)
        for a in p.arrows:
            m = (self.arrow_maps[a] @ m) % self.field.p
        self._path_cache[p] = m
        return m

    def structurally_equal(self, other: "QuiverModule") -> bool:
        return (
            self.algebra is other.algebra
            and self.dims == other.dims
            and all(np.array_equal(a, b) for a, b in zip(self.arrow_maps, other.arrow_maps))
        )

    def describe(self) -> str:
        return self.name or f"module(dims={list(self.dims)})"

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"QuiverModule{label}(dims={list(self.dims)})"


class ModuleMap:
    """A homomorphism of representations, stored as one block per vertex."""

    def __init__(self, source: QuiverModule, target: QuiverModule, blocks, check: bool = True):
        self.source = source
        self.target = target
        p = source.field.p
        self.blocks = tuple(np.asarray(b, dtype=np.int64) % p for b in blocks)
        if check:
            self._validate()

    def _validate(self):
        if self.source.algebra is not self.target.algebra:
            raise ValueError("source and target live over different algebras")
        q = self.source.algebra.quiver
        for v in range(1, q.vertex_count + 1):
            want = (self.target.dims[v - 1], self.source.dims[v - 1])
            if self.blocks[v - 1].shape != want:
                raise ValueError(f"block at vertex {v} has shape {self.blocks[v - 1].shape}, expected {want}")
        p = self.source.field.p
        for a in range(len(q.arrows)):
            u, v = q.source(a), q.target(a)
            lhs = (self.target.arrow_maps[a] @ self.blocks[u - 1]) % p
            rhs = (self.blocks[v - 1] @ self.source.arrow_maps[a]) % p
            if not np.array_equal(lhs, rhs):
                raise ValueError(f"map does not intertwine arrow {a}")

    @classmethod
    def identity(cls, m: QuiverModule) -> "ModuleMap":
        return cls(m, m, [np.eye(d, dtype=np.int64) for d in m.dims], check=False)

    @classmethod
    def zero(cls, source: QuiverModule, target: QuiverModule) -> "ModuleMap":
        blocks = [np.zeros((dt, ds), dtype=np.int64) for ds, dt in zip(source.dims, target.dims)]
        return cls(source, target, blocks, check=False)

    def block(self, v: int) -> np.ndarray:
        return self.blocks[v - 1]

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self o other (apply other first)."""
        if other.target is not self.source and not other.target.structurally_equal(self.source):
            raise ValueError("composition mismatch")
        p = self.source.field.p
        blocks = [(a @ b) % p for a, b in zip(self.blocks, other.blocks)]
        return ModuleMap(other.source, self.target, blocks, check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        p = self.source.field.p
        return ModuleMap(
            self.source, self.target, [(a + b) % p for a, b in zip(self.blocks, other.blocks)], check=False
        )

    def scale(self, c: int) -> "ModuleMap":
        p = self.source.field.p
        return ModuleMap(self.source, self.target, [(c * b) % p for b in self.blocks], check=False)

    def __neg__(self) -> "ModuleMap":
        return self.scale(-1)

    @property
    def is_zero(self) -> bool:
        return all(not np.any(b) for b in self.blocks)

    def rank(self) -> int:
        f = self.source.field
        return sum(f.rank(b) for b in self.blocks)

    def is_injective(self) -> bool:
        return self.rank() == self.source.total_dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.total_dim

    def is_invertible(self) -> bool:
        return self.source.dims == self.target.dims and all(
            self.source.field.is_invertible(b) for b in self.blocks
        )

    def inverse(self) -> "ModuleMap":
        inv = [self.source.field.inverse(b) for b in self.blocks]
        if any(b is None for b in inv):
            raise ValueError("map is not invertible")
        return ModuleMap(self.target, self.source, inv, check=False)

    def flatten(self) -> np.ndarray:
        """All blocks concatenated into one coordinate vector (fixed order)."""
        parts = [b.reshape(-1) for b in self.blocks]
        return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.describe()} -> {self.target.describe()})"


# -- standard modules ------------------------------------------------


def zero_module(algebra: BoundQuiverAlgebra) -> QuiverModule:
    q = algebra.quiver
    dims = [0] * q.vertex_count
    maps = [np.zeros((0, 0), dtype=np.int64) for _ in q.arrows]
    return QuiverModule(algebra, dims, maps, name="0", check=False)


def simple(algebra: BoundQuiverAlgebra, i: int) -> QuiverModule:
    """The simple module concentrated at vertex i."""
    q = algebra.quiver
    if not (1 <= i <= q.vertex_count):
        raise ValueError(f"vertex {i} outside [1,{q.vertex_count}]")
    dims = [1 if v == i else 0 for v in range(1, q.vertex_count + 1)]
    maps = [np.zeros((dims[q.target(a) - 1], dims[q.source(a) - 1]), dtype=np.int64) for a in range(len(q.arrows))]
    return QuiverModule(algebra, dims, maps, name=f"simple:{i}", check=False)


def _path_basis_module(algebra: BoundQuiverAlgebra, i: int, max_length: int, name: str) -> QuiverModule:
    """Module with basis the paths from i of length < max_length, arrows acting by extension."""
    q = algebra.quiver
    paths = [p for p in algebra.paths_from(i) if p.length < max_length]
    by_vertex: dict[int, list[PathWord]] = {v: [] for v in range(1, q.vertex_count + 1)}
    for p in paths:
        by_vertex[p.end].append(p)
    pos = {}
    for v, plist in by_vertex.items():
        for k, p in enumerate(plist):
            pos[p] = (v, k)
    dims = [len(by_vertex[v]) for v in range(1, q.vertex_count + 1)]
    maps = []
    for a in range(len(q.arrows)):
        u, v = q.source(a), q.target(a)
        m = np.zeros((dims[v - 1], dims[u - 1]), dtype=np.int64)
        for p in by_vertex[u]:
            ext = PathWord(p.start, p.arrows + (a,), v)
            if ext.length < max_length and algebra.is_basis_path(ext):
                m[pos[ext][1], pos[p][1]] = 1
        maps.append(m)
    return QuiverModule(algebra, dims, maps, name=name)


def projective(algebra: BoundQuiverAlgebra, i: int) -> QuiverModule:
    """The indecomposable projective with top at vertex i (basis: paths from i)."""
    q = algebra.quiver
    if not (1 <= i <= q.vertex_count):
        raise ValueError(f"vertex {i} outside [1,{q.vertex_count}]")
    return _path_basis_module(algebra, i, algebra.nilpotency, name=f"projective:{i}")


def uniserial(algebra: BoundQuiverAlgebra, i: int, length: int) -> QuiverModule:
    """The uniserial module with top S_i and the given composition length."""
    if not algebra.is_selfinjective_nakayama:
        raise UnsupportedOperation("uniserial constructor requires a circular Nakayama algebra")
    if not (1 <= length <= algebra.nilpotency):
        raise ValueError(f"length {length} outside [1,{algebra.nilpotency}]")
    q = algebra.quiver
    if not (1 <= i <= q.vertex_count):
        raise ValueError(f"vertex {i} outside [1,{q.vertex_count}]")
    return _path_basis_module(algebra, i, length, name=f"uniserial:{i}:{length}")


# -- labeled projectives ----------------------------------------------


class LabeledProjective:
    """A direct sum of indecomposable projectives with labeled summands.

    Keeps the path basis bookkeeping (which summand and which path each
    basis vector is) that covers, resolutions and the Ext complex need.
    """

    def __init__(self, algebra: BoundQuiverAlgebra, summands: tuple[int, ...]):
        self.algebra = algebra
        self.summands = tuple(int(j) for j in summands)
        q = algebra.quiver
        by_vertex: dict[int, list[tuple[int, PathWord]]] = {v: [] for v in range(1, q.vertex_count + 1)}
        for s, j in enumerate(self.summands):
            for p in algebra.paths_from(j):
                by_vertex[p.end].append((s, p))
        self._basis = by_vertex
        self._pos = {}
        for v, items in by_vertex.items():
            for k, key in enumerate(items):
                self._pos[key] = k
        dims = [len(by_vertex[v]) for v in range(1, q.vertex_count + 1)]
        maps = []
        for a in range(len(q.arrows)):
            u, v = q.source(a), q.target(a)
            m = np.zeros((dims[v - 1], dims[u - 1]), dtype=np.int64)
            for s, p in by_vertex[u]:
                ext = PathWord(p.start, p.arrows + (a,), v)
                if algebra.is_basis_path(ext):
                    m[self._pos[(s, ext)], self._pos[(s, p)]] = 1
            maps.append(m)
        label = "+".join(f"P{j}" for j in self.summands) or "0"
        self.module = QuiverModule(algebra, dims, maps, name=label, check=False)

    @property
    def total_dim(self) -> int:
        return self.module.total_dim

    def generator_vector(self, s: int) -> np.ndarray:
        """Unit vector of the summand's generator e_j inside the vertex-j space."""
        j = self.summands[s]
        vec = np.zeros(self.module.dims[j - 1], dtype=np.int64)
        vec[self._pos[(s, self.algebra.quiver.trivial_path(j))]] = 1
        return vec

    def map_to(self, target: QuiverModule, images) -> ModuleMap:
        """The map sending each summand generator to the given element of the target."""
        if len(images) != len(self.summands):
            raise ValueError(f"{len(images)} generator images for {len(self.summands)} summands")
        p = self.algebra.field.p
        q = self.algebra.quiver
        blocks = []
        for v in range(1, q.vertex_count + 1):
            m = np.zeros((target.dims[v - 1], self.module.dims[v - 1]), dtype=np.int64)
            for s, path in self._basis[v]:
                col = (target.path_action(path) @ images[s]) % p
                m[:, self._pos[(s, path)]] = col
            blocks.append(m)
        return ModuleMap(self.module, target, blocks)

    def hom_dim(self, target: QuiverModule) -> int:
        """dim Hom(self, target) via the projective pairing Hom(P_j, N) = N_j."""
        return sum(target.dims[j - 1] for j in self.summands)

    def hom_offsets(self, target: QuiverModule) -> list[int]:
        offs = [0]
        for j in self.summands:
            offs.append(offs[-1] + target.dims[j - 1])
        return offs

    def hom_eval_matrix(self, target: QuiverModule, v: int, x: np.ndarray) -> np.ndarray:
        """Matrix sending stacked generator images to f(x), for fixed x in the vertex-v space."""
        p = self.algebra.field.p
        offs = self.hom_offsets(target)
        out = np.zeros((target.dims[v - 1], offs[-1]), dtype=np.int64)
        for s, path in self._basis[v]:
            c = int(x[self._pos[(s, path)]])
            if c == 0:
                continue
            block = target.path_action(path)
            out[:, offs[s] : offs[s + 1]] = (out[:, offs[s] : offs[s + 1]] + c * block) % p
        return out


# -- kernels, cokernels, sums ------------------------------------------


def kernel(f: ModuleMap) -> tuple[QuiverModule, ModuleMap]:
    """Vertex-wise kernel with induced arrow actions, plus its inclusion."""
    M = f.source
    field = M.field
    q = M.algebra.quiver
    incl_blocks = [field.kernel_matrix(f.blocks[v]) for v in range(q.vertex_count)]
    dims = [b.shape[1] for b in incl_blocks]
    maps = []
    for a in range(len(q.arrows)):
        u, v = q.source(a), q.target(a)
        rhs = (M.arrow_maps[a] @ incl_blocks[u - 1]) % field.p
        sol = field.solve_matrix(incl_blocks[v - 1], rhs)
        if sol is None:
            raise AssertionError("kernel is not arrow-stable; invalid module map")
        maps.append(sol)
    ker = QuiverModule(M.algebra, dims, maps, name=f"ker({M.describe()})", check=False)
    return ker, ModuleMap(ker, M, incl_blocks)


def cokernel(f: ModuleMap) -> tuple[QuiverModule, ModuleMap]:
    """Vertex-wise cokernel with induced arrow actions, plus its projection."""
    N = f.target
    field = N.field
    q = N.algebra.quiver
    proj_blocks = []
    section_blocks = []
    for v in range(q.vertex_count):
        b = f.blocks[v]
        nv = N.dims[v]
        stacked = np.hstack([b, field.eye(nv)])
        _, pivots = field.rref(stacked)
        im_cols = [c for c in pivots if c < b.shape[1]]
        comp_cols = [c - b.shape[1] for c in pivots if c >= b.shape[1]]
        basis = np.hstack(
            [
                b[:, im_cols] if im_cols else np.zeros((nv, 0), dtype=np.int64),
                field.eye(nv)[:, comp_cols] if comp_cols else np.zeros((nv, 0), dtype=np.int64),
            ]
        )
        inv = field.inverse(basis)
        if inv is None:
            raise AssertionError("cokernel basis assembly failed")
        k = len(im_cols)
        proj_blocks.append(inv[k:, :])
        section_blocks.append(field.eye(nv)[:, comp_cols] if comp_cols else np.zeros((nv, 0), dtype=np.int64))
    dims = [p.shape[0] for p in proj_blocks]
    maps = []
    for a in range(len(q.arrows)):
        u, v = q.source(a), q.target(a)
        maps.append((proj_blocks[v - 1] @ N.arrow_maps[a] @ section_blocks[u - 1]) % field.p)
    coker = QuiverModule(N.algebra, dims, maps, name=f"coker({f.source.describe()})", check=False)
    return coker, ModuleMap(N, coker, proj_blocks)


def direct_sum(mods: list[QuiverModule]) -> tuple[QuiverModule, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with its canonical inclusions and projections."""
    if not mods:
        raise ValueError("direct_sum of an empty list is ambiguous; use zero_module")
    algebra = mods[0].algebra
    if any(m.algebra is not algebra for m in mods):
        raise ValueError("direct sum requires a common algebra")
    q = algebra.quiver
    dims = [sum(m.dims[v] for m in mods) for v in range(q.vertex_count)]
    offsets = []
    run = [0] * q.vertex_count
    for m in mods:
        offsets.append(tuple(run))
        run = [run[v] + m.dims[v] for v in range(q.vertex_count)]
    maps = []
    for a in range(len(q.arrows)):
        u, v = q.source(a) - 1, q.target(a) - 1
        big = np.zeros((dims[v], dims[u]), dtype=np.int64)
        for m, off in zip(mods, offsets):
            big[off[v] : off[v] + m.dims[v], off[u] : off[u] + m.dims[u]] = m.arrow_maps[a]
        maps.append(big)
    name = " + ".join(m.describe() for m in mods)
    total = QuiverModule(algebra, dims, maps, name=name, check=False)
    incls, projs = [], []
    for m, off in zip(mods, offsets):
        iblocks, pblocks = [], []
        for v in range(q.vertex_count):
            i = np.zeros((dims[v], m.dims[v]), dtype=np.int64)
            i[off[v] : off[v] + m.dims[v], :] = np.eye(m.dims[v], dtype=np.int64)
            iblocks.append(i)
            pblocks.append(i.T.copy())
        incls.append(ModuleMap(m, total, iblocks, check=False))
        projs.append(ModuleMap(total, m, pblocks, check=False))
    return total, incls, projs


# -- radical, top, projective cover ------------------------------------


def radical_matrix(m: QuiverModule, v: int) -> np.ndarray:
    """Columns spanning rad(M)_v = the sum of incoming arrow images."""
    q = m.algebra.quiver
    cols = [m.arrow_maps[a] for a in q.arrows_into[v]]
    if not cols:
        return np.zeros((m.dims[v - 1], 0), dtype=np.int64)
    return np.hstack(cols)


def top_dims(m: QuiverModule) -> tuple[int, ...]:
    """Dimension vector of top(M) = M / rad M."""
    f = m.field
    return tuple(
        m.dims[v - 1] - f.rank(radical_matrix(m, v)) for v in range(1, m.algebra.quiver.vertex_count + 1)
    )


@dataclass
class ProjectiveCover:
    """A labeled projective together with its minimal surjection onto M."""

    P: LabeledProjective
    surjection: ModuleMap

    @property
    def module(self) -> QuiverModule:
        return self.P.module


def projective_cover(m: QuiverModule) -> ProjectiveCover:
    """The projective cover: one P_j per top composition factor, any lift of a top basis."""
    field = m.field
    q = m.algebra.quiver
    summands: list[int] = []
    images: list[np.ndarray] = []
    for v in range(1, q.vertex_count + 1):
        rad = radical_matrix(m, v)
        stacked = np.hstack([rad, field.eye(m.dims[v - 1])])
        _, pivots = field.rref(stacked)
        for c in pivots:
            if c >= rad.shape[1]:
                idx = c - rad.shape[1]
                vec = np.zeros(m.dims[v - 1], dtype=np.int64)
                vec[idx] = 1
                summands.append(v)
                images.append(vec)
    P = LabeledProjective(m.algebra, tuple(summands))
    surj = P.map_to(m, images)
    if not surj.is_surjective():
        raise AssertionError("projective cover surjection failed to cover")
    return ProjectiveCover(P=P, surjection=surj)


def is_projective(m: QuiverModule) -> bool:
    """Exact test: the cover surjection is an isomorphism iff dims agree."""
    if m.is_zero:
        return True
    return projective_cover(m).module.dims == m.dims


# -- hom spaces ---------------------------------------------------------


def hom_basis(m: QuiverModule, n: QuiverModule) -> list[ModuleMap]:
    """A basis of Hom(M, N), by solving the intertwining equations."""
    if m.algebra is not n.algebra:
        raise ValueError("hom_basis requires modules over the same algebra")
    field = m.field
    q = m.algebra.quiver
    t = q.vertex_count
    block_sizes = [n.dims[v] * m.dims[v] for v in range(t)]
    col_off = [0]
    for s in block_sizes:
        col_off.append(col_off[-1] + s)
    total_cols = col_off[-1]
    if total_cols == 0:
        return []
    rows = []
    for a in range(len(q.arrows)):
        u, v = q.source(a) - 1, q.target(a) - 1
        r = n.dims[v] * m.dims[u]
        if r == 0:
            continue
        blk = np.zeros((r, total_cols), dtype=np.int64)
        # N_a f_u lives in the f_u columns, f_v M_a in the f_v columns.
        blk[:, col_off[u] : col_off[u + 1]] = np.kron(n.arrow_maps[a], np.eye(m.dims[u], dtype=np.int64))
        left = np.kron(np.eye(n.dims[v], dtype=np.int64), m.arrow_maps[a].T)
        blk[:, col_off[v] : col_off[v + 1]] = (blk[:, col_off[v] : col_off[v + 1]] - left) % field.p
        rows.append(blk % field.p)
    system = np.vstack(rows) if rows else np.zeros((0, total_cols), dtype=np.int64)
    basis = []
    for vec in field.kernel_basis(system):
        blocks = [
            vec[col_off[v] : col_off[v + 1]].reshape(n.dims[v], m.dims[v]) for v in range(t)
        ]
        basis.append(ModuleMap(m, n, blocks))
    return basis


# -- serial structure (circular Nakayama fast path) ---------------------


@dataclass
class SerialSummand:
    """One uniserial summand: its top vertex, length, and an explicit chain basis."""

    top: int
    length: int
    chain: list[np.ndarray]  # chain[d] lives at vertex top+d (mod t)


def _require_nakayama(m: QuiverModule):
    if not m.algebra.is_selfinjective_nakayama:
        raise UnsupportedOperation("serial decomposition requires a circular Nakayama algebra")


def serial_summands(m: QuiverModule) -> list[SerialSummand]:
    """Split M into uniserial summands with explicit generators.

    Graded variant of the classical nilpotent-operator chain basis: for
    lengths from longest to shortest, new chain tops at vertex j lift a
    basis of ker T_{j,l} modulo ker T_{j,l-1} + (arrow into j)(ker T_{j-1,l+1}).
    The assembled chains are verified to form a basis.
    """
    _require_nakayama(m)
    alg = m.algebra
    field = m.field
    t = alg.t
    n = alg.n

    def path_matrix(v: int, d: int) -> np.ndarray:
        if d > n:
            return np.zeros((m.dims[alg.wrap(v + d) - 1], m.dims[v - 1]), dtype=np.int64)
        return m.path_action(alg.unique_path(v, d))

    def kernel_cols(v: int, d: int) -> np.ndarray:
        if d <= 0:
            return np.zeros((m.dims[v - 1], 0), dtype=np.int64)
        if d > n:
            return field.eye(m.dims[v - 1])
        return field.kernel_matrix(path_matrix(v, d))

    arrow_from = {v: m.arrow_maps[alg.quiver.arrows_from[v][0]] for v in range(1, t + 1)}
    summands: list[SerialSummand] = []
    for length in range(n + 1, 0, -1):
        for j in range(1, t + 1):
            cand = kernel_cols(j, length)
            if cand.shape[1] == 0:
                continue
            prev = alg.wrap(j - 1)
            shifted = (arrow_from[prev] @ kernel_cols(prev, length + 1)) % field.p
            w = np.hstack([kernel_cols(j, length - 1), shifted])
            stacked = np.hstack([w, cand])
            _, pivots = field.rref(stacked)
            for c in pivots:
                if c < w.shape[1]:
                    continue
                x = cand[:, c - w.shape[1]].copy()
                chain = [x]
                vtx = j
                for _ in range(length - 1):
                    chain.append((arrow_from[vtx] @ chain[-1]) % field.p)
                    vtx = alg.wrap(vtx + 1)
                summands.append(SerialSummand(top=j, length=length, chain=chain))
    # The chains must assemble to a basis at every vertex.
    cols: dict[int, list[np.ndarray]] = {v: [] for v in range(1, t + 1)}
    for s in summands:
        for d, vec in enumerate(s.chain):
            cols[alg.wrap(s.top + d)].append(vec)
    for v in range(1, t + 1):
        mat = np.column_stack(cols[v]) if cols[v] else np.zeros((m.dims[v - 1], 0), dtype=np.int64)
        if mat.shape != (m.dims[v - 1], m.dims[v - 1]) or not field.is_invertible(mat):
            raise AssertionError(f"serial chain basis failed at vertex {v}")
    return summands


def decompose_serial(m: QuiverModule) -> list[tuple[int, int]]:
    """The multiset of (top vertex, length) of the uniserial summands, sorted."""
    return sorted((s.top, s.length) for s in serial_summands(m))


def find_isomorphism_serial(m: QuiverModule, n: QuiverModule) -> ModuleMap | None:
    """An explicit isomorphism matching uniserial summands, or None if types differ."""
    _require_nakayama(m)
    if m.dims != n.dims:
        return None
    alg = m.algebra
    field = m.field
    sm = serial_summands(m)
    sn = serial_summands(n)
    key = lambda s: (s.top, s.length)
    sm.sort(key=key)
    sn.sort(key=key)
    if [key(s) for s in sm] != [key(s) for s in sn]:
        return None
    t = alg.t
    xcols: dict[int, list[np.ndarray]] = {v: [] for v in range(1, t + 1)}
    ycols: dict[int, list[np.ndarray]] = {v: [] for v in range(1, t + 1)}
    for a, b in zip(sm, sn):
        for d in range(a.length):
            v = alg.wrap(a.top + d)
            xcols[v].append(a.chain[d])
            ycols[v].append(b.chain[d])
    blocks = []
    for v in range(1, t + 1):
        dim = m.dims[v - 1]
        x = np.column_stack(xcols[v]) if xcols[v] else np.zeros((dim, 0), dtype=np.int64)
        y = np.column_stack(ycols[v]) if ycols[v] else np.zeros((n.dims[v - 1], 0), dtype=np.int64)
        if dim == 0:
            blocks.append(np.zeros((0, 0), dtype=np.int64))
            continue
        xinv = field.inverse(x)
        if xinv is None:
            raise AssertionError("serial chain basis not invertible")
        blocks.append((y @ xinv) % field.p)
    return ModuleMap(m, n, blocks)


# -- isomorphism testing -------------------------------------------------


def _generic_isomorphism(m: QuiverModule, n: QuiverModule) -> ModuleMap | None:
    basis = hom_basis(m, n)
    if not basis:
        return None
    for f in basis:
        if f.is_invertible():
            return f
    for k in (2, 3):
        for combo in itertools.combinations(basis, k):
            f = combo[0]
            for g in combo[1:]:
                f = f + g
            if f.is_invertible():
                return f
    rng = np.random.default_rng(RANDOM_SEED)
    p = m.field.p
    for _ in range(64):
        coeffs = rng.integers(0, p, size=len(basis))
        f = ModuleMap.zero(m, n)
        for c, g in zip(coeffs, basis):
            if c:
                f = f + g.scale(int(c))
        if f.is_invertible():
            return f
    return None


def find_isomorphism(m: QuiverModule, n: QuiverModule) -> ModuleMap | None:
    """An explicit isomorphism M -> N, or None when provably non-isomorphic.

    Raises IsomorphismUndecided when the generic random search gives up
    with matching dimension vectors (never silently returns a negative).
    """
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    if m.dims != n.dims:
        return None
    if m.is_zero:
        return ModuleMap.zero(m, n)
    if m.algebra.is_selfinjective_nakayama:
        return find_isomorphism_serial(m, n)
    f = _generic_isomorphism(m, n)
    if f is None:
        raise IsomorphismUndecided(
            f"no invertible map found between {m.describe()} and {n.describe()} "
            f"(dimension vectors match; search seed {RANDOM_SEED})"
        )
    return f


def is_isomorphic(m: QuiverModule, n: QuiverModule) -> bool:
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    if m.dims != n.dims:
        return False
    if m.is_zero:
        return True
    if m.algebra.is_selfinjective_nakayama:
        return decompose_serial(m) == decompose_serial(n)
    return find_isomorphism(m, n) is not None
