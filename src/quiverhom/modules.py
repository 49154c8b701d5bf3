"""Finite-dimensional quiver representations and module maps.

A module assigns a vector space to each vertex and a matrix to each
arrow; the matrix of an arrow i -> j maps the vertex-i space into the
vertex-j space, and a path acts by applying its arrows in written
order.  No path matrix is stored: callers read the algebra's walk
(`BoundQuiverAlgebra.walk`) by index, shortest path first, one product
past each prefix.  Every map produced here satisfies the intertwining
equations exactly and is validated on construction, or, for a Hom
basis, in one batch before it is stored.
Both go through one check on a zero-padded (maps, vertices, D_N, D_M)
stack: N_a f_u = f_v M_a is compared for every arrow at once, in two
broadcast products with each module's padded (arrows, D, D) arrow
tensor.  The relation check of a new module
reads the same tensor: the algebra's relation paths, an (R, N) array of
arrow indices, advance together in N - 1 batched products, and the
first path not acting as zero is named.  The Hom system is assembled in
one place, on Python ints; its checked basis is kept as one read-only
padded stack, whose views are `hom_basis`'s blocks, sliced on first read
(`homology.ext_dims` reads its ranks off the presentation).  A module's
content key is the small-int id its algebra interns for its exact content, with
the ids of the content's σ-orbit beside it.  Over kΓ/J^{n+1} every
content-keyed memo that σ acts on (steps, Hom stacks, Hom-complex
ranks) is read by one reader, `_memo_read`, which probes σ^-k
of a key by indexing that orbit row.  A cover term is built once per
summand tuple and shared (`_labeled_projective`).  A turned Hom stack
is kept only when it is already the array a solve would give, and then
passes the same batched check when it is not empty; any other turn is
refused, and the next rotation is tried or the system solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import BoundQuiverAlgebra, _turn


class UnsupportedOperation(RuntimeError):
    """Raised when an operation requires structure the algebra lacks."""


class QuiverModule:
    """A representation: per-vertex dimensions plus one matrix per arrow."""

    def __init__(self, algebra: BoundQuiverAlgebra, dims, arrow_maps, name: str = "", check: bool = True):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        self.arrow_maps = tuple(np.asarray(m, dtype=np.int64) % algebra.field.p for m in arrow_maps)
        self.name = name
        self._arrow_tensor: np.ndarray | None = None  # set by _padded_arrows()
        self._resolution_cache = None  # grown in place by homology.minimal_resolution
        self._content_key = None  # set by content_key()
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
        # Every relation path at once: row r of the (paths, N) index array picks one padded arrow
        # per step, so N - 1 batched products give all path matrices, zero-padded to (D, D).
        rels, arrows = self.algebra.relation_arrows(), self._padded_arrows()
        acc = arrows[rels[:, 0]]
        for step in rels.T[1:]:
            acc = self.field.matmul(arrows[step], acc)
        bad = np.flatnonzero(acc.any(axis=(1, 2)))
        if bad.size:
            rel = self.algebra.relation_generators()[bad[0]]
            raise ValueError(f"relation path {rel} does not act as zero")

    # -- basic structure ----------------------------------------------

    @property
    def field(self):
        return self.algebra.field

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def _padded_arrows(self) -> np.ndarray:
        """The arrow matrices zero-padded into one (arrows, D, D) tensor, D the largest vertex dimension."""
        if self._arrow_tensor is None:
            d = max(self.dims)
            self._arrow_tensor = np.zeros((len(self.arrow_maps), d, d), dtype=np.int64)
            for a, mat in enumerate(self.arrow_maps):
                self._arrow_tensor[a, : mat.shape[0], : mat.shape[1]] = mat
        return self._arrow_tensor

    def structurally_equal(self, other: "QuiverModule") -> bool:
        return self.algebra is other.algebra and self.content_key() == other.content_key()

    def describe(self) -> str:
        return self.name or f"module(dims={list(self.dims)})"

    def content_key(self) -> int:
        """The algebra's id of this exact content (dims and arrow matrix bytes), the key of its memos."""
        if self._content_key is None:
            self._content_key = self.algebra._content_id((self.dims, tuple(a.tobytes() for a in self.arrow_maps)))
        return self._content_key

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
        if len(self.blocks) != q.vertex_count:
            raise ValueError(f"{len(self.blocks)} blocks for {q.vertex_count} vertices")
        for v in range(1, q.vertex_count + 1):
            want = (self.target.dims[v - 1], self.source.dims[v - 1])
            if self.blocks[v - 1].shape != want:
                raise ValueError(f"block at vertex {v} has shape {self.blocks[v - 1].shape}, expected {want}")
        a = _failed_arrow(self.source, self.target, _padded(self.blocks, max(self.target.dims), max(self.source.dims)))
        if a is not None:
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
        f = self.source.field
        blocks = [f.matmul(a, b) for a, b in zip(self.blocks, other.blocks)]
        return ModuleMap(other.source, self.target, blocks, check=False)

    def scale(self, c: int) -> "ModuleMap":
        """c times this map; c is reduced mod p first, so no int64 product overflows."""
        p = self.source.field.p
        c %= p
        return ModuleMap(self.source, self.target, [(c * b) % p for b in self.blocks], check=False)

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

    def __repr__(self) -> str:
        return f"ModuleMap({self.source.describe()} -> {self.target.describe()})"


class _StackMap(ModuleMap):
    """A `hom_basis` map on row j of a checked, reduced, read-only memo stack: no check and no copy, and its blocks,
    the views row[w, :n_w, :m_w], are sliced on first read."""

    def __init__(self, source: QuiverModule, target: QuiverModule, row: np.ndarray):
        self.source, self.target, self._row = source, target, row

    @cached_property
    def blocks(self) -> tuple:
        return tuple(self._row[w, :r, :c] for w, (r, c) in enumerate(zip(self.target.dims, self.source.dims)))


def _failed_arrow(m: QuiverModule, n: QuiverModule, stack: np.ndarray) -> int | None:
    """The first arrow a with N_a f_u != f_v M_a over a zero-padded (k, vertices, D_N, D_M) stack of maps, or None.

    Both sides of every arrow's equation are two broadcast products with the padded arrow
    tensors; the padding is zero on both sides, and an empty stack passes.
    """
    field, q = m.field, m.algebra.quiver
    na, ma = n._padded_arrows(), m._padded_arrows()
    differs = field.matmul(na, stack[:, q.arrow_sources]) != field.matmul(stack[:, q.arrow_targets], ma)
    if not differs.any():
        return None
    return int(np.flatnonzero(differs.any(axis=(0, 2, 3)))[0])


def _padded(f, rows: int, cols: int) -> np.ndarray:
    """f[w], one block or a (k, r_w, c_w) stack per vertex, zero-padded into one (k, vertices, rows, cols) stack."""
    stack = np.zeros((len(f[0]) if f[0].ndim == 3 else 1, len(f), rows, cols), dtype=np.int64)
    for w, b in enumerate(f):
        stack[:, w, : b.shape[-2], : b.shape[-1]] = b
    return stack


# -- standard modules ------------------------------------------------


def _path_basis(algebra: BoundQuiverAlgebra, tops: tuple[int, ...], max_length: int):
    """The path basis of a sum of truncated projectives: (dims, arrow matrices, positions).

    positions[s][i] numbers walk entry i from tops[s], of length < max_length, in (s, i) order within
    its end vertex's space; an entry's last arrow sends its parent's basis vector to its own.
    """
    q = algebra.quiver
    dims, walks, positions = [0] * q.vertex_count, [], []
    for j in tops:
        entries, levels = algebra.walk(j)
        walks.append(entries[: levels[max_length]])
        positions.append([])
        for _, _, end in walks[-1]:
            positions[-1].append(dims[end - 1])
            dims[end - 1] += 1
    maps = [np.zeros((dims[v - 1], dims[u - 1]), dtype=np.int64) for u, v in q.arrows]
    for entries, pos in zip(walks, positions):
        for i, (parent, a, _) in enumerate(entries[1:], start=1):
            maps[a][pos[i], pos[parent]] = 1
    return dims, maps, tuple(map(tuple, positions))


def zero_module(algebra: BoundQuiverAlgebra) -> QuiverModule:
    dims, maps, _ = _path_basis(algebra, (), 1)
    return QuiverModule(algebra, dims, maps, name="0", check=False)


def simple(algebra: BoundQuiverAlgebra, i: int) -> QuiverModule:
    """The simple module concentrated at vertex i (basis: the trivial path e_i)."""
    dims, maps, _ = _path_basis(algebra, (i,), 1)
    return QuiverModule(algebra, dims, maps, name=f"simple:{i}", check=False)


def projective(algebra: BoundQuiverAlgebra, i: int) -> QuiverModule:
    """The indecomposable projective with top at vertex i (basis: paths from i)."""
    dims, maps, _ = _path_basis(algebra, (i,), algebra.nilpotency)
    return QuiverModule(algebra, dims, maps, name=f"projective:{i}")


def uniserial(algebra: BoundQuiverAlgebra, i: int, length: int) -> QuiverModule:
    """The uniserial module with top S_i and the given composition length."""
    if not algebra.is_selfinjective_nakayama:
        raise UnsupportedOperation("uniserial constructor requires a circular Nakayama algebra")
    if not (1 <= length <= algebra.nilpotency):
        raise ValueError(f"length {length} outside [1,{algebra.nilpotency}]")
    dims, maps, _ = _path_basis(algebra, (i,), length)
    return QuiverModule(algebra, dims, maps, name=f"uniserial:{i}:{length}")


# -- labeled projectives ----------------------------------------------


class LabeledProjective:
    """A direct sum of indecomposable projectives with labeled summands.

    Keeps the path basis bookkeeping that covers, resolutions and the Ext complex need: positions[s][i]
    places walk entry i from summand s's top (`BoundQuiverAlgebra.walk`) in its end vertex's space.
    """

    def __init__(self, algebra: BoundQuiverAlgebra, summands: tuple[int, ...]):
        self.algebra, self.summands = algebra, tuple(int(j) for j in summands)
        dims, maps, self.positions = _path_basis(algebra, self.summands, algebra.nilpotency)
        label = "+".join(f"P{j}" for j in self.summands) or "0"
        self.module = QuiverModule(algebra, dims, maps, name=label, check=False)

    @property
    def total_dim(self) -> int:
        return self.module.total_dim

    def generator_vector(self, s: int) -> np.ndarray:
        """Unit vector of the summand's generator e_j inside the vertex-j space: walk entry 0's position."""
        vec = np.zeros(self.module.dims[self.summands[s] - 1], dtype=np.int64)
        vec[self.positions[s][0]] = 1
        return vec

    def map_to(self, target: QuiverModule, images) -> ModuleMap:
        """The map sending each summand generator to the given element of the target.

        Each summand's walk is read shortest first, so the image of entry i is N_a times the
        image of its parent, a its last arrow: one product past its prefix per path.
        """
        if len(images) != len(self.summands):
            raise ValueError(f"{len(images)} generator images for {len(self.summands)} summands")
        f = self.algebra.field
        blocks = [np.zeros((dt, ds), dtype=np.int64) for dt, ds in zip(target.dims, self.module.dims)]
        for s, (j, pos) in enumerate(zip(self.summands, self.positions)):
            image = [np.asarray(images[s], dtype=np.int64) % f.p]
            for i, (parent, a, end) in enumerate(self.algebra.walk(j)[0][: len(pos)]):
                if i:
                    image.append(f.matmul(target.arrow_maps[a], image[parent]))
                blocks[end - 1][:, pos[i]] = image[i]
        return ModuleMap(self.module, target, blocks)


# -- kernels, cokernels, sums ------------------------------------------


def _pivots_beyond(field, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The RREF of [a | b] and, in order, the columns of b that extend span(a): its pivots past a."""
    r, pivots = field.rref(np.hstack([a, b]))
    return r, [c - a.shape[1] for c in pivots if c >= a.shape[1]]


def kernel(f: ModuleMap) -> tuple[QuiverModule, ModuleMap]:
    """Vertex-wise kernel with induced arrow actions, plus its inclusion.

    incl_v, the kernel matrix of f_v, is the identity on its free rows, so X_a = (M_a incl_u)[those rows] is the
    one X with incl_v X = M_a incl_u if any is: the inclusion's check tests that equation and names a failed arrow.
    """
    M, field = f.source, f.source.field
    incl_blocks, free = zip(*(field._kernel_free(b) for b in f.blocks))
    arrows = M.algebra.quiver.arrows
    maps = [field.matmul(M.arrow_maps[a], incl_blocks[u - 1])[free[v - 1]] for a, (u, v) in enumerate(arrows)]
    ker = QuiverModule(M.algebra, [b.shape[1] for b in incl_blocks], maps, name=f"ker({M.describe()})", check=False)
    return ker, ModuleMap(ker, M, incl_blocks)


def cokernel(f: ModuleMap, name: str = "") -> tuple[QuiverModule, ModuleMap]:
    """Vertex-wise cokernel with induced arrow actions, plus its projection.

    At each vertex RREF([f_v | I]) = [E f_v | E] with E invertible: its pivots past f_v pick
    unit columns comp spanning a complement of the image, and the rows of E below
    k = rank(f_v) are the projection, zero on the image and the identity on those columns.
    An arrow acts on the cokernel as (proj_v N_a)[:, comp_u].  The cokernel is called
    `name`, or coker(source) when that is empty.
    """
    N = f.target
    field = N.field
    q = N.algebra.quiver
    proj_blocks, comps = [], []
    for b, nv in zip(f.blocks, N.dims):
        r, comp = _pivots_beyond(field, b, field.eye(nv))
        proj_blocks.append(r[nv - len(comp) :, b.shape[1] :])
        comps.append(comp)
    maps = [
        field.matmul(proj_blocks[v - 1], N.arrow_maps[a])[:, comps[u - 1]] for a, (u, v) in enumerate(q.arrows)
    ]
    dims = [len(c) for c in comps]
    coker = QuiverModule(N.algebra, dims, maps, name=name or f"coker({f.source.describe()})", check=False)
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
    """Columns spanning rad(M)_v = the sum of incoming arrow images; the arrow's own matrix when only one comes in."""
    q = m.algebra.quiver
    cols = [m.arrow_maps[a] for a in q.arrows_into[v]]
    if not cols:
        return np.zeros((m.dims[v - 1], 0), dtype=np.int64)
    return cols[0] if len(cols) == 1 else np.hstack(cols)


def top_dims(m: QuiverModule) -> tuple[int, ...]:
    """Dimension vector of top(M) = M / rad M."""
    f = m.field
    return tuple(
        m.dims[v - 1] - f.rank(radical_matrix(m, v)) for v in range(1, m.algebra.quiver.vertex_count + 1)
    )


@dataclass
class ProjectiveCover:
    """A labeled projective together with its minimal surjection onto M, and that surjection's kernel."""

    P: LabeledProjective
    surjection: ModuleMap
    kernel: QuiverModule
    inclusion: ModuleMap  # kernel -> P.module

    @property
    def module(self) -> QuiverModule:
        return self.P.module


def _labeled_projective(algebra: BoundQuiverAlgebra, summands: tuple[int, ...]) -> LabeledProjective:
    """The algebra's one LabeledProjective with these summands, built on first use."""
    memo = algebra._labeled_projectives
    P = memo.get(summands)
    if P is None:
        P = memo[summands] = LabeledProjective(algebra, summands)
    return P


def projective_cover(m: QuiverModule) -> ProjectiveCover:
    """The projective cover: one P_j per top composition factor, any lift of a top basis, and its kernel; by
    rank-nullity on the kernel's elimination, the surjection covers M iff dim ker_v = dim P_v - dim M_v everywhere."""
    field, summands, images = m.field, [], []
    for v in range(1, m.algebra.quiver.vertex_count + 1):
        eye = field.eye(m.dims[v - 1])
        for c in _pivots_beyond(field, radical_matrix(m, v), eye)[1]:
            summands.append(v)
            images.append(eye[:, c])
    P = _labeled_projective(m.algebra, tuple(summands))
    surj = P.map_to(m, images)
    ker, incl = kernel(surj)
    if any(k != p - d for k, p, d in zip(ker.dims, P.module.dims, m.dims)):
        raise AssertionError("projective cover surjection failed to cover")
    return ProjectiveCover(P=P, surjection=surj, kernel=ker, inclusion=incl)


class _Step(NamedTuple):
    """The checked cover and kernel of one module, shared by every resolution over the algebra."""

    term: LabeledProjective
    surj_blocks: tuple  # term.module ->> the module
    ker_dims: tuple
    ker_maps: tuple
    incl_blocks: tuple  # kernel -> term.module
    next_key: int  # content id of the kernel


def _turned_key(algebra: BoundQuiverAlgebra, key: int, k: int) -> int:
    """σ^k of a content id: entry k mod t of its σ-orbit row."""
    row = algebra._orbits[key]
    return row[k % len(row)]


def _rotations(algebra: BoundQuiverAlgebra, key):
    """(k, σ^-k of a memo key) for k = 1..t-1 over kΓ/J^{n+1}; nothing over any other algebra.

    A memo key is one content id or a (source, target) pair of them, and σ^-k of an id is entry
    t - k of its σ-orbit row.  The rotation σ: v -> v + 1, a -> a + 1 is an automorphism of
    kΓ/J^{n+1}, so a module and its turn by σ^k have the same syzygy chain up to σ^k and the same
    Ext dimensions against turned targets.
    """
    if algebra.is_selfinjective_nakayama:
        orbits, pair = algebra._orbits, isinstance(key, tuple)
        a, b = (orbits[key[0]], orbits[key[1]]) if pair else (orbits[key], None)
        for k in range(1, algebra.t):
            yield k, (a[-k], b[-k]) if pair else a[-k]


def _memo_read(algebra: BoundQuiverAlgebra, memo: dict, key: int | tuple, turn, build, *args):
    """memo[key]; on a miss the first σ^-k entry that turn(hit, k, *args) does not refuse, else build(*args).

    turn returns exactly the entry build would store, or None to refuse; build always returns an
    entry.  What is found is stored under key.  Every content-keyed memo read through the rotation
    goes through here.
    """
    entry = memo.get(key)
    if entry is None:
        for k, src in _rotations(algebra, key):
            hit = memo.get(src)
            if hit is not None and (entry := turn(hit, k, *args)) is not None:
                break
        else:
            entry = build(*args)
        memo[key] = entry
    return entry


def _turned_step(step: _Step, k: int, *_) -> _Step | None:
    """The step of σ^k M from M's step, or None when σ^k breaks the vertex order of the cover's summands.

    σ^k M has M's radical matrix at each vertex, so its cover picks the same pivot columns and, when
    the turned summands are still nondecreasing, lists them in the same places: every block and the
    kernel basis are M's, moved k vertices on.
    """
    algebra = step.term.algebra
    summands = tuple(algebra.wrap(j + k) for j in step.term.summands)
    if any(a > b for a, b in zip(summands, summands[1:])):
        return None
    return _Step(
        _labeled_projective(algebra, summands),
        *(_turn(x, k) for x in (step.surj_blocks, step.ker_dims, step.ker_maps, step.incl_blocks)),
        _turned_key(algebra, step.next_key, k),
    )


def _covered_step(module, args: tuple) -> _Step:
    """The step of module(*args), covered with every check: its kernel, one elimination per vertex block, shows
    the cover surjective, and its inclusion checks each arrow's equation once."""
    cover = projective_cover(module(*args))
    ker = cover.kernel
    return _Step(cover.P, cover.surjection.blocks, ker.dims, ker.arrow_maps, cover.inclusion.blocks, ker.content_key())


def _step(algebra: BoundQuiverAlgebra, key: int, module, *args) -> _Step:
    """The memo step of the module with this content key, module(*args).

    On a miss, a memo step of a rotation σ^-k M is turned by σ^k when it keeps its summands in
    vertex order; otherwise module(*args) is covered with every check.  Either way the step is
    stored under the exact key.
    """
    return _memo_read(algebra, algebra._resolution_steps, key, _turned_step, _covered_step, module, args)


def _itself(x, *_):
    """x unchanged: `_step`'s module for a module at hand, or the turn of an entry that σ leaves as is."""
    return x


def is_projective(m: QuiverModule) -> bool:
    """Exact test: the cover surjection is an isomorphism iff dims agree; the cover is the memo step's."""
    return m.is_zero or _step(m.algebra, m.content_key(), _itself, m).term.module.dims == m.dims


# -- hom spaces ---------------------------------------------------------


def hom_basis(m: QuiverModule, n: QuiverModule) -> list[ModuleMap]:
    """A basis of Hom(M, N): the kernel of the intertwining equations, one map per free column.

    The algebra's memo keeps the checked basis under the content pair (M, N) as one read-only
    padded stack (`_hom_stack`); block w of map j is its view S[j, w, :n_w, :m_w], so the blocks
    are read-only and a hit solves and copies nothing.  On a miss, a memo stack of (σ^-k M, σ^-k N)
    is turned by σ^k when the turn is already the basis a solve would give, or else the system is
    solved; either way the whole basis is checked against every arrow in one batch.
    """
    if m.algebra is not n.algebra:
        raise ValueError("hom_basis requires modules over the same algebra")
    if not any(a * b for a, b in zip(m.dims, n.dims)):
        return []
    return [_StackMap(m, n, row) for row in _hom_stack(m, n)]


def _hom_stack(m: QuiverModule, n: QuiverModule) -> np.ndarray:
    """The memo's checked Hom basis of (M, N), turned from a rotation's or solved on a miss.

    A read-only zero-padded (k, vertices, D_N, D_M) stack, D the largest vertex dimension of
    each module: S[j, w, :n_w, :m_w] is block w of hom_basis's map j, and the rest is zero.
    """
    key = (m.content_key(), n.content_key())
    return _memo_read(m.algebra, m.algebra._hom_kernels, key, _turned_hom_stack, _solved_hom_stack, m, n)


def _hom_offsets(m: QuiverModule, n: QuiverModule) -> list[int]:
    """col_off[w], the first column of block f_w (n_w x m_w) among the Hom system's unknowns."""
    col_off = [0]
    for a, b in zip(n.dims, m.dims):
        col_off.append(col_off[-1] + a * b)
    return col_off


def _hom_system(m: QuiverModule, n: QuiverModule, col_off: list[int]) -> np.ndarray:
    """The intertwining system N_a f_u - f_v M_a = 0 over every arrow, assembled on Python ints."""
    p, width = m.field.p, col_off[-1]
    system = []
    for a, (u, v) in enumerate(m.algebra.quiver.arrows):
        u, v = u - 1, v - 1
        na, ma_t = n.arrow_maps[a].tolist(), m.arrow_maps[a].T.tolist()
        # Row (i, c) is entry (i, c) of N_a f_u - f_v M_a; f_w[r, c] is column col_off[w] + r * m_w + c.
        for i in range(n.dims[v]):
            for c in range(m.dims[u]):
                row = [0] * width
                for r, x in enumerate(na[i]):
                    row[col_off[u] + r * m.dims[u] + c] += x
                for s, x in enumerate(ma_t[c], start=col_off[v] + i * m.dims[v]):
                    row[s] -= x
                system.append([x % p for x in row])
    return np.array(system, dtype=np.int64).reshape(len(system), width)


def _solved_hom_stack(m: QuiverModule, n: QuiverModule) -> np.ndarray:
    """The kernel of the intertwining system, solved, its column j scattered into map j of the padded stack; checked."""
    col_off = _hom_offsets(m, n)
    ker = m.field.kernel_matrix(_hom_system(m, n, col_off))
    k = ker.shape[1]
    blocks = [ker[col_off[w] : col_off[w + 1]].T.reshape(k, r, c) for w, (r, c) in enumerate(zip(n.dims, m.dims))]
    return _checked(m, n, _padded(blocks, max(n.dims), max(m.dims)))


def _turned_hom_stack(hit: np.ndarray, k: int, m: QuiverModule, n: QuiverModule) -> np.ndarray | None:
    """The checked stack of (M, N) from the memo stack of (σ^-k M, σ^-k N), read-only; None when a solve would differ.

    Block w of (M, N) is block w - k of the source pair, so the hit's last k vertices come first;
    the turned maps span Hom(M, N), but maybe in another basis.  kernel_matrix gives one map per free
    unknown c (1 at c, 0 at the other free ones), and c is free iff some map has its last nonzero
    entry at c: flattening keeps the unknowns in (w, r, c) order, and padding is zero in every map.
    So a turned stack in that form (`_reduced`) is the solve's array; any other is refused.
    """
    turned = np.concatenate((hit[:, -k:], hit[:, :-k]), axis=1)
    if len(turned) and not _reduced(turned.reshape(len(turned), -1).tolist()):
        return None
    return _checked(m, n, turned)


def _reduced(rows: list[list[int]]) -> bool:
    """Whether these rows, entries in [0, p), have the form of a solved kernel basis: read right to left and turned
    back they are in RREF.  So zero rows come first, and each other row's last nonzero entry is a 1, past the previous
    row's, and 0 in every later row (an earlier row is 0 there already)."""
    last = -1
    for i, row in enumerate(rows):
        c = len(row) - 1
        while c >= 0 and not row[c]:
            c -= 1
        if c < 0 and last < 0:
            continue
        if c <= last or row[c] != 1 or any(r[c] for r in rows[i + 1 :]):
            return False
        last = c
    return True


def _checked(m: QuiverModule, n: QuiverModule, stack: np.ndarray) -> np.ndarray:
    """stack, read-only, once each of its maps intertwines every arrow as a map M -> N; an empty one has none to check."""
    if len(stack) and (a := _failed_arrow(m, n, stack)) is not None:
        raise AssertionError(f"Hom basis does not intertwine arrow {a}")
    stack.flags.writeable = False
    return stack


# -- serial structure and isomorphism (circular Nakayama family) --------


@dataclass
class SerialSummand:
    """One uniserial summand: its top vertex, length, and an explicit chain basis."""

    top: int
    length: int
    chain: list[np.ndarray]  # chain[d] lives at vertex top+d (mod t)


def _require_nakayama(m: QuiverModule):
    if not m.algebra.is_selfinjective_nakayama:
        raise UnsupportedOperation("serial decomposition and isomorphism require a circular Nakayama algebra")


def _chain_bases(m: QuiverModule, summands: list[SerialSummand]) -> tuple[np.ndarray, ...]:
    """Per vertex, the matrix whose columns are the summands' chain vectors there, in summand order."""
    alg = m.algebra
    cols: dict[int, list[np.ndarray]] = {v: [] for v in range(1, alg.t + 1)}
    for s in summands:
        for d, vec in enumerate(s.chain):
            cols[alg.wrap(s.top + d)].append(vec)
    return tuple(
        np.column_stack(cols[v]) if cols[v] else np.zeros((m.dims[v - 1], 0), dtype=np.int64)
        for v in range(1, alg.t + 1)
    )


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

    # ker[v][d]: the kernel of act(v, d), the length-d path from v (walk entry d), with act(v, d) = A_a act(v, d-1)
    # for a its last arrow; ker[v][0] is empty.  From the first zero act(v, d) on (d = n + 1 at the latest, as
    # J^{n+1} = 0; a zero space is not walked) every kernel is the whole space, as kernel_matrix would give.
    ker = {}
    for v, dim in enumerate(m.dims, start=1):
        act, ker[v] = field.eye(dim), [np.zeros((dim, 0), dtype=np.int64)]
        for _, a, _ in alg.walk(v)[0][1 : n + 1] if dim else ():
            act = field.matmul(m.arrow_maps[a], act)
            if not act.any():
                break
            ker[v].append(field.kernel_matrix(act))
        ker[v] += [field.eye(dim)] * (n + 2 - len(ker[v]))
    summands: list[SerialSummand] = []
    for length in range(n + 1, 0, -1):
        for j in range(1, t + 1):
            cand = ker[j][length]
            if cand.shape[1] == ker[j][length - 1].shape[1]:  # the previous kernel lies inside cand: no new top
                continue
            prev = alg.wrap(j - 1)
            shifted = field.matmul(m.arrow_maps[alg.quiver.arrows_from[prev][0]], ker[prev][min(length + 1, n + 1)])
            w = np.hstack([ker[j][length - 1], shifted])
            for c in _pivots_beyond(field, w, cand)[1]:
                chain = [cand[:, c].copy()]
                for _, a, _ in alg.walk(j)[0][1:length]:
                    chain.append(field.matmul(m.arrow_maps[a], chain[-1]))
                summands.append(SerialSummand(top=j, length=length, chain=chain))
    for v, mat in enumerate(_chain_bases(m, summands), start=1):
        if mat.shape != (m.dims[v - 1], m.dims[v - 1]) or not field.is_invertible(mat):
            raise AssertionError(f"serial chain basis failed at vertex {v}")
    return summands


def _serial_memo(m: QuiverModule) -> tuple[tuple[tuple[int, int], ...], tuple[np.ndarray, ...]]:
    """serial_summands(m), checked once per algebra and content: sorted types, read-only chain bases in that order."""
    memo = m.algebra._serial_summands
    key = m.content_key()
    hit = memo.get(key)
    if hit is None:
        found = sorted(serial_summands(m), key=lambda s: (s.top, s.length))
        bases = _chain_bases(m, found)
        for b in bases:
            b.flags.writeable = False
        hit = memo[key] = (tuple((s.top, s.length) for s in found), bases)
    return hit


def decompose_serial(m: QuiverModule) -> list[tuple[int, int]]:
    """The multiset of (top vertex, length) of the uniserial summands, sorted.

    Memoized on the algebra by the module's exact content; each call
    returns a new list.
    """
    return list(_serial_memo(m)[0])


def find_isomorphism(m: QuiverModule, n: QuiverModule) -> ModuleMap | None:
    """An explicit isomorphism M -> N matching uniserial summands (Y X^-1 of the chain bases), or None."""
    if m.algebra is not n.algebra:
        raise ValueError("modules live over different algebras")
    _require_nakayama(m)
    if m.dims != n.dims:
        return None
    (types_m, xs), (types_n, ys) = _serial_memo(m), _serial_memo(n)
    if types_m != types_n:
        return None
    f = m.field
    return ModuleMap(m, n, [f.matmul(y, f.inverse(x)) for x, y in zip(xs, ys)])


def is_isomorphic(m: QuiverModule, n: QuiverModule) -> bool:
    """Whether `find_isomorphism` finds one: the same dimension vector and the same uniserial summands."""
    return find_isomorphism(m, n) is not None
