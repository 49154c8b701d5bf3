"""Syzygies, minimal projective resolutions, Ext tables, and periodicity.

Resolutions are built by iterated projective covers; Ext dimensions are
read off the Hom complex of the resolution, and independently from
Betti multiplicities whenever the target is simple.  The two routes are
cross-asserted on every simple-target computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .modules import (
    LabeledProjective,
    ModuleMap,
    QuiverModule,
    UnsupportedOperation,
    find_isomorphism,
    hom_basis,
    is_isomorphic,
    kernel,
    projective_cover,
    radical_matrix,
)


class Resolution:
    """A minimal projective resolution of a module up to a degree bound.

    For each degree d it stores the labeled projective term, the cover
    surjection onto the d-th syzygy, the inclusion of the next syzygy,
    and the differential term(d) -> term(d-1).  Syzygy degree 0 is the
    module itself.  `extend` grows the degree bound in place.
    """

    def __init__(self, module: QuiverModule, max_degree: int):
        if max_degree < 0:
            raise ValueError(f"degree bound must be >= 0, got {max_degree}")
        self.module = module
        self.algebra = module.algebra
        self.max_degree = -1
        self.terms: list[LabeledProjective] = []
        self.covers: list[ModuleMap] = []  # term(d).module ->> syzygy(d)
        self.diffs: list[ModuleMap | None] = [None]  # diffs[d]: term(d) -> term(d-1), d >= 1
        self._syzygies: list[QuiverModule] = [module]
        self._syz_incl: list[ModuleMap | None] = [None]  # syzygy(d) -> term(d-1).module, d >= 1
        self.extend(max_degree)

    def extend(self, max_degree: int) -> None:
        """Grow the resolution in place through the given degree; a lower bound is a no-op.

        The cover and kernel of a syzygy are computed and checked once per
        algebra and module content (``QuiverModule.content_key``); every
        resolution gets its own syzygy and map objects built from them.
        """
        steps = self.algebra._resolution_steps
        for d in range(self.max_degree + 1, max_degree + 1):
            syz = self._syzygies[d]
            key = syz.content_key()
            step = steps.get(key)
            if step is None:
                cover = projective_cover(syz)
                ker, incl = kernel(cover.surjection)
                step = steps[key] = (
                    cover.P, cover.surjection.blocks, ker.dims, ker.arrow_maps, incl.blocks
                )
            P, surj_blocks, ker_dims, ker_maps, incl_blocks = step
            surj = ModuleMap(P.module, syz, surj_blocks, check=False)
            nxt = QuiverModule(
                self.algebra, ker_dims, ker_maps, name=f"syzygy:{d + 1}:{self.module.describe()}", check=False
            )
            self.terms.append(P)
            self.covers.append(surj)
            if d >= 1:
                self.diffs.append(self._syz_incl[d].compose(surj))
            self._syzygies.append(nxt)
            self._syz_incl.append(ModuleMap(nxt, P.module, incl_blocks, check=False))
            self.max_degree = d

    @property
    def augmentation(self) -> ModuleMap:
        return self.covers[0]

    def term(self, d: int) -> LabeledProjective:
        return self.terms[d]

    def diff(self, d: int) -> ModuleMap:
        if d < 1:
            raise ValueError("differentials are indexed from degree 1")
        return self.diffs[d]

    def syzygy(self, d: int) -> QuiverModule:
        return self._syzygies[d]

    def syzygy_inclusion(self, d: int) -> ModuleMap:
        if d < 1:
            raise ValueError("syzygy inclusions are indexed from degree 1")
        return self._syz_incl[d]

    def cover_surjection(self, d: int) -> ModuleMap:
        return self.covers[d]

    def betti(self, d: int) -> list[tuple[int, int]]:
        """Sorted (projective index, multiplicity) pairs in degree d."""
        counts: dict[int, int] = {}
        for j in self.terms[d].summands:
            counts[j] = counts.get(j, 0) + 1
        return sorted(counts.items())

    def betti_multiplicity(self, d: int, j: int) -> int:
        return sum(1 for s in self.terms[d].summands if s == j)

    def term_dim(self, d: int) -> int:
        return self.terms[d].total_dim

    def is_minimal(self) -> bool:
        """Every differential must land in the radical, i.e. induce zero on tops."""
        f = self.algebra.field
        for d in range(1, self.max_degree + 1):
            target = self.terms[d - 1].module
            for v in range(1, self.algebra.quiver.vertex_count + 1):
                rad = radical_matrix(target, v)
                blk = self.diffs[d].block(v)
                if blk.shape[1] == 0:
                    continue
                if f.rank(np.hstack([rad, blk])) != f.rank(rad):
                    return False
        return True


def minimal_resolution(module: QuiverModule, max_degree: int) -> Resolution:
    """The module's cached minimal resolution, built or extended to at least the given degree."""
    if module._resolution_cache is None:
        module._resolution_cache = Resolution(module, max_degree)
    else:
        module._resolution_cache.extend(max_degree)
    return module._resolution_cache


def syzygy(module: QuiverModule) -> QuiverModule:
    """The kernel of the projective cover; zero for projective modules."""
    return minimal_resolution(module, 0).syzygy(1)


# -- Ext dimensions ------------------------------------------------------


@dataclass
class ExtTable:
    """Dimensions of Ext^i(M, N) for 1 <= i <= max_degree."""

    source: QuiverModule
    target: QuiverModule
    max_degree: int
    dims: tuple[int, ...]
    field_p: int

    @property
    def pair(self) -> tuple[str, str]:
        return (self.source.describe(), self.target.describe())

    def dim(self, i: int) -> int:
        if not (1 <= i <= self.max_degree):
            raise ValueError(f"degree {i} outside [1,{self.max_degree}]")
        return self.dims[i - 1]

    def to_csv(self) -> str:
        lines = ["degree,dim"]
        lines.extend(f"{i},{d}" for i, d in enumerate(self.dims, start=1))
        return "\n".join(lines)


def _hom_complex_matrix(res: Resolution, n: QuiverModule, d: int) -> np.ndarray:
    """Matrix of Hom(term(d), N) -> Hom(term(d+1), N), precomposition with diff(d+1)."""
    src = res.term(d)
    dst = res.term(d + 1)
    diff = res.diff(d + 1)
    rows = []
    for s in range(len(dst.summands)):
        j = dst.summands[s]
        x = (diff.block(j) @ dst.generator_vector(s)) % n.field.p
        rows.append(src.hom_eval_matrix(n, j, x))
    if not rows:
        return np.zeros((0, src.hom_dim(n)), dtype=np.int64)
    return np.vstack(rows)


def ext_dims(m: QuiverModule, n: QuiverModule, max_degree: int) -> list[int]:
    """dim Ext^i(M, N) for i = 1..max_degree via the Hom complex of the resolution.

    When N is simple the Betti-multiplicity route is computed as well and
    the two values are asserted equal in every degree.
    """
    if m.algebra is not n.algebra:
        raise ValueError("Ext requires modules over the same algebra")
    if max_degree < 1:
        raise ValueError("Ext degrees start at 1; use hom_basis for degree 0")
    res = minimal_resolution(m, max_degree + 1)
    f = m.field
    hom_dims = [res.term(d).hom_dim(n) for d in range(max_degree + 2)]
    ranks = [f.rank(_hom_complex_matrix(res, n, d)) for d in range(max_degree + 1)]
    out = []
    for i in range(1, max_degree + 1):
        out.append(hom_dims[i] - ranks[i] - ranks[i - 1])
    simple_vertex = _simple_vertex_of(n)
    if simple_vertex is not None:
        for i in range(1, max_degree + 1):
            betti = res.betti_multiplicity(i, simple_vertex)
            if betti != out[i - 1]:
                raise AssertionError(
                    f"Ext oracle mismatch at degree {i}: complex gives {out[i - 1]}, "
                    f"Betti multiplicity gives {betti}"
                )
    return out


def _simple_vertex_of(n: QuiverModule) -> int | None:
    if n.total_dim != 1:
        return None
    return 1 + next(i for i, d in enumerate(n.dims) if d == 1)


def ext_table(m: QuiverModule, n: QuiverModule, max_degree: int) -> ExtTable:
    return ExtTable(
        source=m,
        target=n,
        max_degree=max_degree,
        dims=tuple(ext_dims(m, n, max_degree)),
        field_p=m.field.p,
    )


def ext_dim(m: QuiverModule, n: QuiverModule, i: int) -> int:
    if i < 1:
        raise ValueError("degree 0 requests are served by hom_basis, not ext_dim")
    return ext_dims(m, n, i)[i - 1]


def betti_ext_dims(m: QuiverModule, j: int, max_degree: int) -> list[int]:
    """The Betti route alone: multiplicity of P_j in each resolution degree."""
    res = minimal_resolution(m, max_degree)
    return [res.betti_multiplicity(i, j) for i in range(1, max_degree + 1)]


# -- the syzygy functor on maps ------------------------------------------


def omega_map(f: ModuleMap) -> ModuleMap:
    """Lift a map through the projective covers and restrict to the syzygies."""
    res_m = minimal_resolution(f.source, 0)
    res_n = minimal_resolution(f.target, 0)
    fld = f.source.field
    images = []
    term_m = res_m.term(0)
    for s in range(len(term_m.summands)):
        j = term_m.summands[s]
        w = fld.matmul(fld.matmul(f.block(j), res_m.augmentation.block(j)), term_m.generator_vector(s))
        y = fld.solve(res_n.augmentation.block(j), w)
        if y is None:
            raise AssertionError("cover surjection failed to lift a generator image")
        images.append(y)
    lift = term_m.map_to(res_n.term(0).module, images)
    incl_m = res_m.syzygy_inclusion(1)
    incl_n = res_n.syzygy_inclusion(1)
    blocks = []
    for v in range(1, f.source.algebra.quiver.vertex_count + 1):
        rhs = (lift.block(v) @ incl_m.block(v)) % fld.p
        sol = fld.solve_matrix(incl_n.block(v), rhs)
        if sol is None:
            raise AssertionError("lifted map does not preserve syzygies")
        blocks.append(sol)
    return ModuleMap(res_m.syzygy(1), res_n.syzygy(1), blocks)


# -- stable homomorphisms --------------------------------------------------


def stable_hom_dim(m: QuiverModule, n: QuiverModule) -> int:
    """dim of Hom(M, N) modulo the maps factoring through the cover of N.

    Over a selfinjective algebra a map factors through a projective iff
    it factors through the projective cover of its target.
    """
    if not m.algebra.is_selfinjective_nakayama:
        raise UnsupportedOperation("stable Hom requires a selfinjective algebra")
    basis = hom_basis(m, n)
    if not basis:
        return 0
    cover = projective_cover(n)
    through = hom_basis(m, cover.module)
    if not through:
        return len(basis)
    f = m.field
    rows = np.vstack([cover.surjection.compose(h).flatten() for h in through])
    return len(basis) - f.rank(rows)


# -- periodicity ------------------------------------------------------------


@dataclass
class PeriodicityWitness:
    """The smallest period p with an explicit isomorphism syzygy^p(M) -> M."""

    module: QuiverModule
    period: int
    iso: ModuleMap
    resolution: Resolution = dc_field(repr=False, default=None)


def detect_period(m: QuiverModule, window: int) -> PeriodicityWitness | None:
    """Search degrees 1..window for the smallest p with syzygy^p(M) isomorphic to M.

    The zero module is excluded by convention (it would carry every
    period), so projective modules report no period.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if m.is_zero:
        return None
    res = minimal_resolution(m, window)
    for p in range(1, window + 1):
        s = res.syzygy(p)
        if s.is_zero:
            return None
        if is_isomorphic(s, m):
            iso = find_isomorphism(s, m)
            return PeriodicityWitness(module=m, period=p, iso=iso, resolution=res)
    return None
