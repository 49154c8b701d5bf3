"""Syzygies, minimal projective resolutions, Ext tables, and periodicity.

Resolutions are built by iterated projective covers.  Ext dimensions are
read off the Hom complex of the resolution, whose rank in degree d is
that of precomposition with diff(d+1), read off the presentation
term(d+1) -> term(d) ->> syzygy(d) in the step memo; `hom_basis` keeps the
intertwining system, which serves bases faster.  For a simple target
they are cross-asserted against Betti multiplicities in every distinct
degree, through the end of the source's syzygy content cycle.  A stable
Hom dimension subtracts the maps through the target's cover P ->> N,
Hom(M, P) / Hom(M, ΩN) by left exactness; dim Hom(M, ΩN) is a degree-0
entry of the same Hom-complex rank memo.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from .modules import (
    LabeledProjective,
    ModuleMap,
    QuiverModule,
    _itself,
    _memo_read,
    _step,
    _Step,
    find_isomorphism,
    hom_basis,
    projective_cover,  # noqa: F401 - bench/test_bench.py reads homology.projective_cover
)


class Resolution:
    """A minimal projective resolution of a module up to a degree bound.

    Degree d refers to the algebra's memo step of the d-th syzygy (degree
    0 is the module itself): its labeled projective term, the cover
    surjection onto the syzygy, the inclusion of the next syzygy, and
    the differential term(d) -> term(d-1).  Syzygy and map objects are
    built on first access and kept, named for this resolution's module.
    `extend` grows the degree bound in place.

    A resolution is its content ids: it stores no step, and reads degree
    d's step from the memo under the id of syzygy(d).  Once an id repeats
    an earlier one the chain is a cycle: `content_cycle()` holds (start,
    length), and no id is kept past it.  Degree d >= start reads degree
    start + (d - start) % length, so a resolution holds start + length + 1
    ids at any degree bound; `syzygy_keys` reads them as one slice.
    """

    def __init__(self, module: QuiverModule, max_degree: int):
        self.module = module
        self.algebra = module.algebra
        self.max_degree = -1
        self._keys: list[int] = [module.content_key()]  # _keys[d]: content id of syzygy(d)
        self._cycle: tuple[int, int] | None = None
        self._objects: dict[tuple[str, int], object] = {}
        self.extend(max_degree)

    def extend(self, max_degree: int) -> None:
        """Grow the resolution in place through the given degree; a lower bound is a no-op, a negative one an error.

        A syzygy's cover and kernel are computed and checked once per algebra and content.
        Once the content cycle is known, only the bound moves.
        """
        if max_degree < 0:
            raise ValueError(f"degree bound must be >= 0, got {max_degree}")
        if self._cycle is None:
            for d in range(self.max_degree + 1, max_degree + 1):
                key = _step(self.algebra, self._keys[d], self.syzygy, d).next_key
                self._keys.append(key)
                self.max_degree = d
                if (c := self._keys.index(key)) <= d:
                    self._cycle = (c, d + 1 - c)
                    break
        self.max_degree = max(self.max_degree, max_degree)

    def content_cycle(self) -> tuple[int, int] | None:
        """(start, length) of the first repeat syzygy_key(start + length) == syzygy_key(start), if seen yet.

        Keys through degree max_degree + 1 are known; from `start` on, the steps
        repeat with period `length`.
        """
        return self._cycle

    def _at(self, d: int) -> int:
        """The stored degree of degree d >= 0: d itself, or past the cycle's start its place in the cycle."""
        if d < 0:
            raise ValueError(f"resolution degrees are indexed from 0, got {d}")
        if self._cycle is None or d < self._cycle[0]:
            return d
        c, length = self._cycle
        return c + (d - c) % length

    def _step_at(self, d: int) -> _Step:
        """The algebra's memo step of syzygy(d), stored under its content id."""
        return self.algebra._resolution_steps[self._keys[self._at(d)]]

    def _built(self, kind: str, d: int, cls, *args):
        """This resolution's object of the given kind in degree d: cls(*args, check=False), built once."""
        obj = self._objects.get((kind, d))
        if obj is None:
            obj = self._objects[kind, d] = cls(*args, check=False)
        return obj

    def term(self, d: int) -> LabeledProjective:
        return self._step_at(d).term

    def syzygy_key(self, d: int) -> int:
        """The content id of syzygy(d), read without building the syzygy."""
        return self._keys[self._at(d)]

    def syzygy_keys(self, top: int) -> list[int]:
        """[syzygy_key(d) for d in 0..top] as one slice: the ids are stored through max_degree + 1,
        or through c + l once the content cycle (c, l) is known."""
        if not 0 <= top < len(self._keys):
            raise ValueError(f"content ids are stored for degrees 0..{len(self._keys) - 1}, got {top}")
        return self._keys[: top + 1]

    def diff(self, d: int) -> ModuleMap:
        """term(d) ->> syzygy(d) -> term(d-1), composed from the two steps' blocks."""
        if d < 1:
            raise ValueError("differentials are indexed from degree 1")
        lo, up, f = self._step_at(d - 1), self._step_at(d), self.algebra.field
        blocks = (f.matmul(a, b) for a, b in zip(lo.incl_blocks, up.surj_blocks))
        return self._built("diff", d, ModuleMap, up.term.module, lo.term.module, blocks)

    def syzygy(self, d: int) -> QuiverModule:
        if d <= 0 and self._at(d) == 0:  # _at raises for a negative degree
            return self.module
        s, name = self._step_at(d - 1), f"syzygy:{d}:{self.module.describe()}"
        return self._built("syzygy", d, QuiverModule, self.algebra, s.ker_dims, s.ker_maps, name)

    def syzygy_inclusion(self, d: int) -> ModuleMap:
        if d < 1:
            raise ValueError("syzygy inclusions are indexed from degree 1")
        s = self._step_at(d - 1)
        return self._built("incl", d, ModuleMap, self.syzygy(d), s.term.module, s.incl_blocks)

    def cover_surjection(self, d: int) -> ModuleMap:
        s = self._step_at(d)
        return self._built("cover", d, ModuleMap, s.term.module, self.syzygy(d), s.surj_blocks)

    def betti(self, d: int) -> list[tuple[int, int]]:
        """Sorted (projective index, multiplicity) pairs in degree d."""
        return sorted(Counter(self.term(d).summands).items())

    def betti_multiplicity(self, d: int, j: int) -> int:
        return self._step_at(d).term.summands.count(j)


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


def _require_ext_degrees(max_degree: int) -> None:
    """Ext tables run over degrees 1..max_degree, so a bound below 1 is refused."""
    if max_degree < 1:
        raise ValueError("Ext degrees start at 1; use hom_basis for degree 0")


def ext_dims(m: QuiverModule, n: QuiverModule, max_degree: int) -> list[int]:
    """dim Ext^i(M, N) for i = 1..max_degree via the Hom complex of the resolution.

    When N is simple the Betti-multiplicity route is computed as well and
    the two values are asserted equal in every degree through the end of
    the source's content cycle; each later degree repeats one of those.
    Both routes read the ids of degrees 0..top as one slice of the
    resolution's, and a Hom-complex memo hit is read without a call.
    """
    if m.algebra is not n.algebra:
        raise ValueError("Ext requires modules over the same algebra")
    _require_ext_degrees(max_degree)
    res = minimal_resolution(m, max_degree + 1)
    # Memoized per algebra as (h, rank) in degree d: h = dim Hom(term(d), N), and the rank of
    # precomposition with diff(d+1), whose kernel is Hom(syzygy(d), N).  Both are fixed by N and
    # syzygy(d)'s content, not by a basis, so the entry is keyed by their content ids and a miss
    # reads a rotated pair's entry when there is one.
    # Past the content cycle (start c, length l) degree i repeats degree i - l step for step, so
    # entries and the Betti check run through degree min(B, c + l); later degrees are laps of the last l.
    alg, memo, target_key = m.algebra, m.algebra._hom_complex_ranks, n.content_key()
    cycle = res.content_cycle()
    top = max_degree if cycle is None else min(max_degree, cycle[0] + cycle[1])
    ids = res.syzygy_keys(top)
    entries = [  # an entry is a nonempty tuple, so only a miss goes on to _memo_read
        memo.get((key, target_key)) or _memo_read(alg, memo, (key, target_key), _itself, _rank_entry, res, d, n)
        for d, key in enumerate(ids)
    ]
    out = [entries[i][0] - entries[i][1] - entries[i - 1][1] for i in range(1, top + 1)]
    if n.total_dim == 1:  # N = S_j: Ext^i(M, S_j) is the multiplicity of P_j in term(i)
        for i, betti in enumerate(_betti_read(alg, ids[1:], n.dims.index(1) + 1), start=1):
            if betti != out[i - 1]:
                raise AssertionError(
                    f"Ext oracle mismatch at degree {i}: complex gives {out[i - 1]}, "
                    f"Betti multiplicity gives {betti}"
                )
    if top < max_degree:
        laps = (max_degree - top) // cycle[1] + 1
        out = (out + out[-cycle[1] :] * laps)[:max_degree]
    return out


def _betti_read(alg, ids: list[int], j: int) -> list[int]:
    """The multiplicity of P_j in the memo step's cover term of each content id: the Betti route of `ext_dims`."""
    return [alg._resolution_steps[key].term.summands.count(j) for key in ids]


def _rank_entry(res: Resolution, d: int, n: QuiverModule) -> tuple[int, int]:
    """(h, rank) of precomposition with diff(d+1), Hom(term(d), N) -> Hom(term(d+1), N), h = dim Hom(term(d), N).

    Read off the presentation term(d+1) -> term(d) ->> syzygy(d): the unknowns are the generator images x_s in
    N_{j_s}; generator g of term(d+1), at w, gives the row block of its diff column c = incl(d) surj(d+1) e_g.  A
    nonzero c[pos_s[i]] adds c[pos_s[i]] N_path x_s, path walk entry i of summand s, whose action is N_a times its
    parent's (as in `LabeledProjective.map_to`); a zero product ends its branch, and the walk ends once c is read.
    """
    lo, up, f, dims, arrows = res._step_at(d), res._step_at(d + 1), n.field, n.dims, n.arrow_maps
    offs, rows = [0], 0  # x_s is columns offs[s]:offs[s + 1]
    for j in lo.term.summands:
        offs.append(offs[-1] + dims[j - 1])
    gens: dict[int, list[tuple[int, int]]] = {}  # w -> (position, first row) of each generator of term(d+1) at w
    for w, pos in zip(up.term.summands, up.term.positions):
        if dims[w - 1]:
            gens.setdefault(w, []).append((pos[0], rows))
            rows += dims[w - 1]
    if not (rows and offs[-1]):
        return offs[-1], 0
    # cols[w][q]: coordinate q in term(d)_w of each diff column at w; left: the nonzero coordinates not yet read.
    diffs = {w: f.matmul(lo.incl_blocks[w - 1], up.surj_blocks[w - 1]).tolist() for w in gens}
    cols = {w: [[row[q] for q, _ in g] for row in diffs[w]] for w, g in gens.items()}
    left, out = sum(any(c) for cw in cols.values() for c in cw), np.zeros((rows, offs[-1]), dtype=np.int64)
    for s, (j, pos) in enumerate(zip(lo.term.summands, lo.term.positions)):
        image = [f.eye(dims[j - 1]) if dims[j - 1] else None]  # entry i's action on N_j, None if zero; I at 0
        for i, (parent, a, w) in enumerate(lo.term.algebra.walk(j)[0][: len(pos)]):
            if i:
                x = image[parent]
                x = (f.matmul(arrows[a], x) if parent else arrows[a]) if x is not None and dims[w - 1] else None
                image.append(x if x is not None and np.count_nonzero(x) else None)
            coeffs = cols[w][pos[i]] if w in cols else ()
            if any(coeffs):
                left -= 1
                for c, (_, r) in zip(coeffs, gens[w]):
                    if c and image[i] is not None:
                        block = out[r : r + dims[w - 1], offs[s] : offs[s + 1]]
                        np.remainder(block + c * image[i], f.p, out=block)
            if not left:
                return offs[-1], f.rank(out)
    raise AssertionError(f"a diff column of degree {d + 1} has a coordinate off the walk of term({d})")


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
    term_m, eps_m, eps_n = res_m.term(0), res_m.cover_surjection(0), res_n.cover_surjection(0)
    for s in range(len(term_m.summands)):
        j = term_m.summands[s]
        w = fld.matmul(fld.matmul(f.block(j), eps_m.block(j)), term_m.generator_vector(s))
        y = fld.solve(eps_n.block(j), w)
        if y is None:
            raise AssertionError("cover surjection failed to lift a generator image")
        images.append(y)
    lift = term_m.map_to(res_n.term(0).module, images)
    incl_m = res_m.syzygy_inclusion(1)
    incl_n = res_n.syzygy_inclusion(1)
    blocks = []
    for v in range(1, f.source.algebra.quiver.vertex_count + 1):
        rhs = fld.matmul(lift.block(v), incl_m.block(v))
        sol = fld.solve_matrix(incl_n.block(v), rhs)
        if sol is None:
            raise AssertionError("lifted map does not preserve syzygies")
        blocks.append(sol)
    return ModuleMap(res_m.syzygy(1), res_n.syzygy(1), blocks)


# -- stable homomorphisms --------------------------------------------------


def stable_hom_dim(m: QuiverModule, n: QuiverModule) -> int:
    """dim of Hom(M, N) modulo the maps factoring through the cover of N.

    Over a selfinjective algebra a map factors through a projective iff
    it factors through the projective cover P ->> N of its target, read
    from the algebra's step memo (computed into it on a miss).  Hom(M, -)
    is left exact on 0 -> ΩN -> P ->> N, so the maps through the cover are
    Hom(M, P) / Hom(M, ΩN), and the stable dimension is
    dim Hom(M, N) - dim Hom(M, P) + dim Hom(M, ΩN).  The last term is
    h - rank of the Hom-complex entry (M, ΩN) in degree 0, the memo entry
    `ext_dims` reads, read through σ like every other.
    """
    basis = hom_basis(m, n)
    if not basis:
        return 0
    step = _step(n.algebra, n.content_key(), _itself, n)
    through = hom_basis(m, step.term.module)
    if not through:
        return len(basis)
    res, alg = minimal_resolution(m, 1), m.algebra
    key = (res.syzygy_key(0), step.next_key)
    h, rank = _memo_read(alg, alg._hom_complex_ranks, key, _itself, _omega_entry, res, step)
    return len(basis) - len(through) + h - rank


def _omega_entry(res: Resolution, step: _Step) -> tuple[int, int]:
    """The degree-0 Hom-complex entry of res against ΩN, the kernel of the step's cover of N."""
    omega = QuiverModule(res.algebra, step.ker_dims, step.ker_maps, check=False)
    return _rank_entry(res, 0, omega)


# -- periodicity ------------------------------------------------------------


@dataclass
class PeriodicityWitness:
    """The smallest period p with an explicit isomorphism syzygy^p(M) -> M."""

    module: QuiverModule
    period: int
    iso: ModuleMap
    resolution: Resolution = dc_field(repr=False)


def detect_period(m: QuiverModule) -> PeriodicityWitness | None:
    """The smallest p in 1..period_bound with syzygy^p(M) isomorphic to M.

    Every module with no projective summand has a period dividing the
    bound, so None means M is zero (zero would carry every period) or has
    a projective summand, which no syzygy of M has.
    Syzygies are screened by their content ids and memoized covers: a
    degree whose dims or top (its cover's summands) differ from M's is
    skipped unbuilt, and when the content recurs exactly the witness is
    the identity, still checked as a module map.  Other candidates go to
    find_isomorphism.
    """
    bound = m.algebra.period_bound
    if m.is_zero:
        return None
    res = minimal_resolution(m, bound)
    for p in range(1, bound + 1):
        key = res.syzygy_key(p)
        dims = m.algebra._contents[key][0]
        if not any(dims):
            return None
        if dims != m.dims or res.term(p).summands != res.term(0).summands:
            continue
        s = res.syzygy(p)
        if key == res.syzygy_key(0):
            iso = ModuleMap(s, m, [np.eye(d, dtype=np.int64) for d in m.dims])
        else:
            iso = find_isomorphism(s, m)
        if iso is not None:
            return PeriodicityWitness(module=m, period=p, iso=iso, resolution=res)
    return None
