"""Koszul-style cones, complexity, and the periodicity step.

A cone step pushes the inclusion of the d-th syzygy into the
degree-(d-1) projective term out along a map eta: syzygy^d(X) -> X,
yielding a short exact sequence 0 -> X -> C -> syzygy^{d-1}(X) -> 0.
The pushout of an isomorphism eta is the projective term itself, with
the identity leg, inclusion incl o eta^-1 and the cover surjection as
projection, so koszul_object reads that cone off the resolution and
takes a cokernel only for any other eta.  Over kΓ/J^{n+1} every
non-projective module has complexity 1, so the reduction by cones is
this one step, and the gap checker reads its length g off the step's
degree d (g = 1 for a projective module, which needs no step).

Each checked tower step is kept in the algebra's tower memo under its
module's content id, its arrays read-only; an exact hit returns it as
stored.  Over kΓ/J^{n+1} the memo is read through the rotation σ by
modules._memo_read, as the step memo is: the step of σ^k M is M's with
its blocks turned by k when σ^k carries M's syzygy ids and term
summands to σ^k M's own resolution, and is built otherwise.  A built
step checks that leg, inclusion and projection are module maps, that
[leg | inclusion] kills the graph [incl; -eta], that the sequence is
exact and that the cone is projective.  A turned step passes the same
checks, eta's included, and what a build has by construction: eta is
invertible and projection o [leg | inclusion] = [eps | 0].  A failure
raises AssertionError (a built map that does not intertwine raises
ValueError) and stores nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homology import Resolution, detect_period, minimal_resolution
from .modules import (
    ModuleMap,
    QuiverModule,
    UnsupportedOperation,
    _memo_read,
    _turn,
    _turned_key,
    cokernel,
    direct_sum,
    is_projective,
)


@dataclass
class KoszulStep:
    """One cone step: the defining map, the cone, and its exact sequence."""

    source: QuiverModule
    degree: int
    eta: ModuleMap
    cone: QuiverModule
    inclusion: ModuleMap  # X -> C
    projection: ModuleMap  # C -> syzygy^{d-1}(X)
    leg: ModuleMap  # P_{d-1} -> C; [leg | inclusion]: P_{d-1} + X ->> C is the pushout's cokernel projection

    def check_exact(self) -> bool:
        """Vertex-wise exactness of 0 -> X -> C -> syzygy^{d-1}(X) -> 0."""
        x = self.source
        c = self.cone
        q = self.projection.target
        if c.total_dim != x.total_dim + q.total_dim:
            return False
        if not self.inclusion.is_injective():
            return False
        if not self.projection.is_surjective():
            return False
        return self.projection.compose(self.inclusion).is_zero


def koszul_object(resolution: Resolution, eta: ModuleMap, degree: int) -> KoszulStep:
    """Cone of eta: syzygy^d(X) -> X, the pushout of the resolution's inclusion along eta.

    eta's source must be the degree-d syzygy object stored in X's
    resolution (the pushout leg is that syzygy's inclusion incl into the
    degree d-1 projective term P).  When every block of eta is invertible
    the pushout is P itself, read off the resolution: its maps
    leg = id and inclusion = incl o eta^-1 agree on syzygy^d, and any
    pair f: P -> Y, g: X -> Y with f o incl = g o eta factors through P
    by f alone, since g = f o incl o eta^-1.  The cone is then a module
    with P's dims and arrows (so P's content id) and the projection is
    the cover surjection P ->> syzygy^{d-1}.  Any other eta is pushed out
    as the cokernel of the graph [incl; -eta]: syzygy^d -> P + X.
    """
    if degree < 1:
        raise ValueError(f"cone degree must be >= 1, got {degree}")
    if degree > resolution.max_degree + 1:
        raise ValueError(f"resolution only reaches degree {resolution.max_degree}")
    x = resolution.module
    syz = resolution.syzygy(degree)
    if eta.source is not syz and not eta.source.structurally_equal(syz):
        raise ValueError("eta's source is not the stored degree-%d syzygy" % degree)
    if eta.target is not x and not eta.target.structurally_equal(x):
        raise ValueError("eta must land in the resolution's module")
    incl = resolution.syzygy_inclusion(degree)  # syz -> P_{d-1}
    pterm = resolution.term(degree - 1).module
    eps = resolution.cover_surjection(degree - 1)  # P_{d-1} ->> syzygy^{d-1}
    fld, name = x.field, f"cone(d={degree}, {x.describe()})"
    inverses = [fld.inverse(b) if b.shape[0] == b.shape[1] else None for b in eta.blocks]
    if all(inv is not None for inv in inverses):
        cone = QuiverModule(x.algebra, pterm.dims, pterm.arrow_maps, name=name, check=False)
        leg = ModuleMap(pterm, cone, [np.eye(d, dtype=np.int64) for d in cone.dims])
        inclusion = ModuleMap(x, cone, [fld.matmul(i, inv) for i, inv in zip(incl.blocks, inverses)])
        # [leg | inclusion] kills [incl; -eta]: incl = inclusion o eta, block by block.
        if any(np.any(fld.matmul(c, e) != i) for c, e, i in zip(inclusion.blocks, eta.blocks, incl.blocks)):
            raise AssertionError("cone: [leg | inclusion] does not kill [incl; -eta]")
        projection = ModuleMap(cone, eps.target, eps.blocks)
    else:
        _, (inc_p, inc_x), (proj_p, _) = direct_sum([pterm, x])
        graph = inc_p.compose(incl) + inc_x.compose(eta.scale(-1))
        cone, quot = cokernel(graph, name=name)
        leg, inclusion = quot.compose(inc_p), quot.compose(inc_x)
        # The projection is induced by the cover surjection on the projective leg.
        psi = eps.compose(proj_p)
        blocks = []
        for v in range(1, x.algebra.quiver.vertex_count + 1):
            sol = fld.solve_matrix(quot.block(v).T, psi.block(v).T)
            if sol is None:
                raise AssertionError("cone projection is not well defined")
            blocks.append(sol.T)
        projection = ModuleMap(cone, eps.target, blocks)
    step = KoszulStep(
        source=x, degree=degree, eta=eta, cone=cone, inclusion=inclusion, projection=projection, leg=leg
    )
    if not step.check_exact():
        raise AssertionError("cone short exact sequence failed exactness")
    return step


# -- complexity -------------------------------------------------------------


def complexity_estimate(m: QuiverModule) -> int:
    """The complexity of M: 0 for projective (and zero) modules, 1 for everything else.

    Over circular Nakayama algebras every non-projective module is
    Omega-periodic (its period divides the algebra's period bound), so
    its Betti sizes are bounded and never reach 0.
    """
    if m.algebra.period_bound is None:
        raise UnsupportedOperation("complexity requires a circular Nakayama algebra")
    return 0 if is_projective(m) else 1


# -- periodicity steps ------------------------------------------------------


def _stored(step: KoszulStep) -> KoszulStep:
    """A checked step, once its cone is projective, with its arrays made read-only for the tower memo."""
    if not is_projective(step.cone):
        raise AssertionError("cone of a periodicity isomorphism must be projective")
    for f in (step.eta, step.leg, step.inclusion, step.projection):
        for a in f.blocks:
            a.flags.writeable = False
    for a in step.cone.arrow_maps:
        a.flags.writeable = False
    return step


def _built_tower(m: QuiverModule) -> KoszulStep | None:
    """The step of M's periodicity isomorphism, built by koszul_object; None when no period is found."""
    witness = detect_period(m)
    if witness is None:
        return None
    return _stored(koszul_object(witness.resolution, witness.iso, witness.period))


def _turned_tower(hit: KoszulStep, k: int, m: QuiverModule) -> KoszulStep | None:
    """M's checked step, turned from the memo step of σ^-k M; None when σ^k misses M's resolution.

    The rotation is an automorphism, so the hit's period is M's least period too.  Its blocks are
    turned by k only when σ^k carries the source's syzygy ids and term summands to M's, so that
    they land on M's own objects.  The pushout identities a direct build has by construction are
    checked here, and with them the cone is the pushout: [leg | inclusion] is a module map onto C.
    """
    alg, p = m.algebra, hit.degree
    src, res = minimal_resolution(hit.source, p), minimal_resolution(m, p)
    if (
        any(_turned_key(alg, src.syzygy_key(d), k) != res.syzygy_key(d) for d in (p, p - 1))
        or tuple(alg.wrap(j + k) for j in src.term(p - 1).summands) != res.term(p - 1).summands
    ):
        return None
    dims, arrows = _turn(hit.cone.dims, k), _turn(hit.cone.arrow_maps, k)
    cone = QuiverModule(alg, dims, arrows, name=f"cone(d={p}, {m.describe()})", check=False)
    maps = []
    for name, dom, cod in (
        ("eta", res.syzygy(p), m),
        ("leg", res.term(p - 1).module, cone),
        ("inclusion", m, cone),
        ("projection", cone, res.syzygy(p - 1)),
    ):
        try:
            maps.append(ModuleMap(dom, cod, _turn(getattr(hit, name).blocks, k)))
        except ValueError:
            raise AssertionError(f"turned tower: {name} is not a module map") from None
    eta, leg, inclusion, projection = maps
    step = KoszulStep(m, p, eta, cone, inclusion, projection, leg)
    # The identities a direct build has by construction, vertex by vertex, with incl: syzygy^p ->
    # term(p-1) and eps: term(p-1) ->> syzygy^{p-1}: [leg | inclusion] kills the graph [incl; -eta],
    # and projection o leg = eps (projection o inclusion = 0 is check_exact's), so
    # projection o [leg | inclusion] = [eps | 0].
    f, incl, eps = m.field, res.syzygy_inclusion(p).blocks, res.cover_surjection(p - 1).blocks
    graph = zip(leg.blocks, incl, inclusion.blocks, eta.blocks)
    if any(np.any(f.matmul(g, a) != f.matmul(i, e)) for g, a, i, e in graph):
        raise AssertionError("turned tower: [leg | inclusion] does not kill [incl; -eta]")
    if any(np.any(f.matmul(q, g) != e) for q, g, e in zip(projection.blocks, leg.blocks, eps)):
        raise AssertionError("turned tower: projection o leg is not the cover surjection")
    if not eta.is_invertible():
        raise AssertionError("turned tower: eta is not an isomorphism")
    if not step.check_exact():
        raise AssertionError("turned cone short exact sequence failed exactness")
    return _stored(step)


def build_periodicity_tower(m: QuiverModule) -> KoszulStep | None:
    """The checked step whose cone is the Koszul object of M's periodicity isomorphism.

    Over kΓ/J^{n+1} a non-projective module has complexity 1, so one step reduces it to a
    projective cone; a projective module needs no step and comes back as None.  For any
    other module None means the period search failed.  The tower memo holds checked
    steps by content: an exact hit is returned as stored (its source may be another
    module object with M's content), a memo step of σ^-k M is turned by k with every
    check (see _turned_tower), and otherwise the step is built.  Only a step whose cone
    is projective is stored, under M's content id.
    """
    if is_projective(m):
        return None
    alg = m.algebra
    return _memo_read(alg, alg._towers, m.content_key(), _turned_tower, _built_tower, m)
