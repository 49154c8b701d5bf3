"""Koszul-style cones, complexity, and the periodicity step.

A cone step pushes the inclusion of the d-th syzygy into the
degree-(d-1) projective term out along an isomorphism eta: syzygy^d(X) -> X,
yielding a short exact sequence 0 -> X -> C -> syzygy^{d-1}(X) -> 0.
That pushout is the projective term itself, with inclusion incl o eta^-1
and the cover surjection as projection, so koszul_object reads the cone
off the resolution and refuses any eta that is not invertible.  Over
kΓ/J^{n+1} every non-projective module has complexity 1, so the
reduction by cones is this one step, and the gap checker reads its
length g off the step's degree d (g = 1 for a projective module, which
needs no step).

build_periodicity_tower builds M's step on every call, and nothing stores
it: detect_period finds eta, and the step checks that inclusion and
projection are module maps, that inclusion o eta is incl, that the
sequence is exact and that the cone is projective.  A failure raises
AssertionError (a built map that does not intertwine raises ValueError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .homology import Resolution, detect_period
from .modules import (
    ModuleMap,
    QuiverModule,
    UnsupportedOperation,
    decompose_serial,
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
    """Cone of an isomorphism eta: syzygy^d(X) -> X, the pushout of the resolution's inclusion along eta.

    eta's source must be the degree-d syzygy object stored in X's
    resolution, whose inclusion incl into the degree d-1 projective term P
    is pushed out, and every block of eta must be invertible, else
    ValueError.  The pushout is then P itself, read off the resolution,
    with inclusion incl o eta^-1: any pair f: P -> Y, g: X -> Y with
    f o incl = g o eta factors through P by f alone, since
    g = f o incl o eta^-1.  The cone is a module with P's dims and arrows
    (so P's content id) and the projection is the cover surjection
    P ->> syzygy^{d-1}.
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
    fld = x.field
    inverses = [fld.inverse(b) if b.shape[0] == b.shape[1] else None for b in eta.blocks]
    if any(inv is None for inv in inverses):
        raise ValueError("eta is not an isomorphism: a block is not square or not invertible")
    incl = resolution.syzygy_inclusion(degree)  # syz -> P_{d-1}
    pterm = resolution.term(degree - 1).module
    eps = resolution.cover_surjection(degree - 1)  # P_{d-1} ->> syzygy^{d-1}
    cone = QuiverModule(x.algebra, pterm.dims, pterm.arrow_maps, name=f"cone(d={degree}, {x.describe()})", check=False)
    inclusion = ModuleMap(x, cone, [fld.matmul(i, inv) for i, inv in zip(incl.blocks, inverses)])
    if any(np.any(fld.matmul(c, e) != i) for c, e, i in zip(inclusion.blocks, eta.blocks, incl.blocks)):
        raise AssertionError("cone: inclusion o eta is not the syzygy inclusion")
    projection = ModuleMap(cone, eps.target, eps.blocks)
    step = KoszulStep(source=x, degree=degree, eta=eta, cone=cone, inclusion=inclusion, projection=projection)
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


def build_periodicity_tower(m: QuiverModule) -> KoszulStep | None:
    """The checked step whose cone is the Koszul object of M's periodicity isomorphism.

    Over kΓ/J^{n+1} a non-projective module has complexity 1, so one step reduces it to a
    projective cone; a projective module needs no step and comes back as None.  A module
    with a projective summand (and another) has no period, as Ω drops that summand: it is
    refused with ValueError.  For any other module None means the period search failed.
    Every call builds its step: detect_period finds eta, koszul_object reads the step off
    M's resolution with its checks, and the cone must be projective.
    """
    if is_projective(m):
        return None
    witness = detect_period(m)
    if witness is None:
        tops = [top for top, length in decompose_serial(m) if length == m.algebra.nilpotency]
        if tops:
            raise ValueError(f"{m.describe()} has the projective summand P{tops[0]}, so it has no period")
        return None
    step = koszul_object(witness.resolution, witness.iso, witness.period)
    if not is_projective(step.cone):
        raise AssertionError("cone of a periodicity isomorphism must be projective")
    return step
