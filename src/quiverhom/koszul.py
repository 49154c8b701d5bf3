"""Koszul-style cones, complexity, and reduction towers.

A cone step pushes the inclusion of the d-th syzygy into the
degree-(d-1) projective term out along a map eta: syzygy^d(X) -> X,
yielding a short exact sequence 0 -> X -> C -> syzygy^{d-1}(X) -> 0.
The cone of an isomorphism is projective, which is the operational base
case the gap checker consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .homology import Resolution, detect_period
from .modules import (
    ModuleMap,
    QuiverModule,
    UnsupportedOperation,
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
    """Cone of eta: syzygy^d(X) -> X, built as a pushout against the resolution.

    eta's source must be the degree-d syzygy object stored in X's
    resolution (the pushout leg is that syzygy's inclusion into the
    degree d-1 projective term).
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
    _, (inc_p, inc_x), (proj_p, _) = direct_sum([pterm, x])
    graph = inc_p.compose(incl) + inc_x.compose(eta.scale(-1))
    cone, quot = cokernel(graph, name=f"cone(d={degree}, {x.describe()})")
    inclusion = quot.compose(inc_x)
    # The projection is induced by the cover surjection on the projective leg.
    eps = resolution.cover_surjection(degree - 1)  # P_{d-1} ->> syzygy^{d-1}
    psi = eps.compose(proj_p)
    fld = x.field
    blocks = []
    for v in range(1, x.algebra.quiver.vertex_count + 1):
        sol = fld.solve_matrix(quot.block(v).T, psi.block(v).T)
        if sol is None:
            raise AssertionError("cone projection is not well defined")
        blocks.append(sol.T)
    projection = ModuleMap(cone, resolution.syzygy(degree - 1), blocks)
    step = KoszulStep(
        source=x, degree=degree, eta=eta, cone=cone, inclusion=inclusion, projection=projection
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


# -- reduction towers --------------------------------------------------------


@dataclass
class ReductionTower:
    """A chain of cone steps certifying complexity descent down to zero."""

    base: QuiverModule
    steps: tuple[KoszulStep, ...]

    @property
    def complexities(self) -> tuple[int, ...]:
        """The complexity of the base and of each step's cone."""
        return tuple(complexity_estimate(x) for x in (self.base, *(s.cone for s in self.steps)))

    @property
    def gap_length(self) -> int:
        """Sum of step degrees minus the step count, plus one."""
        return sum(s.degree for s in self.steps) - len(self.steps) + 1

    @property
    def final_cone(self) -> QuiverModule:
        return self.steps[-1].cone if self.steps else self.base


def build_periodicity_tower(m: QuiverModule) -> ReductionTower | None:
    """The one-step tower whose cone is the Koszul object of a periodicity isomorphism.

    Projective (complexity-0) modules need no steps and come back as the
    empty tower; every other module has a period, so None means the search failed.
    """
    if is_projective(m):
        return ReductionTower(base=m, steps=())
    witness = detect_period(m)
    if witness is None:
        return None
    step = koszul_object(witness.resolution, witness.iso, witness.period)
    if not is_projective(step.cone):
        raise AssertionError("cone of a periodicity isomorphism must be projective")
    return ReductionTower(base=m, steps=(step,))
