import dataclasses

import numpy as np
import pytest

import quiverhom.koszul as koszul
from quiverhom.algebra import BoundQuiverAlgebra, Quiver, nakayama_algebra
from quiverhom.homology import detect_period, ext_table, minimal_resolution
from quiverhom.koszul import build_periodicity_tower, complexity_estimate, koszul_object
from quiverhom.modules import (
    ModuleMap,
    UnsupportedOperation,
    decompose_serial,
    direct_sum,
    is_projective,
    projective,
    simple,
    uniserial,
    zero_module,
)
from quiverhom.vanishing import gap_check


@pytest.fixture(scope="module")
def a32():
    return nakayama_algebra(3, 2)


def periodicity_step(module):
    w = detect_period(module)
    return koszul_object(w.resolution, w.iso, w.period), w


def test_cone_of_periodicity_iso_is_projective(a32):
    step, w = periodicity_step(simple(a32, 1))
    assert w.period == 2
    assert step.cone.name == "cone(d=2, simple:1)"
    assert is_projective(step.cone)
    assert step.check_exact()


def test_cone_dimension_identity(a32):
    for mod in [simple(a32, 1), uniserial(a32, 2, 2)]:
        step, w = periodicity_step(mod)
        omega_prev = w.resolution.syzygy(w.period - 1)
        assert step.cone.total_dim == mod.total_dim + omega_prev.total_dim


def test_check_exact_rejects_a_cone_one_simple_too_large(a32):
    step, _ = periodicity_step(uniserial(a32, 2, 2))
    assert step.check_exact()
    big, (inc_c, _), (proj_c, _) = direct_sum([step.cone, simple(a32, 1)])
    padded = dataclasses.replace(
        step, cone=big, inclusion=inc_c.compose(step.inclusion), projection=step.projection.compose(proj_c)
    )
    # Injective, surjective and composing to zero: only the dimension identity can fail.
    assert padded.inclusion.is_injective() and padded.projection.is_surjective()
    assert padded.projection.compose(padded.inclusion).is_zero
    assert big.total_dim == step.cone.total_dim + 1
    assert not padded.check_exact()


def test_a_zero_eta_is_refused(a32):
    # Omega^2 S_1 = S_1 over (3, 2): eta = 0 has square blocks, and they are singular.
    x = simple(a32, 1)
    res = minimal_resolution(x, 2)
    with pytest.raises(ValueError, match="not an isomorphism"):
        koszul_object(res, ModuleMap.zero(res.syzygy(2), x), 2)
    # In degree 1 the blocks are not even square.
    with pytest.raises(ValueError, match="not an isomorphism"):
        koszul_object(res, ModuleMap.zero(res.syzygy(1), x), 1)


def test_an_eta_with_one_singular_block_is_refused(a32):
    # X = S_1 + S_2 is semisimple, so the period isomorphism with its vertex-2 block zeroed is still a module map.
    x = direct_sum([simple(a32, 1), simple(a32, 2)])[0]
    w = detect_period(x)
    blocks = [b if v != 1 else 0 * b for v, b in enumerate(w.iso.blocks)]
    eta = ModuleMap(w.iso.source, w.iso.target, blocks)
    assert [b.shape for b in eta.blocks] == [(1, 1), (1, 1), (0, 0)]
    with pytest.raises(ValueError, match="not an isomorphism"):
        koszul_object(w.resolution, eta, w.period)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_the_cone_of_a_period_isomorphism_is_the_resolutions_term(t):
    # The pushout of incl: syzygy^p -> P_{p-1} along an isomorphism eta is P_{p-1} with inclusion = incl o eta^-1.
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        for i in range(1, t + 1):
            for length in range(1, n + 1):
                m = uniserial(alg, i, length)
                step, p = build_periodicity_tower(m), _omega_period(t, n, i, length)
                res, f = minimal_resolution(m, p), alg.field
                assert step.degree == p, (t, n, i, length)
                assert step.cone.content_key() == res.term(p - 1).module.content_key(), (t, n, i, length)
                composed = (f.matmul(a, e) for a, e in zip(step.inclusion.blocks, step.eta.blocks))
                assert all(np.array_equal(a, b) for a, b in zip(composed, res.syzygy_inclusion(p).blocks, strict=True))


@pytest.mark.parametrize("t, n, i, length", [(3, 2, 1, 1), (3, 2, 3, 1), (2, 2, 1, 1), (4, 3, 2, 2), (5, 4, 4, 1)])
def test_a_planted_wrong_cover_surjection_raises(t, n, i, length):
    alg = nakayama_algebra(t, n)
    m = uniserial(alg, i, length)
    w = detect_period(m)
    res, p = w.resolution, w.period
    # One entry of the cached cover surjection onto syzygy^{p-1}, changed by 1 and not checked.  That
    # syzygy has length >= 2 here, so the changed map is not a unit times the cover, which would be a cover.
    assert res.syzygy(p - 1).total_dim >= 2
    eps = res.cover_surjection(p - 1)
    blocks = [b.copy() for b in eps.blocks]
    v = next(v for v, b in enumerate(blocks) if b.size)
    blocks[v][0, 0] = (blocks[v][0, 0] + 1) % alg.field.p
    res._objects["cover", p - 1] = ModuleMap(eps.source, eps.target, blocks, check=False)
    with pytest.raises((ValueError, AssertionError)):
        koszul_object(res, w.iso, p)
    with pytest.raises((ValueError, AssertionError)):
        build_periodicity_tower(m)


def test_a_tower_without_a_period_is_none(monkeypatch):
    alg = nakayama_algebra(3, 2)
    monkeypatch.setattr(koszul, "detect_period", lambda m: None)
    assert build_periodicity_tower(uniserial(alg, 1, 2)) is None


def test_a_module_with_a_projective_summand_is_refused_as_input_not_reported_as_a_failed_search(a32):
    # Ω drops the summand P_1, so no syzygy of S_1 + P_1 is isomorphic to it; Ext against it is S_1's.
    m, _, _ = direct_sum([simple(a32, 1), projective(a32, 1)])
    assert detect_period(m) is None and not is_projective(m)
    with pytest.raises(ValueError, match="projective summand P1"):
        build_periodicity_tower(m)


def test_a_step_whose_cone_is_not_projective_raises(a32, monkeypatch):
    # The step passes every check of koszul_object; only the cone is planted as not projective.
    projective_test = koszul.is_projective
    monkeypatch.setattr(koszul, "is_projective", lambda m: not m.name.startswith("cone(") and projective_test(m))
    with pytest.raises(AssertionError, match="must be projective"):
        build_periodicity_tower(simple(a32, 1))


def test_cone_scaling_invariance(a32):
    x = simple(a32, 1)
    w = detect_period(x)
    base = koszul_object(w.resolution, w.iso, w.period)
    for unit in (2, 57, 100):
        scaled = koszul_object(w.resolution, w.iso.scale(unit), w.period)
        assert decompose_serial(scaled.cone) == decompose_serial(base.cone)
        assert is_projective(scaled.cone)


def test_cone_rejects_wrong_source(a32):
    x = simple(a32, 1)
    res = minimal_resolution(x, 4)
    eta = ModuleMap.zero(res.syzygy(2), x)
    with pytest.raises(ValueError):
        koszul_object(res, eta, 1)


def test_complexity_of_projective_is_zero(a32):
    for m in [projective(a32, 2), zero_module(a32)]:
        assert complexity_estimate(m) == 0
        assert build_periodicity_tower(m) is None


def test_complexity_unsupported_off_family():
    alg = BoundQuiverAlgebra(Quiver(1, [(1, 1)]), nilpotency=3)
    assert alg.period_bound is None
    for f in (complexity_estimate, detect_period, build_periodicity_tower):
        with pytest.raises(UnsupportedOperation):
            f(simple(alg, 1))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_period_divides_the_bound_over_the_grid(t):
    # Omega^2 M(i, l) = M(i+n+1, l): every non-projective module is periodic
    # with a period dividing 2t, so its complexity is 1 and one step's cone has complexity 0.
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        assert alg.period_bound == 2 * t
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        mods.append(direct_sum([uniserial(alg, 1, 1), uniserial(alg, t, n)])[0])
        for m in mods:
            w, step = detect_period(m), build_periodicity_tower(m)
            if is_projective(m):
                assert (w, complexity_estimate(m), step) == (None, 0, None), m
            else:
                assert alg.period_bound % w.period == 0, m
                assert (complexity_estimate(m), step.degree, complexity_estimate(step.cone)) == (1, w.period, 0), m


def _omega_period(t, n, i, length):
    """The least p >= 1 with Omega^p M(i, l) = M(i, l), from Omega M(i, l) = M(i + l, n + 1 - l)."""
    j, k, p = (i + length - 1) % t + 1, n + 1 - length, 1
    while (j, k) != (i, length):
        j, k, p = (j + k - 1) % t + 1, n + 1 - k, p + 1
    return p


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_gap_lengths_are_the_closed_form_omega_periods(t):
    # An oracle that shares no code with detect_period: a non-projective uniserial's gap length
    # is its Omega-period; a projective has no step and gap length 1.
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        target = simple(alg, 1)
        for i in range(1, t + 1):
            for length in range(1, n + 2):
                m = uniserial(alg, i, length)
                step = build_periodicity_tower(m)
                g = gap_check(ext_table(m, target, 1), step).gap_length
                if length == n + 1:
                    assert (step, g) == (None, 1), (t, n, i, length)
                else:
                    assert step.degree == g == _omega_period(t, n, i, length), (t, n, i, length)


def test_tower_for_periodic_simple(a32):
    step = build_periodicity_tower(simple(a32, 1))
    assert step.degree == 2
    assert (complexity_estimate(step.source), complexity_estimate(step.cone)) == (1, 0)
    assert is_projective(step.cone)


def test_tower_for_projective_is_empty(a32):
    p = projective(a32, 1)
    assert build_periodicity_tower(p) is None
    assert complexity_estimate(p) == 0
    assert gap_check(ext_table(p, simple(a32, 1), 4), None).gap_length == 1


def test_tower_period_four():
    a = nakayama_algebra(2, 2)
    s1 = simple(a, 1)
    step = build_periodicity_tower(s1)
    assert step.degree == 4
    assert gap_check(ext_table(s1, s1, 4), step).gap_length == 4


def test_tower_long_exact_shift(a32):
    # Cone vanishing turns the table periodic with the step degree.
    from quiverhom.vanishing import les_shift_holds

    s1, s2 = simple(a32, 1), simple(a32, 2)
    step = build_periodicity_tower(s1)
    for n in [s1, s2, uniserial(a32, 3, 2)]:
        cone_table = ext_table(step.cone, n, 20)
        assert all(d == 0 for d in cone_table.dims)
        assert les_shift_holds(ext_table(s1, n, 20), step.degree)
