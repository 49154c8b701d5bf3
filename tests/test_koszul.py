import dataclasses

import pytest

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


def test_cone_of_zero_map_splits_degree_one(a32):
    # With eta = 0 the sequence 0 -> X -> C -> X -> 0 splits, so the cone
    # doubles X's summands.
    x = simple(a32, 1)
    res = minimal_resolution(x, 2)
    eta = ModuleMap.zero(res.syzygy(1), x)
    step = koszul_object(res, eta, 1)
    assert decompose_serial(step.cone) == sorted(decompose_serial(x) * 2)


def test_cone_of_zero_map_on_projective_gives_x_plus_cover(a32):
    # For projective X the only map syzygy(X) -> X is zero and the cone is
    # X plus the degree-0 projective term.
    x = projective(a32, 1)
    res = minimal_resolution(x, 2)
    eta = ModuleMap.zero(res.syzygy(1), x)
    step = koszul_object(res, eta, 1)
    assert decompose_serial(step.cone) == sorted(
        decompose_serial(x) + decompose_serial(res.term(0).module)
    )


def test_cone_of_zero_map_degree_two(a32):
    x = simple(a32, 2)
    res = minimal_resolution(x, 3)
    eta = ModuleMap.zero(res.syzygy(2), x)
    step = koszul_object(res, eta, 2)
    assert decompose_serial(step.cone) == sorted(
        decompose_serial(x) + decompose_serial(res.syzygy(1))
    )


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
        assert build_periodicity_tower(m).complexities == (0,)


def test_complexity_unsupported_off_family():
    alg = BoundQuiverAlgebra(Quiver(1, [(1, 1)]), nilpotency=3)
    assert alg.period_bound is None
    for f in (complexity_estimate, detect_period, build_periodicity_tower):
        with pytest.raises(UnsupportedOperation):
            f(simple(alg, 1))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_period_divides_the_bound_over_the_grid(t):
    # Omega^2 M(i, l) = M(i+n+1, l): every non-projective module is periodic
    # with a period dividing 2t, so its complexity is 1 and its tower descends to 0.
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        assert alg.period_bound == 2 * t
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        mods.append(direct_sum([uniserial(alg, 1, 1), uniserial(alg, t, n)])[0])
        for m in mods:
            w, tower = detect_period(m), build_periodicity_tower(m)
            if is_projective(m):
                assert (w, complexity_estimate(m), tower.steps, tower.complexities) == (None, 0, (), (0,)), m
            else:
                assert alg.period_bound % w.period == 0, m
                assert (complexity_estimate(m), tower.complexities) == (1, (1, 0)), m


def test_tower_for_periodic_simple(a32):
    tower = build_periodicity_tower(simple(a32, 1))
    assert tower.gap_length == 2
    assert tower.complexities == (1, 0)
    assert is_projective(tower.final_cone)


def test_tower_for_projective_is_empty(a32):
    tower = build_periodicity_tower(projective(a32, 1))
    assert tower.steps == ()
    assert tower.complexities == (0,)
    assert tower.gap_length == 1


def test_tower_period_four():
    a = nakayama_algebra(2, 2)
    tower = build_periodicity_tower(simple(a, 1))
    assert tower.gap_length == 4
    assert tower.steps[0].degree == 4


def test_tower_long_exact_shift(a32):
    # Cone vanishing turns the table periodic with the step degree.
    from quiverhom.vanishing import les_shift_holds

    s1, s2 = simple(a32, 1), simple(a32, 2)
    tower = build_periodicity_tower(s1)
    step = tower.steps[0]
    for n in [s1, s2, uniserial(a32, 3, 2)]:
        cone_table = ext_table(step.cone, n, 20)
        assert all(d == 0 for d in cone_table.dims)
        assert les_shift_holds(ext_table(s1, n, 20), step.degree)
