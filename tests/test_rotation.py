"""The step, Hom-complex and Hom-kernel memos read through the rotation σ: v -> v + 1 of kΓ/J^{n+1}.

The tests compare the library with rotation against the same library with the rotation
lookup switched off, on a fresh algebra with the same inputs, and check that a turned read
keeps the checks of a computed one.
"""

import hashlib
import json
import random
from typing import NamedTuple

import numpy as np
import pytest

import quiverhom.homology as homology
import quiverhom.koszul as koszul
import quiverhom.modules as modules
from quiverhom.algebra import BoundQuiverAlgebra, Quiver, circular_quiver, nakayama_algebra
from quiverhom.homology import minimal_resolution, stable_hom_dim
from quiverhom.koszul import build_periodicity_tower
from quiverhom.linalg import GF
from quiverhom.modules import (
    ModuleMap,
    QuiverModule,
    direct_sum,
    hom_basis,
    is_projective,
    projective,
    simple,
    uniserial,
    zero_module,
)
from quiverhom.vanishing import gap_suite_cell, nakayama_report
from test_homology import _by_content, _random_basis


def _no_rotations(algebra, *keys):
    return iter(())


def _rotation_off(mp):
    mp.setattr(modules, "_rotations", _no_rotations)


def _turned(m: QuiverModule, k: int) -> QuiverModule:
    """σ^k M: vertex v + k carries M_v, and arrow a + k acts as M's arrow a (arrow a runs a + 1 -> a + 2)."""
    t = len(m.dims)
    dims = [m.dims[(v - k) % t] for v in range(t)]
    maps = [m.arrow_maps[(a - k) % t] for a in range(t)]
    return QuiverModule(m.algebra, dims, maps, name=f"turned:{k}:{m.describe()}")


def _corpus(alg, seed: int) -> list[QuiverModule]:
    """Every uniserial, then sums of 2-3 uniserials in random bases, each followed by its rotations."""
    t, n = alg.t, alg.n
    rng = random.Random(seed)
    out = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
    for _ in range(4):
        parts = [uniserial(alg, rng.randint(1, t), rng.randint(1, n)) for _ in range(rng.randint(2, 3))]
        m = _random_basis(direct_sum(parts)[0], rng)
        out.extend(_turned(m, k) for k in range(t))
    return out


def _content(m: QuiverModule) -> tuple:
    return m.dims, tuple(a.tobytes() for a in m.arrow_maps)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_content_ids_are_interned_with_their_whole_rotation_orbit(t):
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        corpus = _corpus(alg, 100 * t + n)
        turned = [[_turned(m, k) for k in range(t)] for m in corpus]
        ids, contents = {}, {}
        for m in corpus + [x for row in turned for x in row]:
            ids.setdefault(_content(m), set()).add(m.content_key())
            contents.setdefault(m.content_key(), set()).add(_content(m))
            assert alg._contents[m.content_key()] == _content(m), (t, n, m)
        # Two modules share an id iff their dims and arrow bytes are equal.
        assert all(len(v) == 1 for v in ids.values()) and all(len(v) == 1 for v in contents.values()), (t, n)
        assert sorted(contents) == list(range(len(alg._contents))) and len(alg._orbits) == len(alg._contents)
        for m, row in zip(corpus, turned):
            key = m.content_key()
            assert alg._orbits[key] == tuple(x.content_key() for x in row), (t, n, m)
            assert all(modules._turned_key(alg, key, k) == row[k % t].content_key() for k in range(-t, 2 * t))
            assert list(modules._rotations(alg, key)) == [(k, row[-k].content_key()) for k in range(1, t)]
        x, y = corpus[0], corpus[-1]
        pairs = [(k, (_turned(x, -k).content_key(), _turned(y, -k).content_key())) for k in range(1, t)]
        assert list(modules._rotations(alg, (x.content_key(), y.content_key()))) == pairs


@pytest.mark.parametrize("t", [2, 3, 4, 6])
def test_a_content_fixed_by_a_rotation_has_a_repeating_orbit_row(t):
    alg = nakayama_algebra(t, 2)
    zero = zero_module(alg).content_key()
    assert alg._orbits[zero] == (zero,) * t
    for d in (d for d in range(1, t + 1) if t % d == 0):
        # The simples at 1, 1 + d, 1 + 2d, ...: σ^d fixes their sum, and no smaller turn does.
        key = direct_sum([simple(alg, v) for v in range(1, t + 1, d)])[0].content_key()
        row = alg._orbits[key]
        assert len(set(row)) == d and all(row[k] == row[k % d] for k in range(t)), (t, d, row)
        assert [alg._orbits[i] for i in row] == [row[k:] + row[:k] for k in range(t)]


def test_over_any_other_algebra_a_content_id_has_a_one_entry_row_and_no_rotations():
    for alg in (BoundQuiverAlgebra(circular_quiver(3), 3), BoundQuiverAlgebra(Quiver(3, [(1, 2), (2, 3)]), 2)):
        mods = [simple(alg, 1), simple(alg, 2), projective(alg, 1), zero_module(alg)]
        for m in mods:
            key = m.content_key()
            assert alg._orbits[key] == (key,) and alg._contents[key] == _content(m)
            assert modules._turned_key(alg, key, 1) == key
            assert list(modules._rotations(alg, key)) == []
        assert list(modules._rotations(alg, (mods[0].content_key(), mods[1].content_key()))) == []
        assert len({m.content_key() for m in mods}) == len(mods) == len(alg._contents)


def _counting_covers(mp) -> list:
    covered = []
    cover = modules.projective_cover

    def counting(m):
        covered.append(m.content_key())
        return cover(m)

    mp.setattr(modules, "projective_cover", counting)
    return covered


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_turned_steps_are_the_covered_steps_array_for_array(t, monkeypatch):
    turned = multi = 0
    for n in range(1, 9):
        on, off = nakayama_algebra(t, n), nakayama_algebra(t, n)
        with monkeypatch.context() as mp:
            covered = _counting_covers(mp)
            for m in _corpus(on, 100 * t + n):
                minimal_resolution(m, 2 * t + 1)
        with monkeypatch.context() as mp:
            _rotation_off(mp)
            for m in _corpus(off, 100 * t + n):
                minimal_resolution(m, 2 * t + 1)
        # Ids mean nothing across algebras: the two memos are compared by exact content.
        steps, want = on._resolution_steps, _by_content(off, off._resolution_steps)
        assert _by_content(on, steps).keys() == want.keys(), (t, n)
        for key, step in steps.items():
            ref = want[on._contents[key]]
            assert step.term.summands == ref.term.summands, (t, n, key)
            for got, exp in ((step.surj_blocks, ref.surj_blocks), (step.ker_maps, ref.ker_maps),
                             (step.incl_blocks, ref.incl_blocks)):
                assert len(got) == len(exp) == t
                assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, exp)), (t, n, key)
            assert step.ker_dims == ref.ker_dims, (t, n, key)
            assert on._contents[step.next_key] == off._contents[ref.next_key], (t, n, key)
            if key not in covered:
                turned += 1
                multi += len(step.term.summands) > 1
        assert len(covered) == len(set(covered)) < len(steps)
        # Terms with equal summands are one object.
        terms = {}
        for step in steps.values():
            assert terms.setdefault(step.term.summands, step.term) is step.term
    assert turned > 0 and multi > 0


def _solved_kernel_maps(step, field: GF) -> list:
    """The kernel's arrow maps as one solve of incl_v X = P_a incl_u per arrow: the route the library dropped."""
    P, incl = step.term.module, step.incl_blocks
    arrows = P.algebra.quiver.arrows
    return [field.solve_matrix(incl[v - 1], field.matmul(P.arrow_maps[a], incl[u - 1])) for a, (u, v) in enumerate(arrows)]


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_memo_kernel_maps_are_the_solved_maps_array_for_array(t):
    # Every uniserial, and at t = 2, 3 the random-basis sums of the corpus too, resolved through the memo,
    # covered or turned: every step's kernel maps are the solves, and its kernel dims are P's minus the module's.
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        if t <= 3:
            mods = _corpus(alg, 100 * t + n)  # every uniserial, then the sums
        else:
            mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        for m in mods:
            minimal_resolution(m, 2 * t + 1)
        for key, step in alg._resolution_steps.items():
            want = _solved_kernel_maps(step, alg.field)
            same = [w is not None and g.shape == w.shape and np.array_equal(g, w) for g, w in zip(step.ker_maps, want)]
            assert len(same) == t and all(same), (t, n, key)
            dims = alg._contents[key][0]
            assert step.ker_dims == tuple(p - d for p, d in zip(step.term.module.dims, dims, strict=True)), (t, n, key)


def _same_labeled_projective(got, want):
    """Equal summands, label, positions, dims, arrow matrices (dtype and bytes) and generator vectors."""
    assert got.summands == want.summands and got.positions == want.positions
    assert got.module.name == want.module.name and got.module.dims == want.module.dims
    for a, b in zip(got.module.arrow_maps, want.module.arrow_maps, strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for s in range(len(want.summands)):
        assert got.generator_vector(s).tobytes() == want.generator_vector(s).tobytes()


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_turned_terms_are_fresh_labeled_projectives(t, monkeypatch):
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        corpus = _corpus(alg, 100 * t + n)
        with monkeypatch.context() as mp:
            bases, path_basis = [], modules._path_basis
            mp.setattr(modules, "_path_basis", lambda *args: bases.append(args[1]) or path_basis(*args))
            for m in corpus:
                minimal_resolution(m, 2 * t + 1)
        # One path basis per summand tuple, whether its first step was covered or turned.
        assert sorted(bases) == sorted(alg._labeled_projectives), (t, n)
        for summands, term in alg._labeled_projectives.items():
            _same_labeled_projective(term, modules.LabeledProjective(alg, summands))
        assert all(alg._labeled_projectives[s.term.summands] is s.term for s in alg._resolution_steps.values())


def test_a_turn_that_breaks_the_summand_order_is_covered(monkeypatch):
    alg = nakayama_algebra(3, 2)
    base = direct_sum([uniserial(alg, 1, 1), uniserial(alg, 3, 2)])[0]  # tops (1, 3)
    minimal_resolution(base, 0)
    covered = _counting_covers(monkeypatch)
    # σ carries the tops to (2, 1): out of vertex order, so the step is covered, not turned.
    res = minimal_resolution(_turned(base, 1), 0)
    assert len(covered) == 1 and res.term(0).summands == (1, 2)
    # σ^2 M is σ of the covered σM, whose tops (1, 2) stay in order as (2, 3): turned, not covered.
    res = minimal_resolution(_turned(base, 2), 0)
    assert len(covered) == 1 and res.term(0).summands == (2, 3)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_nakayama_report_equals_the_report_without_rotation(t, monkeypatch):
    for n in range(1, 9):
        max_degree = 2 * t + 3
        with monkeypatch.context() as mp:
            covered = _counting_covers(mp)
            got = nakayama_report(t, n, max_degree, GF(101))
        # Omega^2 of a simple is a simple and Omega S_i = M(i + 1, n): every step but S_1's and
        # Omega S_1's is turned from theirs (and for n = 1, Omega S_1 = S_2 is turned too).
        assert len(covered) == (1 if n == 1 else 2), (t, n)
        with monkeypatch.context() as mp:
            _rotation_off(mp)
            want = nakayama_report(t, n, max_degree, GF(101))
        assert got == want, (t, n)


def _counting_solves(mp) -> list:
    solved = []
    solve = modules._solved_hom_stack

    def counting(m, n):
        solved.append((m.content_key(), n.content_key()))
        return solve(m, n)

    mp.setattr(modules, "_solved_hom_stack", counting)
    return solved


def _counting_reduced(mp) -> list:
    """One entry per turned non-empty Hom stack: False when it was refused, True when it was kept as it was."""
    seen = []
    reduced = modules._reduced
    mp.setattr(modules, "_reduced", lambda rows: seen.append(reduced(rows)) or seen[-1])
    return seen


def _logging_hom_stacks(mp) -> list:
    """(outcome, content pair) per turn or solve of a Hom stack, in call order: "turned", "refused" or "solved"."""
    log = []
    turn, solve = modules._turned_hom_stack, modules._solved_hom_stack

    def turning(hit, k, m, n):
        got = turn(hit, k, m, n)
        log.append(("refused" if got is None else "turned", (m.content_key(), n.content_key())))
        return got

    def solving(m, n):
        log.append(("solved", (m.content_key(), n.content_key())))
        return solve(m, n)

    mp.setattr(modules, "_turned_hom_stack", turning)
    mp.setattr(modules, "_solved_hom_stack", solving)
    return log


def _counting_stable_ranks(mp) -> list:
    """One (M, ΩN) content pair per Hom-complex entry that stable_hom_dim builds."""
    built = []
    build = homology._omega_entry

    def counting(res, step):
        built.append((res.syzygy_key(0), step.next_key))
        return build(res, step)

    mp.setattr(homology, "_omega_entry", counting)
    return built


class _Run(NamedTuple):
    """One run of one (t, n) over the _corpus modules, then the indecomposable projectives."""

    algebra: BoundQuiverAlgebra
    mods: list
    maps: list  # hom_basis over every ordered pair of mods, in order
    kernels: dict  # the Hom stacks after those calls, keyed by content ids
    solved: list  # the content pairs whose Hom systems those calls solved
    reduced: list  # what _reduced said of each turned non-empty stack in those calls
    log: list  # the outcome of each turn or solve in those calls, with its content pair
    stable: list  # then stable_hom_dim over every ordered pair of the _corpus modules, in order
    ranks: list  # the (M, ΩN) content pairs whose Hom-complex entries those calls built


def _run(t: int, n: int, rotation: bool) -> _Run:
    alg = nakayama_algebra(t, n)
    with pytest.MonkeyPatch.context() as mp:
        if not rotation:
            _rotation_off(mp)
        solved, reduced, ranks = _counting_solves(mp), _counting_reduced(mp), _counting_stable_ranks(mp)
        log = _logging_hom_stacks(mp)
        corpus = _corpus(alg, 100 * t + n)
        mods = corpus + [projective(alg, i) for i in range(1, t + 1)]
        maps = [hom_basis(x, y) for x in mods for y in mods]
        kernels, solved, reduced, log = dict(alg._hom_kernels), solved[:], reduced[:], log[:]
        stable = [stable_hom_dim(x, y) for x in corpus for y in corpus]
    return _Run(alg, mods, maps, kernels, solved, reduced, log, stable, ranks)


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 6], ids=str)
def runs(request) -> dict[int, tuple[_Run, _Run]]:
    """{n: (with rotation, without)} for n = 1..8 at t = request.param, each cell run once and read by the
    Hom-stack and stable-Hom tests below.  A module-scoped parameter groups those tests by t, so one t's
    runs are held at a time; the run without rotation solves every system and builds every rank."""
    return {n: (_run(request.param, n, True), _run(request.param, n, False)) for n in range(1, 9)}


def test_turned_hom_kernels_are_the_solved_kernels_array_for_array(runs):
    turned = refused = 0
    for n, (on, off) in runs.items():
        t, want = on.algebra.t, _by_content(off.algebra, off.kernels)
        assert _by_content(on.algebra, on.kernels).keys() == want.keys(), (t, n)
        for key, ker in on.kernels.items():
            ref = want[on.algebra._contents[key[0]], on.algebra._contents[key[1]]]
            assert ker.shape == ref.shape and np.array_equal(ker, ref), (t, n, key)
            assert not ker.flags.writeable
        for got, exp in zip(on.maps, off.maps, strict=True):
            assert len(got) == len(exp), (t, n)
            for g, e in zip(got, exp):
                assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(g.blocks, e.blocks, strict=True))
        assert len(on.solved) == len(set(on.solved)) < len(on.kernels) == len(off.solved)
        # Every turned non-empty stack is tested for the reduced form; the random-basis sums get some refused.
        assert on.reduced.count(True) <= len(on.kernels) - len(on.solved) and off.reduced == []
        # A miss reads its key's rotations until one turns, else solves: every refusal is followed by another
        # rotation or a solve of that key, and the last outcome is what the memo stores.
        outcomes: dict[tuple, list] = {}
        for outcome, key in on.log:
            outcomes.setdefault(key, []).append(outcome)
        assert outcomes.keys() == on.kernels.keys(), (t, n)
        for key, seq in outcomes.items():
            assert seq[-1] in ("turned", "solved") and seq[:-1] == ["refused"] * (len(seq) - 1), (t, n, key)
        assert [o for o, _ in on.log].count("refused") == on.reduced.count(False), (t, n)
        assert {o for o, _ in off.log} == {"solved"}
        turned += len(on.kernels) - len(on.solved)
        refused += on.reduced.count(False)
    assert turned > 0 and refused > 0


def test_a_turned_hom_kernel_is_checked_before_it_is_stored():
    alg = nakayama_algebra(3, 2)
    m = n = uniserial(alg, 2, 2)
    src_m = src_n = uniserial(alg, 1, 2)
    key, src = (m.content_key(), n.content_key()), (src_m.content_key(), src_n.content_key())
    assert tuple(modules._turned_key(alg, x, -1) for x in key) == src
    # The padded stack of σ^-1 (M, M) = (M(1, 2), M(1, 2)), a writeable array, whose one map is
    # swapped for a unit map that the system does not kill.
    col_off = modules._hom_offsets(src_m, src_n)
    system = modules._hom_system(src_m, src_n, col_off)
    assert alg.field.kernel_matrix(system).shape[1] == 1
    unit = alg.field.eye(col_off[-1])[next(c for c in range(col_off[-1]) if np.any(system[:, c]))]
    blocks = [unit[col_off[w] : col_off[w + 1]].reshape(1, r, c) for w, (r, c) in enumerate(zip(src_n.dims, src_m.dims))]
    planted = modules._padded(blocks, max(src_n.dims), max(src_m.dims))
    before = planted.copy()
    alg._hom_kernels[src] = planted
    with pytest.raises(AssertionError, match="does not intertwine"):
        hom_basis(m, n)
    assert key not in alg._hom_kernels
    assert np.array_equal(planted, before)


def test_a_turned_hom_stack_not_in_solved_form_is_refused_and_the_system_solved(monkeypatch):
    alg, fresh = nakayama_algebra(3, 2), nakayama_algebra(3, 2)
    m = n = uniserial(alg, 2, 2)
    src_m = src_n = uniserial(alg, 1, 2)
    key, src = (m.content_key(), n.content_key()), (src_m.content_key(), src_n.content_key())
    assert tuple(modules._turned_key(alg, x, -1) for x in key) == src
    # Twice the solved stack of σ^-1 (M, M): the same span, but its maps' last nonzero entries are 2s.
    solved = modules._solved_hom_stack(src_m, src_n)
    planted = (2 * solved) % alg.field.p
    assert len(planted) and not modules._reduced(planted.reshape(len(planted), -1).tolist())
    alg._hom_kernels[src] = planted
    with monkeypatch.context() as mp:
        solves, reduced = _counting_solves(mp), _counting_reduced(mp)
        maps = hom_basis(m, n)
    assert reduced == [False] and solves == [key]
    want = modules._solved_hom_stack(uniserial(fresh, 2, 2), uniserial(fresh, 2, 2))
    stack = alg._hom_kernels[key]
    assert stack.shape == want.shape and np.array_equal(stack, want) and not stack.flags.writeable
    assert len(maps) == len(want) and alg._hom_kernels[src] is planted


def _rebased(rows: np.ndarray, field: GF) -> np.ndarray:
    """The rows' span in the form of a solved kernel basis: the RREF of the rows read right to left, turned back."""
    out, _ = field.rref(rows[:, ::-1])
    return out[::-1, ::-1]


def _reduced_rows(rng: random.Random, k: int, width: int, p: int) -> list[list[int]]:
    """k rows in the solved form: last nonzero entries 1 at ascending columns, 0 there in every other row."""
    pivots = sorted(rng.sample(range(width), k))
    rows = [[rng.randrange(p) if c < pc else 0 for c in range(width)] for pc in pivots]
    for i, pc in enumerate(pivots):
        for j, row in enumerate(rows):
            row[pc] = int(i == j)
    return rows


def test_the_reduced_test_holds_exactly_when_re_basing_changes_nothing():
    rng, field = random.Random(26), GF(3)
    outcomes = {}
    for trial in range(4000):
        k, width = rng.randint(0, 3), rng.randint(1, 6)
        if k > width:
            continue
        rows = _reduced_rows(rng, k, width, field.p)
        # Perturb most of them: a zero row anywhere, a random entry (a pivot of 2, an entry in another
        # row's pivot column), or two rows swapped (unsorted pivots).
        kind = rng.choice(["kept", "zero", "entry", "swap", "random"])
        if kind == "zero" and k:
            rows[rng.randrange(k)] = [0] * width
        elif kind == "entry" and k:
            rows[rng.randrange(k)][rng.randrange(width)] = rng.randrange(field.p)
        elif kind == "swap" and k > 1:
            i, j = rng.sample(range(k), 2)
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "random":
            rows = [[rng.randrange(field.p) for _ in range(width)] for _ in range(k)]
        a = np.array(rows, dtype=np.int64).reshape(k, width)
        got = modules._reduced(rows)
        assert got == np.array_equal(_rebased(a, field), a), (rows, got)
        outcomes[kind, got] = outcomes.get((kind, got), 0) + 1
    # Both answers occur for every kind of perturbation that can leave the rows reduced or not.
    assert all(outcomes.get((kind, b)) for kind in ("zero", "entry", "random") for b in (True, False)), outcomes
    assert outcomes.get(("kept", True)) and not outcomes.get(("kept", False)) and outcomes.get(("swap", False))
    # The named cases, each against the RREF as well.
    for rows, want in [
        ([], True),
        ([[0, 0, 0]], True),  # a zero row before any other is where the RREF puts it
        ([[0, 0, 0], [1, 0, 0], [0, 2, 1]], True),
        ([[1, 0, 0], [0, 0, 0]], False),  # a zero row after a nonzero one
        ([[0, 2, 0]], False),  # a pivot of 2
        ([[0, 1, 0], [1, 0, 0]], False),  # unsorted pivots
        ([[1, 0, 0], [1, 1, 0]], False),  # an entry in another map's pivot column
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], True),
    ]:
        a = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        assert modules._reduced(rows) == want == np.array_equal(_rebased(a, field), a), rows


@pytest.mark.parametrize("runs", [2, 3, 4], ids=str, indirect=True)
def test_hom_stacks_are_the_padded_solved_kernels_and_hom_basis_reads_them_as_views(runs):
    for n in range(1, 6):
        on, off = runs[n]
        alg, t, solved = on.algebra, on.algebra.t, _by_content(off.algebra, off.kernels)
        for (x, y), maps in zip(((x, y) for x in on.mods for y in on.mods), on.maps, strict=True):
            key = (x.content_key(), y.content_key())
            if not any(a * b for a, b in zip(x.dims, y.dims)):
                assert maps == [] and key not in alg._hom_kernels
                continue
            # The stacks without rotation are solved: kernel_matrix's columns scattered and padded.
            stack, want = alg._hom_kernels[key], solved[_content(x), _content(y)]
            assert stack.shape == want.shape and np.array_equal(stack, want), (t, n, x, y)
            assert not stack.flags.writeable
            assert len(maps) == len(stack)
            for j, f in enumerate(maps):
                for w, b in enumerate(f.blocks):
                    assert np.shares_memory(b, stack) or b.size == 0
                    assert b.shape == (y.dims[w], x.dims[w]) and np.array_equal(b, want[j, w, : y.dims[w], : x.dims[w]])
                    with pytest.raises(ValueError, match="read-only"):
                        b[...] = 0


def test_hom_basis_maps_slice_their_blocks_on_first_read():
    alg = nakayama_algebra(3, 4)
    rng = random.Random(3)
    x = _random_basis(direct_sum([uniserial(alg, 1, 3), uniserial(alg, 2, 4)])[0], rng)
    y, z = uniserial(alg, 1, 4), projective(alg, 1)
    maps, stack = hom_basis(x, y), alg._hom_kernels[x.content_key(), y.content_key()]
    assert maps and all("blocks" not in vars(f) for f in maps)
    for j, f in enumerate(maps):
        eager = [stack[j, w, :r, :c] for w, (r, c) in enumerate(zip(y.dims, x.dims))]
        blocks = f.blocks
        assert f.blocks is blocks and len(blocks) == len(eager)
        for b, e in zip(blocks, eager):
            assert b.shape == e.shape and np.array_equal(b, e) and not b.flags.writeable
            assert np.shares_memory(b, stack) or b.size == 0
    # The maps act as ModuleMaps built from the same blocks with every check.
    for f in maps:
        plain = ModuleMap(x, y, [b.copy() for b in f.blocks])
        assert f.rank() == plain.rank() and not f.is_zero and not plain.is_zero
        assert _same_blocks(f.scale(2).blocks, plain.scale(2).blocks)
        for g in hom_basis(y, z):
            eager = ModuleMap(y, z, [b.copy() for b in g.blocks])
            assert _same_blocks(g.compose(f).blocks, eager.compose(plain).blocks)
            ModuleMap(x, z, g.compose(f).blocks)  # the composite intertwines
    other = nakayama_algebra(3, 4)
    with pytest.raises(ValueError, match="same algebra"):
        hom_basis(x, uniserial(other, 1, 4))


def test_an_empty_hom_basis_is_turned_and_stored_as_an_empty_stack(monkeypatch):
    # Hom(M(1, 2), M(2, 1)) over (6, 8): the system has one unknown, at vertex 2, and no solution.
    alg = nakayama_algebra(6, 8)
    src_m, src_n = uniserial(alg, 1, 2), uniserial(alg, 2, 1)
    m, n = uniserial(alg, 2, 2), uniserial(alg, 3, 1)
    assert modules._hom_offsets(src_m, src_n)[-1] == 1
    with monkeypatch.context() as mp:
        solved, reduced = _counting_solves(mp), _counting_reduced(mp)
        checks = []
        failed_arrow = modules._failed_arrow
        mp.setattr(modules, "_failed_arrow", lambda m, n, s: checks.append(len(s)) or failed_arrow(m, n, s))
        assert hom_basis(src_m, src_n) == [] and hom_basis(m, n) == []
    assert solved == [(src_m.content_key(), src_n.content_key())]
    # An empty stack has no map to check or refuse.
    assert checks == [] and reduced == []
    for key in solved + [(m.content_key(), n.content_key())]:
        stack = alg._hom_kernels[key]
        assert stack.shape == (0, 6, 1, 1) and not stack.flags.writeable


def _stacked_stable_hom_dim(m: QuiverModule, n: QuiverModule) -> int:
    """stable_hom_dim composed vertex by vertex: one np.stack of the through maps' blocks per vertex."""
    basis = hom_basis(m, n)
    if not basis:
        return 0
    step = modules._step(n.algebra, n.content_key(), lambda: n)
    through = hom_basis(m, step.term.module)
    if not through:
        return len(basis)
    f = m.field
    rows = np.hstack(
        [
            f.matmul(s, np.stack([h.blocks[v] for h in through])).reshape(len(through), -1)
            for v, s in enumerate(step.surj_blocks)
        ]
    )
    return len(basis) - f.rank(rows)


@pytest.mark.parametrize("runs", [2, 3, 4], ids=str, indirect=True)
def test_stable_hom_in_one_product_equals_the_per_vertex_composition(runs):
    for n in range(1, 6):
        on, _ = runs[n]
        corpus = on.mods[: -on.algebra.t]
        pairs = [(x, y) for x in corpus for y in corpus]
        for (x, y), got in zip(pairs, on.stable, strict=True):
            assert got == _stacked_stable_hom_dim(x, y), (on.algebra.t, n, x, y)


def test_stable_hom_dims_equal_the_dims_without_rotation(runs):
    for n, (on, off) in runs.items():
        assert on.stable == off.stable, (on.algebra.t, n)
        # Each (M, ΩN) entry is built once, and read through σ when a turn of its pair was built first.
        assert len(on.ranks) == len(set(on.ranks)) < len(on.algebra._hom_complex_ranks), (on.algebra.t, n)
        assert len(off.ranks) == len(off.algebra._hom_complex_ranks)


def test_stable_hom_solves_one_hom_system_per_rotation_orbit_in_any_query_order(monkeypatch):
    t, n = 6, 8
    counts = []
    for seed in (1, 2):
        alg = nakayama_algebra(t, n)
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 1)]
        pairs = [(x, y) for x in mods for y in mods]
        random.Random(seed).shuffle(pairs)
        with monkeypatch.context() as mp:
            solved, reduced, ranks = _counting_solves(mp), _counting_reduced(mp), _counting_stable_ranks(mp)
            for x, y in pairs:
                stable_hom_dim(x, y)
        # Every content pair here is (uniserial, uniserial) or (uniserial, P_j); σ moves each
        # through t distinct pairs, so one solve or entry build per orbit is one per t memo entries.
        assert len(solved) * t == len(alg._hom_kernels) and len(ranks) * t == len(alg._hom_complex_ranks)
        # Every turned stack between uniserials is already reduced: none is refused.
        assert reduced and all(reduced)
        counts.append((len(solved), len(ranks), len(reduced)))
    assert counts[0] == counts[1] and counts[0][:2] == (397, 160)


def test_a_turned_stable_rank_is_the_planted_entry_it_reads():
    alg = nakayama_algebra(3, 2)
    mods = [uniserial(alg, 1, length) for length in range(1, 3)] + [uniserial(alg, 2, length) for length in range(1, 3)]
    for x in mods:
        for y in mods:
            stable_hom_dim(x, y)
    ranks = alg._hom_complex_ranks

    def omega_key(m, n):
        return m.content_key(), modules._step(alg, n.content_key(), lambda: n).next_key

    # A pair whose (M, ΩN) entry was built, while that of its turn by σ was not.
    x, y = next(
        (x, y)
        for x in mods
        for y in mods
        if omega_key(x, y) in ranks and omega_key(_turned(x, 1), _turned(y, 1)) not in ranks
    )
    src, (h, rank) = omega_key(x, y), ranks[omega_key(x, y)]
    m, n = _turned(x, 1), _turned(y, 1)
    key = omega_key(m, n)
    assert tuple(modules._turned_key(alg, i, -1) for i in key) == src
    # A wrong rank planted under σ^-1 of the pair is what the turned read returns, and it is stored.
    ranks[src] = (h, rank + 7)
    cover = modules._step(alg, n.content_key(), lambda: n).term.module
    want = len(hom_basis(m, n)) - len(hom_basis(m, cover)) + h - rank - 7
    assert stable_hom_dim(m, n) == want and ranks[key] == (h, rank + 7)


def _same_blocks(got, exp) -> bool:
    return len(got) == len(exp) and all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, exp))


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_turned_towers_are_the_built_towers_array_for_array(t, monkeypatch):
    # Every step is built, but from σ-turned resolution steps and Hom stacks when rotation is on.
    for n in range(1, 9):
        on, off = nakayama_algebra(t, n), nakayama_algebra(t, n)
        towers = {}
        for alg in (on, off):
            with monkeypatch.context() as mp:
                if alg is off:
                    _rotation_off(mp)
                towers[alg] = [(is_projective(m), build_periodicity_tower(m)) for m in _corpus(alg, 100 * t + n)]
        for (projective_source, g), (_, e) in zip(towers[on], towers[off], strict=True):
            # A projective source has no step; every other source has one.
            assert (g is None) == (e is None) == projective_source, (t, n)
            if g is not None:
                assert g.degree == e.degree, (t, n)
                assert on._contents[g.cone.content_key()] == off._contents[e.cone.content_key()], (t, n)
                for name in ("eta", "inclusion", "projection"):
                    assert _same_blocks(getattr(g, name).blocks, getattr(e, name).blocks), (t, n, name)


# The cells of the `gap_suite` benchmark workload, in its order (bench/workloads.py, GapSuite.cells).
GAP_SUITE_CELLS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 5), (4, 1), (4, 3), (4, 4), (5, 4), (6, 8)]


def _counting_builds(mp) -> list:
    """One entry per koszul_object call."""
    built, build = [], koszul.koszul_object
    mp.setattr(koszul, "koszul_object", lambda *args: built.append(1) or build(*args))
    return built


def test_gap_suite_cells_equal_the_cells_without_rotation(monkeypatch):
    with monkeypatch.context() as mp:
        built = _counting_builds(mp)
        got = [gap_suite_cell(t, n, 40, 101, 50) for t, n in GAP_SUITE_CELLS]
    with monkeypatch.context() as mp:
        _rotation_off(mp)
        direct = _counting_builds(mp)
        want = [gap_suite_cell(t, n, 40, 101, 50) for t, n in GAP_SUITE_CELLS]
    assert got == want
    assert all(cell["violations"] == [] for cell in got)
    # Byte for byte the reports recorded when every Koszul cone was still a cokernel.
    digest = hashlib.sha256(json.dumps(got, sort_keys=True).encode()).hexdigest()
    assert digest == "27208b756b80620e65a4a413781840cf18693032f8caf957cf26ff421823f44c"
    # Each of the 129 non-projective sources builds its step.
    assert (len(built), len(direct)) == (129, 129)


def test_the_memo_reader_reads_exact_then_turned_then_built():
    alg = nakayama_algebra(3, 2)
    key = uniserial(alg, 2, 2).content_key()
    calls = []

    def turn(hit, k, *args):
        calls.append(("turn", hit, k, args))
        return None if hit == "refused" else f"{hit} turned by {k}"

    def build(*args):
        calls.append(("build", args))
        return "built"

    memo = {key: "exact"}
    assert modules._memo_read(alg, memo, key, turn, build, "arg") == "exact" and calls == []
    # σ^-1 of the key is refused, so σ^-2 is turned.
    memo = {modules._turned_key(alg, key, -1): "refused", modules._turned_key(alg, key, -2): "hit"}
    assert modules._memo_read(alg, memo, key, turn, build, "arg") == "hit turned by 2"
    assert calls == [("turn", "refused", 1, ("arg",)), ("turn", "hit", 2, ("arg",))]
    assert memo[key] == "hit turned by 2"
    # Every rotation refused: build.
    calls.clear()
    memo = {modules._turned_key(alg, key, -k): "refused" for k in (1, 2)}
    assert modules._memo_read(alg, memo, key, turn, build, "arg") == "built"
    assert [c[0] for c in calls] == ["turn", "turn", "build"] and memo[key] == "built"
