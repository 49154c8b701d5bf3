import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverhom.homology as homology
import quiverhom.modules as modules
from quiverhom.algebra import BoundQuiverAlgebra, Quiver, nakayama_algebra
from quiverhom.homology import (
    Resolution,
    betti_ext_dims,
    detect_period,
    ext_dim,
    ext_dims,
    ext_table,
    minimal_resolution,
    omega_map,
    stable_hom_dim,
    syzygy,
)
from quiverhom.koszul import build_periodicity_tower, complexity_estimate
from quiverhom.linalg import GF
from quiverhom.modules import (
    LabeledProjective,
    ModuleMap,
    QuiverModule,
    decompose_serial,
    direct_sum,
    find_isomorphism,
    hom_basis,
    is_isomorphic,
    is_projective,
    kernel,
    projective,
    projective_cover,
    serial_summands,
    simple,
    uniserial,
    zero_module,
)


@pytest.fixture(scope="module")
def a32():
    return nakayama_algebra(3, 2)


def _projective_hom_dim(p: LabeledProjective, target: QuiverModule) -> int:
    """dim Hom(P, N) via the projective pairing Hom(P_j, N) = N_j."""
    return sum(target.dims[j - 1] for j in p.summands)


def _is_minimal(res: Resolution) -> bool:
    """Every differential must land in the radical, i.e. induce zero on tops."""
    f = res.algebra.field
    for d in range(1, res.max_degree + 1):
        target = res.term(d - 1).module
        for v in range(1, res.algebra.quiver.vertex_count + 1):
            if modules._pivots_beyond(f, modules.radical_matrix(target, v), res.diff(d).block(v))[1]:
                return False
    return True


def test_syzygy_of_projective_is_zero(a32):
    assert syzygy(projective(a32, 2)).is_zero


def test_syzygy_of_simple_is_radical(a32):
    assert decompose_serial(syzygy(simple(a32, 1))) == [(2, 2)]


def test_double_syzygy_returns_to_simple(a32):
    res = minimal_resolution(simple(a32, 1), 2)
    assert is_isomorphic(res.syzygy(2), simple(a32, 1))


def test_resolution_betti_pattern(a32):
    res = minimal_resolution(simple(a32, 1), 5)
    assert [res.betti(d) for d in range(6)] == [
        [(1, 1)],
        [(2, 1)],
        [(1, 1)],
        [(2, 1)],
        [(1, 1)],
        [(2, 1)],
    ]


def test_resolution_of_projective_stops(a32):
    res = minimal_resolution(projective(a32, 1), 4)
    for d in range(1, 5):
        assert res.betti(d) == []
        assert res.term(d).total_dim == 0


@pytest.mark.parametrize("broken", [1, 4])
def test_is_minimal_rejects_a_differential_column_outside_the_radical(monkeypatch, broken):
    a = nakayama_algebra(3, 2)
    res = Resolution(simple(a, 2), 4)
    assert _is_minimal(res)
    diff = Resolution.diff

    def with_a_generator_column(self, d):
        f = diff(self, d)
        if d != broken:
            return f
        lo, blocks = self.term(d - 1), [b.copy() for b in f.blocks]
        j = lo.summands[0]
        blocks[j - 1][:, 0] = lo.generator_vector(0)  # the generator of P_j lies outside rad P_j
        return ModuleMap(f.source, f.target, blocks, check=False)

    monkeypatch.setattr(Resolution, "diff", with_a_generator_column)
    assert not _is_minimal(res)


def test_even_degree_terms_for_r_zero():
    a = nakayama_algebra(4, 4)
    res = minimal_resolution(simple(a, 1), 20)
    for j in range(1, 9):
        assert res.betti(2 * j) == [(a.wrap(1 + j), 1)]


def test_resolution_is_minimal_and_exact(a32):
    res = minimal_resolution(simple(a32, 2), 8)
    assert _is_minimal(res)
    f = a32.field
    for d in range(1, 8):
        # Exactness: the kernel of diff(d) equals the image of diff(d+1).
        dd = res.diff(d)
        nxt = res.diff(d + 1)
        comp = dd.compose(nxt)
        assert comp.is_zero
        for v in range(1, 4):
            k = dd.block(v).shape[1] - f.rank(dd.block(v))
            assert k == f.rank(nxt.block(v))


def test_ext_table_witness_pair(a32):
    assert ext_dims(simple(a32, 1), simple(a32, 2), 10) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    assert ext_dims(simple(a32, 2), simple(a32, 1), 10) == [0] * 10


def test_ext_from_projective_vanishes(a32):
    p = projective(a32, 1)
    for n in [simple(a32, 1), uniserial(a32, 2, 2)]:
        assert ext_dims(p, n, 6) == [0] * 6


def test_ext_degree_validation(a32):
    with pytest.raises(ValueError):
        ext_dim(simple(a32, 1), simple(a32, 2), 0)


def test_ext_against_nonsimple_target(a32):
    # Ext(S_1, P_2) over a selfinjective algebra vanishes in positive degrees
    # (projectives are injective).
    assert ext_dims(simple(a32, 1), projective(a32, 2), 8) == [0] * 8


def test_betti_route_matches_complex_route(a32):
    mods = [simple(a32, i) for i in range(1, 4)] + [uniserial(a32, 1, 2), uniserial(a32, 3, 2)]
    for m in mods:
        for j in range(1, 4):
            got = ext_dims(m, simple(a32, j), 12)  # internally cross-asserted
            assert got == betti_ext_dims(m, j, 12)


def test_betti_sequence_shifts_under_syzygy(a32):
    m = simple(a32, 3)
    res_m = minimal_resolution(m, 9)
    res_o = minimal_resolution(syzygy(m), 8)
    for d in range(8):
        assert res_o.betti(d) == res_m.betti(d + 1)


def test_syzygy_additive_over_direct_sums(a32):
    m, n = simple(a32, 1), uniserial(a32, 2, 2)
    s, _, _ = direct_sum([m, n])
    left = decompose_serial(syzygy(s))
    right = sorted(decompose_serial(syzygy(m)) + decompose_serial(syzygy(n)))
    assert left == right


def test_two_prime_stability_spot():
    for p in (2, 101):
        a = nakayama_algebra(3, 2, GF(p))
        assert ext_dims(simple(a, 1), simple(a, 2), 12) == [1, 0] * 6
        assert ext_dims(simple(a, 2), simple(a, 1), 12) == [0] * 12


def test_largest_field_matches_gf101_on_uniserial_pairs():
    # p = 1048573 is the largest prime <= GF.MAX_CHARACTERISTIC; chained
    # products with entries near p must still reduce exactly.
    algs = [nakayama_algebra(3, 2, GF(p)) for p in (101, 1048573)]
    mods = [[uniserial(a, i, l) for i in range(1, 4) for l in range(1, 4)] for a in algs]
    for small, big in zip(*mods):
        for n_small, n_big in zip(*mods):
            assert ext_dims(small, n_small, 6) == ext_dims(big, n_big, 6)
        assert omega_map(ModuleMap.identity(big).scale(-1)).is_invertible()
        assert complexity_estimate(big) == complexity_estimate(small)
        big_step, small_step = build_periodicity_tower(big), build_periodicity_tower(small)
        if big_step is None or small_step is None:
            assert big_step is small_step is None
        else:
            assert big_step.degree == small_step.degree
            assert is_projective(big_step.cone) and is_projective(small_step.cone)


def test_omega_map_of_identity_is_iso(a32):
    m = simple(a32, 1)
    f = omega_map(ModuleMap.identity(m))
    assert f.is_invertible()


def test_omega_map_of_zero_is_stably_zero(a32):
    m, n = simple(a32, 1), simple(a32, 2)
    f = omega_map(ModuleMap.zero(m, n))
    assert f.is_zero


def test_omega_map_of_periodicity_iso_is_iso(a32):
    m = simple(a32, 1)
    w = detect_period(m)
    lifted = omega_map(w.iso)
    assert lifted.is_invertible()
    assert is_isomorphic(lifted.source, lifted.target) is True


def test_stable_hom_examples(a32):
    s1 = simple(a32, 1)
    assert stable_hom_dim(s1, s1) == 1
    for m in [s1, uniserial(a32, 2, 2)]:
        assert stable_hom_dim(projective(a32, 1), m) == 0
        assert stable_hom_dim(m, projective(a32, 3)) == 0


def test_stable_hom_invariant_under_syzygy(a32):
    mods = [simple(a32, 1), simple(a32, 2), uniserial(a32, 1, 2), uniserial(a32, 3, 2)]
    for m in mods:
        for n in mods:
            assert stable_hom_dim(m, n) == stable_hom_dim(syzygy(m), syzygy(n))


def test_detect_period_examples(a32):
    assert detect_period(simple(a32, 1)).period == 2
    assert detect_period(projective(a32, 1)) is None
    a22 = nakayama_algebra(2, 2)
    w = detect_period(simple(a22, 1))
    assert w.period == 4
    assert w.iso.is_invertible()


def test_detect_period_witness_iso_sources(a32):
    w = detect_period(simple(a32, 2))
    assert w.iso.source is w.resolution.syzygy(w.period)
    assert w.iso.target is w.module


def test_ext_csv_format(a32):
    table = ext_table(simple(a32, 1), simple(a32, 2), 3)
    assert table.to_csv() == "degree,dim\n1,1\n2,0\n3,1"


@pytest.mark.parametrize("t, n", [(3, 2), (4, 3)])
@pytest.mark.parametrize(
    "make",
    [lambda a: simple(a, 1), lambda a: uniserial(a, 2, 2), lambda a: projective(a, 3)],
    ids=["simple", "uniserial", "projective"],
)
def test_extended_resolution_equals_fresh_build(t, n, make):
    alg = nakayama_algebra(t, n)
    m = make(alg)
    grown = Resolution(m, 3)
    grown.extend(9)
    fresh = Resolution(make(nakayama_algebra(t, n)), 9)  # its own algebra, so its own memos
    assert grown.max_degree == fresh.max_degree == 9
    for d in range(10):
        assert grown.betti(d) == fresh.betti(d)
        assert grown.term(d).total_dim == fresh.term(d).total_dim
        a, b = grown.syzygy(d + 1), fresh.syzygy(d + 1)
        assert a.dims == b.dims and a.name == b.name
        assert all(np.array_equal(x, y) for x, y in zip(a.arrow_maps, b.arrow_maps, strict=True))
        if d >= 1:
            for v in range(1, t + 1):
                assert np.array_equal(grown.diff(d).block(v), fresh.diff(d).block(v))
    assert _is_minimal(grown)


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
def test_a_negative_degree_bound_is_rejected_in_either_call_order(cached):
    s = simple(nakayama_algebra(3, 2), 2)
    if cached:
        minimal_resolution(s, 3)
    with pytest.raises(ValueError, match="degree bound must be >= 0, got -1"):
        minimal_resolution(s, -1)
    assert (s._resolution_cache is None) is not cached
    res = Resolution(s, 2)
    with pytest.raises(ValueError, match="got -5"):
        res.extend(-5)
    assert res.max_degree == 2


def _unmemoized_chain(m, degree):
    """Terms, syzygies and differentials from covers and kernels iterated by hand."""
    terms, syzygies, diffs, incl = [], [m], [None], None
    for d in range(degree + 1):
        cover = projective_cover(syzygies[d])
        terms.append(cover.P)
        if d >= 1:
            diffs.append(incl.compose(cover.surjection))
        ker, incl = kernel(cover.surjection)
        syzygies.append(ker)
    return terms, syzygies, diffs


@pytest.mark.parametrize("t", [2, 3, 4])
def test_memoized_resolutions_match_unmemoized_chains(t, monkeypatch):
    top = 2 * t + 2
    for n in range(1, 6):
        alg, isolated = nakayama_algebra(t, n), nakayama_algebra(t, n)
        types = [(i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        warm = [minimal_resolution(uniserial(alg, *ty), top) for ty in types]
        steps = dict(alg._resolution_steps)
        assert steps and nakayama_algebra(t, n)._resolution_steps == {}

        def no_cover(m):
            raise AssertionError("a warm memo recomputed a resolution step")

        with monkeypatch.context() as mp:
            mp.setattr(modules, "projective_cover", no_cover)
            again = [Resolution(uniserial(alg, *ty), top) for ty in types]
        assert alg._resolution_steps == steps
        for (i, length), res in zip(types, again):
            terms, syzygies, diffs = _unmemoized_chain(uniserial(isolated, i, length), top)
            for d in range(top + 1):
                assert res.term(d).summands == terms[d].summands  # hence equal Betti numbers
                a, b = res.syzygy(d + 1), syzygies[d + 1]
                assert a.dims == b.dims
                assert all(np.array_equal(x, y) for x, y in zip(a.arrow_maps, b.arrow_maps, strict=True))
                assert a.name == f"syzygy:{d + 1}:uniserial:{i}:{length}"
                if d >= 1:
                    for v in range(1, t + 1):
                        assert np.array_equal(res.diff(d).block(v), diffs[d].block(v))
            got = decompose_serial(res.syzygy(2))
            want = sorted((s.top, s.length) for s in serial_summands(syzygies[2]))
            assert got == want
            got.append((0, 0))
            assert decompose_serial(res.syzygy(2)) == want
        syzygy_ids = [id(r.syzygy(d)) for r in warm + again for d in range(top + 2)]
        assert len(set(syzygy_ids)) == len(syzygy_ids)
        assert isolated._resolution_steps == {} and isolated._serial_summands == {}


def test_minimal_resolution_grows_the_cached_object(a32):
    m = simple(a32, 2)
    res = minimal_resolution(m, 3)
    assert minimal_resolution(m, 9) is res
    assert res.max_degree == 9
    assert minimal_resolution(m, 5) is res and res.max_degree == 9


@pytest.mark.parametrize("max_degree", [0, 3])
def test_every_resolution_accessor_refuses_a_negative_degree(a32, max_degree):
    # At bound 0 no content cycle is known; at bound 3 S_1's cycle is, and degrees past its start wrap.
    res = minimal_resolution(simple(a32, 1), max_degree)
    assert (res.content_cycle() is None) == (max_degree == 0)
    built = dict(res._objects)
    reads = [res.term, res.syzygy_key, res.betti, res.cover_surjection, res.syzygy, lambda d: res.betti_multiplicity(d, 1)]
    for d in (-1, -2, -5):
        for read in reads:
            with pytest.raises(ValueError, match=f"^resolution degrees are indexed from 0, got {d}$"):
                read(d)
        for read in (res.diff, res.syzygy_inclusion):
            with pytest.raises(ValueError, match="indexed from degree 1"):
                read(d)
    # Nothing was built or kept for a negative degree, so no module named syzygy:-1:simple:1 exists.
    assert res._objects == built
    assert res.syzygy(0) is res.module and res.term(0).summands == (1,) and res.betti(0) == [(1, 1)]


def _no_rank_entry(*args):
    raise AssertionError("a warm memo computed a Hom-complex rank again")


def test_ext_dims_raises_when_betti_route_disagrees(monkeypatch):
    # The Betti route is read once per call, for each distinct degree 1..c + l of the content cycle (c, l):
    # a fault in any one of them is caught, by a cold memo and by a warm one.  S_1's cycle
    # starts at 0, the sheared sum's at 2.
    honest = homology._betti_read
    sources = [(lambda alg: simple(alg, 1), [(1, 1)], 0), (lambda alg: _sheared_sum(alg, 1), _sheared_sum_types(1, 2), 2)]
    for source, types, want_start in sources:
        start, length = minimal_resolution(source(nakayama_algebra(3, 2)), 10).content_cycle()
        assert start == want_start
        for bad in range(start + length + 1):  # bad = 0 injects no fault
            alg, read = nakayama_algebra(3, 2), []

            def faulty(alg, ids, j, bad=bad, read=read):
                read.append(list(range(1, len(ids) + 1)))  # ids[0] is degree 1's
                return [b + (d == bad) for d, b in enumerate(honest(alg, ids, j), start=1)]

            with monkeypatch.context() as mp:
                mp.setattr(homology, "_betti_read", faulty)
                for warm in (False, True):
                    assert bool(alg._hom_complex_ranks) is warm
                    if bad:
                        with pytest.raises(AssertionError, match=f"Ext oracle mismatch at degree {bad}:"):
                            ext_dims(source(alg), simple(alg, 2), 10)
                    else:
                        assert ext_dims(source(alg), simple(alg, 2), 10) == _closed_form_sums(3, 2, types, [(2, 1)], 10)
                    mp.setattr(homology, "_rank_entry", _no_rank_entry)
            # Each call reads degrees 1..c + l < B = 10 once, and no further.
            assert read == 2 * [list(range(1, start + length + 1))], (start, length, bad)


def test_ext_dims_reads_the_ids_through_top_as_one_slice(monkeypatch):
    # S_1's content cycle starts at 0, the sheared sum's at 2; top = min(B, c + l).
    honest, sliced = Resolution.syzygy_keys, []
    monkeypatch.setattr(Resolution, "syzygy_keys", lambda res, top: sliced.append((res, top)) or honest(res, top))
    for source, want_start in ((lambda alg: simple(alg, 1), 0), (lambda alg: _sheared_sum(alg, 1), 2)):
        for max_degree in (1, 10):
            alg = nakayama_algebra(3, 2)
            sliced.clear()
            ext_dims(source(alg), simple(alg, 2), max_degree)
            [(res, top)] = sliced
            res.extend(10)  # at B = 1 the cycle may not be known yet
            start, length = res.content_cycle()
            assert start == want_start and top == min(max_degree, start + length)
            assert honest(res, top) == [res.syzygy_key(d) for d in range(top + 1)]
            with pytest.raises(ValueError, match=f"^content ids are stored for degrees 0..{start + length}, got "):
                honest(res, start + length + 1)


def _path_matrix(m, path):
    """The matrix of a path on M, multiplied out arrow by arrow with numpy: the oracle for every path action."""
    out = np.eye(m.dims[path.start - 1], dtype=np.int64)
    for a in path.arrows:
        out = m.arrow_maps[a] @ out % m.field.p
    return out


def _numpy_hom_complex_matrix(res, n, d):
    """Hom(term(d), N) -> Hom(term(d+1), N) assembled with numpy arrays, one summand block at a time.

    The independent oracle for the (dim Hom(term(d), N), rank) entries that ext_dims reads off the
    presentation: this matrix is built from the composed differential, each basis path's PathWord and
    its path matrix multiplied out from e_start, not from the step blocks and the walk's prefix products.

    Summand s of term(d+1), at vertex j, gives the rows of f(x) for x = diff(d+1) applied to its
    generator vector: the block of summand s' adds x[(s', path)] * N_path for each vertex-j basis path.
    """
    src, dst, diff, f = res.term(d), res.term(d + 1), res.diff(d + 1), n.field
    offs = np.cumsum([0] + [n.dims[j - 1] for j in src.summands])
    rows = []
    for s, j in enumerate(dst.summands):
        x = f.matmul(diff.block(j), dst.generator_vector(s))
        out = np.zeros((n.dims[j - 1], offs[-1]), dtype=np.int64)
        for s2, j2 in enumerate(src.summands):
            for path, k in zip(src.algebra.paths_from(j2), src.positions[s2]):
                c = int(x[k]) if path.end == j else 0
                if c:
                    block = out[:, offs[s2] : offs[s2 + 1]]
                    out[:, offs[s2] : offs[s2 + 1]] = (block + c * _path_matrix(n, path)) % f.p
        rows.append(out)
    return np.vstack(rows) if rows else np.zeros((0, offs[-1]), dtype=np.int64)


def _sheared(m):
    """M in the basis g_v = 1 + 2 * (strict upper triangle) at each vertex: arrows g_v M_a g_u^-1."""
    f, q = m.field, m.algebra.quiver
    g = [np.eye(d, dtype=np.int64) + 2 * np.triu(np.ones((d, d), dtype=np.int64), 1) for d in m.dims]
    maps = [
        f.matmul(f.matmul(g[q.target(a) - 1], x), f.inverse(g[q.source(a) - 1])) for a, x in enumerate(m.arrow_maps)
    ]
    return QuiverModule(m.algebra, m.dims, maps, name=f"sheared:{m.describe()}")


def _sheared_sum_types(i, n):
    return [(i, n), (i, max(1, n - 1))]


def _sheared_sum(alg, i):
    """M(i, n) + M(i, max(1, n - 1)), two summands with one top, sheared: its matrices hold entries beyond 0/1.

    For n >= 2 its content cycle starts at degree 2.
    """
    return _sheared(direct_sum([uniserial(alg, *ty) for ty in _sheared_sum_types(i, alg.n)])[0])


def _closed_form_ext(t, n, source, target, degree):
    """Ext^k(M, N) = stHom(Omega^k M, N) over uniserials M(i, a), N(j, b), from ROADMAP item 3.

    Omega M(i, a) = M(i + a, n + 1 - a), and dim stHom(M(i, a), M(j, b)) counts the
    c with max(1, a + b - n) <= c <= min(a, b) and c = j + b - i (mod t).  A
    projective (length n + 1) gives empty ranges, so it reads as Ext = 0.
    """
    (i, a) = source
    out = []
    for _ in range(degree):
        i, a = (i + a - 1) % t + 1, n + 1 - a
        out.append(_closed_form_stable_hom(t, n, (i, a), target))
    return out


def _closed_form_sums(t, n, xs, ys, degree):
    """Ext^k between direct sums of uniserials with the (top, length) types xs and ys: sums of the closed form."""
    return [sum(e) for e in zip([0] * degree, *(_closed_form_ext(t, n, x, y, degree) for x in xs for y in ys))]


def _closed_form_stable_hom(t, n, source, target):
    """dim stHom(M(i, a), M(j, b)); zero when either length is n + 1 (a projective)."""
    (i, a), (j, b) = source, target
    return sum(1 for c in range(max(1, a + b - n), min(a, b) + 1) if (c - (j + b - i)) % t == 0)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_hom_complex_rank_memo_matches_direct_ranks_and_closed_form(t, monkeypatch):
    top = 2 * t + 2
    for n in range(1, 6):
        alg, untouched = nakayama_algebra(t, n), nakayama_algebra(t, n)

        def tables():
            mods = [m for m, _ in _cycle_corpus(alg)]  # new objects, so new resolutions
            return {(a, b): ext_dims(x, y, top) for a, x in enumerate(mods) for b, y in enumerate(mods)}

        warm = tables()
        ranks = dict(alg._hom_complex_ranks)
        assert ranks and untouched._hom_complex_ranks == {}
        f, corpus, by_content = untouched.field, _cycle_corpus(untouched), _by_content(alg, ranks)
        for a, (x, xs) in enumerate(corpus):
            res = Resolution(x, top + 1)
            for b, (y, ys) in enumerate(corpus):
                direct = [f.rank(_numpy_hom_complex_matrix(res, y, d)) for d in range(top + 1)]
                for d in range(top + 1):
                    key = untouched._contents[res.syzygy_key(d)], untouched._contents[y.content_key()]
                    assert by_content[key] == (_projective_hom_dim(res.term(d), y), direct[d]), (x, y, d)
                dims = [_projective_hom_dim(res.term(i), y) - direct[i] - direct[i - 1] for i in range(1, top + 1)]
                assert warm[a, b] == dims == _closed_form_sums(t, n, xs, ys, top), (t, n, x, y)
        with monkeypatch.context() as mp:
            mp.setattr(homology, "_rank_entry", _no_rank_entry)
            assert tables() == warm
        assert alg._hom_complex_ranks == ranks
        assert untouched._hom_complex_ranks == {} and nakayama_algebra(t, n)._hom_complex_ranks == {}


def _cycle_corpus(alg) -> list[tuple[QuiverModule, list[tuple[int, int]]]]:
    """Every uniserial (projectives included), the zero module, one direct sum and one sheared sum,
    each with the (top, length) types of its uniserial summands."""
    t, n = alg.t, alg.n
    out = [(uniserial(alg, i, length), [(i, length)]) for i in range(1, t + 1) for length in range(1, n + 2)]
    out.append((zero_module(alg), []))
    out.append((direct_sum([uniserial(alg, 1, 1), uniserial(alg, t, n)])[0], [(1, 1), (t, n)]))
    out.append((_sheared_sum(alg, 1), _sheared_sum_types(1, alg.n)))
    return out


def _first_repeat(keys):
    first = {}
    for d, key in enumerate(keys):
        if key in first:
            return first[key], d - first[key]
        first[key] = d
    return None


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_content_cycle_is_the_first_repeat_of_the_step_memo_walk(t):
    top = 3 * 2 * t + 2
    for n in range(1, 9):
        alg = nakayama_algebra(t, n)
        for m, _ in _cycle_corpus(alg):
            res = Resolution(m, top)
            cycle = res.content_cycle()
            # The same chain walked through the step memo alone: every key must already be there,
            # and every degree reads the walk's step, also past the cycle where none is stored.
            steps, keys = alg._resolution_steps, [m.content_key()]
            for d in range(top + 1):
                assert res.syzygy_key(d) == keys[d] and res.term(d) is steps[keys[d]].term, (t, n, m, d)
                keys.append(steps[keys[d]].next_key)
            assert res.syzygy_key(top + 1) == keys[top + 1]
            assert cycle is not None and cycle == _first_repeat(keys), (t, n, m)
            start, length = cycle
            if m.is_zero:
                assert cycle == (0, 1)
            elif is_projective(m):  # its first syzygy is zero
                assert cycle == (1, 1)
            else:
                assert alg.period_bound % length == 0, (t, n, m, cycle)
            for d in range(start + length, top + 1):
                assert res.term(d) is res.term(d - length) and res.syzygy_key(d) == res.syzygy_key(d - length)
            if start + length >= 2:  # keys known through degree B + 1 stop short of the repeat
                short = Resolution(m, start + length - 2)
                assert short.content_cycle() is None
                short.extend(top)
                assert short.content_cycle() == cycle and short._keys == res._keys
            # Past the cycle only the bound moves: the resolution holds start + length + 1 content ids.
            res.extend(10000)
            assert res.max_degree == 10000 and len(res._keys) <= start + length + 1, (t, n, m)
            assert res.term(10000) is steps[keys[start + (10000 - start) % length]].term


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_ext_dims_over_the_content_cycle_match_the_per_degree_walk_and_closed_form(t):
    top = 3 * 2 * t + 1
    for n in range(1, 9):
        alg, untouched = nakayama_algebra(t, n), nakayama_algebra(t, n)
        mods = [m for m, _ in _cycle_corpus(alg)]
        got = {(a, b): ext_dims(x, y, top) for a, x in enumerate(mods) for b, y in enumerate(mods)}
        # The per-degree walk: one rank of the numpy Hom complex per (syzygy, target) content pair.
        walk, f, corpus = {}, untouched.field, _cycle_corpus(untouched)
        for a, (x, xs) in enumerate(corpus):
            res = Resolution(x, top + 1)
            for b, (y, ys) in enumerate(corpus):
                entries = []
                for d in range(top + 1):
                    key = (res.syzygy_key(d), y.content_key())
                    if key not in walk:
                        walk[key] = (_projective_hom_dim(res.term(d), y), f.rank(_numpy_hom_complex_matrix(res, y, d)))
                    entries.append(walk[key])
                dims = [entries[i][0] - entries[i][1] - entries[i - 1][1] for i in range(1, top + 1)]
                assert got[a, b] == dims == _closed_form_sums(t, n, xs, ys, top), (t, n, x, y)
        assert _by_content(alg, alg._hom_complex_ranks) == _by_content(untouched, walk)
        assert untouched._hom_complex_ranks == {}


@pytest.mark.parametrize("t", [2, 3, 4])
def test_rank_only_hom_dim_is_the_width_of_the_checked_hom_basis(t):
    # h - rank of each presentation entry is dim Hom(syzygy(d), N): the width of the checked Hom basis.
    for n in range(1, 7):
        alg = nakayama_algebra(t, n)
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        mods += [zero_module(alg), _sheared_sum(alg, 1), _sheared_sum(alg, t)]
        for x in mods:
            res = Resolution(x, 3)
            for d in range(3):
                for y in mods:
                    h = _projective_hom_dim(res.term(d), y)
                    assert homology._rank_entry(res, d, y) == (h, h - len(hom_basis(res.syzygy(d), y))), (t, n, x, y, d)


def _kronecker():
    """kQ/J^2 over two arrows 1 -> 2: Omega S_1 = S_2^2 and S_2 = P_2, so Ext^1(S_1, S_2) = 2 and the rest is 0."""
    return BoundQuiverAlgebra(Quiver(2, [(1, 2), (1, 2)]), nilpotency=2)


def _a3_line():
    """kQ/J^2 over 1 -> 2 -> 3: Omega S_1 = S_2 and Omega S_2 = S_3 = P_3."""
    return BoundQuiverAlgebra(Quiver(3, [(1, 2), (2, 3)]), nilpotency=2)


def _presentation_corpus(alg, seed: int) -> list[QuiverModule]:
    """The zero module, the simples and projectives, and sums in random bases, whose cover terms have several summands
    and whose diff columns have several nonzero coordinates; over kΓ/J^{n+1} sums of uniserials, else P_1 + S_1 + S_v."""
    rng, v = random.Random(seed), alg.quiver.vertex_count
    out = [zero_module(alg)] + [simple(alg, i) for i in range(1, v + 1)] + [projective(alg, i) for i in range(1, v + 1)]
    for _ in range(3):
        if alg.is_selfinjective_nakayama:
            parts = [uniserial(alg, rng.randint(1, v), rng.randint(1, alg.n)) for _ in range(rng.randint(2, 3))]
        else:
            parts = [projective(alg, 1), simple(alg, 1), simple(alg, rng.randint(1, v))]
        out.append(_random_basis(direct_sum(parts)[0], rng))
    return out


def _numpy_ext_dims(res, y, top):
    """Ext^1..top from the numpy Hom complex alone, degree by degree: no memo and no content cycle."""
    f, entries = y.field, []
    for d in range(top + 1):
        entries.append((_projective_hom_dim(res.term(d), y), f.rank(_numpy_hom_complex_matrix(res, y, d))))
    return [entries[i][0] - entries[i][1] - entries[i - 1][1] for i in range(1, top + 1)]


@pytest.mark.parametrize(
    "make",
    [lambda: nakayama_algebra(2, 3), lambda: nakayama_algebra(3, 4), _kronecker, _a3_line],
    ids=["nakayama-2-3", "nakayama-3-4", "kronecker", "a3-line"],
)
def test_presentation_ranks_match_the_numpy_hom_complex(make):
    # Every ordered pair of the corpus, zero source and target and projective sources (empty term(1)) included:
    # each rank entry, computed directly with no memo, equals the rank of the numpy matrix.
    alg, seed = make(), 29
    mods, top = _presentation_corpus(alg, seed), 2 * alg.quiver.vertex_count + 2
    f = alg.field
    for x in mods:
        res = Resolution(x, top + 1)
        for y in mods:
            for d in range(top + 1):
                want = (_projective_hom_dim(res.term(d), y), f.rank(_numpy_hom_complex_matrix(res, y, d)))
                assert homology._rank_entry(res, d, y) == want, (alg, x, y, d)
    # ext_dims over a cold algebra at bounds B = c + l - 1, c + l and c + l + 1 around each source's content cycle.
    for a in range(len(mods)):
        start, length = Resolution(mods[a], 4 * top).content_cycle()
        for b in sorted({start + length - 1, start + length, start + length + 1} - {0}):
            cold = make()
            xs = _presentation_corpus(cold, seed)
            res = Resolution(xs[a], b + 1)
            for y in xs:
                assert ext_dims(xs[a], y, b) == _numpy_ext_dims(res, y, b), (alg, xs[a], y, b)


def test_presentation_ranks_over_non_circular_quivers_give_the_known_ext():
    kr = _kronecker()
    s1, s2 = simple(kr, 1), simple(kr, 2)
    assert ext_dims(s1, s2, 4) == [2, 0, 0, 0] and ext_dims(s1, s1, 4) == [0, 0, 0, 0]
    assert ext_dims(s2, s1, 3) == [0, 0, 0] and ext_dims(projective(kr, 1), s2, 3) == [0, 0, 0]
    line = _a3_line()
    s = [simple(line, i) for i in (1, 2, 3)]
    assert [ext_dims(s[0], y, 3) for y in s] == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert [ext_dims(s[1], y, 3) for y in s] == [[0, 0, 0], [0, 0, 0], [1, 0, 0]]
    assert ext_dims(zero_module(line), s[0], 2) == [0, 0] and ext_dims(s[0], zero_module(line), 2) == [0, 0]


@pytest.mark.parametrize("t", [2, 3, 4])
def test_ext_dims_at_bounds_around_the_content_cycle_match_the_closed_form(t):
    # B = c + l - 1 stops short of the cycle's end, B = c + l reads it exactly, and every larger B
    # fills the degrees past c + l with whole laps of the last l values.
    big = 10000
    for n in range(1, 5):
        sources = [
            (lambda alg: uniserial(alg, 1, 1), [(1, 1)], 0),
            (lambda alg: uniserial(alg, 2, n), [(2, n)], 0),
            (lambda alg: _sheared_sum(alg, 1), _sheared_sum_types(1, n), 2 if n >= 2 else 0),
        ]
        for source, types, want_start in sources:
            targets = [(j, 1) for j in range(1, t + 1)] + [(1, n)]
            closed = {y: _closed_form_sums(t, n, types, [y], big) for y in targets}
            start, length = minimal_resolution(source(nakayama_algebra(t, n)), 4 * t).content_cycle()
            assert start == want_start, (t, n, types)
            for b in sorted({start + length - 1, start + length, start + length + 1, big} - {0}):
                alg = nakayama_algebra(t, n)  # a cold memo for each bound
                m = source(alg)
                for y in targets:
                    assert ext_dims(m, uniserial(alg, *y), b) == closed[y][:b], (t, n, types, b, y)


@pytest.mark.parametrize("t, n", [(3, 2), (4, 3)])
def test_resolution_objects_are_built_lazily_and_kept(t, n, monkeypatch):
    alg = nakayama_algebra(t, n)
    minimal_resolution(uniserial(alg, 2, 2), 40)  # warms the step memo
    m = uniserial(alg, 2, 2)
    built = []
    for cls in (ModuleMap, QuiverModule):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    res = Resolution(m, 40)
    assert built == []
    monkeypatch.undo()
    assert res.syzygy(0) is m
    for d in range(41):
        syz, cover = res.syzygy(d), res.cover_surjection(d)
        assert res.syzygy(d) is syz and res.cover_surjection(d) is cover
        assert cover.target is syz and cover.source is res.term(d).module
        syz._validate()
        cover._validate()
        assert cover.is_surjective()
        if d == 0:
            continue
        assert syz.name == f"syzygy:{d}:uniserial:2:2"
        incl, diff = res.syzygy_inclusion(d), res.diff(d)
        assert res.syzygy_inclusion(d) is incl and res.diff(d) is diff
        assert incl.source is syz and incl.target is res.term(d - 1).module
        incl._validate()
        diff._validate()
        assert incl.is_injective()
        want = incl.compose(cover)
        assert all(np.array_equal(a, b) for a, b in zip(diff.blocks, want.blocks, strict=True))


def _no_chains(m):
    raise AssertionError("serial chains were computed")


def test_detect_period_builds_no_serial_decomposition_when_content_recurs(monkeypatch):
    alg = nakayama_algebra(3, 2)
    monkeypatch.setattr(modules, "serial_summands", _no_chains)
    for ty in [(i, length) for i in range(1, 4) for length in range(1, 3)]:
        m = uniserial(alg, *ty)
        w = detect_period(m)
        assert w.resolution.syzygy_key(w.period) == m.content_key()
        w.iso._validate()
        assert w.iso.source is w.resolution.syzygy(w.period) and w.iso.target is m
        assert all(np.array_equal(b, np.eye(d)) for b, d in zip(w.iso.blocks, m.dims, strict=True))
    assert alg._serial_summands == {}


def _find_isomorphism_search(m: QuiverModule, window: int):
    """The period search with find_isomorphism in every degree: (period, iso blocks) or None."""
    res = Resolution(m, window)
    for p in range(1, window + 1):
        s = res.syzygy(p)
        if s.is_zero:
            return None
        iso = find_isomorphism(s, m)
        if iso is not None:
            return p, iso.blocks
    return None


def _period_corpus(alg) -> list[QuiverModule]:
    """Every uniserial; each one of dim >= 2 again with its arrows scaled by 2 (same type, other
    content, so no syzygy repeats its content); and a direct sum of two uniserials."""
    t, n = alg.t, alg.n
    mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
    mods += [
        QuiverModule(alg, m.dims, [2 * a for a in m.arrow_maps], name=f"scaled:{m.name}")
        for m in mods
        if m.total_dim >= 2
    ]
    return mods + [direct_sum([uniserial(alg, 1, 1), uniserial(alg, t, n)])[0]]


@pytest.mark.parametrize("t", [2, 3, 4])
def test_detect_period_matches_the_find_isomorphism_search(t, monkeypatch):
    window = 2 * t
    for n in range(1, 6):
        alg, reference = nakayama_algebra(t, n), nakayama_algebra(t, n)
        want = [_find_isomorphism_search(m, window) for m in _period_corpus(reference)]
        assert sum(w is not None for w in want) > t * n

        def check():
            for m, w in zip(_period_corpus(alg), want, strict=True):
                got = detect_period(m)
                if w is None:
                    assert got is None, m
                    continue
                assert got.period == w[0], m
                got.iso._validate()
                assert got.iso.source is got.resolution.syzygy(got.period) and got.iso.target is m
                assert all(np.array_equal(a, b) for a, b in zip(got.iso.blocks, w[1], strict=True)), m

        check()
        # The scaled modules went through find_isomorphism (for n = 1 none is non-projective).
        assert bool(alg._serial_summands) is (n > 1)
        for _, bases in alg._serial_summands.values():
            assert all(not b.flags.writeable for b in bases)
        with monkeypatch.context() as mp:  # a warm memo answers without decomposing anything
            mp.setattr(modules, "serial_summands", _no_chains)
            check()


def test_detect_period_sends_a_candidate_with_the_top_of_m_to_find_isomorphism(monkeypatch):
    # Over (2, 4), Omega^2 (M(1, 1) + M(2, 3)) = M(1, 3) + M(2, 1): same dims and top, not isomorphic.
    alg = nakayama_algebra(2, 4)
    m = direct_sum([uniserial(alg, 1, 1), uniserial(alg, 2, 3)])[0]
    seen = []

    def recording(s, target):
        iso = find_isomorphism(s, target)
        seen.append((s.name, iso is None))
        return iso

    monkeypatch.setattr(homology, "find_isomorphism", recording)
    w = detect_period(m)
    assert seen[0] == (f"syzygy:2:{m.describe()}", True)
    assert decompose_serial(w.resolution.syzygy(2)) == [(1, 3), (2, 1)]
    assert w.period == _closed_form_period(2, 4, [(1, 1), (2, 3)]) == 4
    # M(1, 2) with doubled arrows never recurs in content; Omega^2 of it has its dims but top S_2,
    # so only the degree-4 candidate reaches find_isomorphism.
    u = uniserial(alg, 1, 2)
    scaled = QuiverModule(alg, u.dims, [2 * a for a in u.arrow_maps], name="scaled")
    seen.clear()
    assert detect_period(scaled).period == 4 and seen == [("syzygy:4:scaled", False)]


def _by_content(alg, memo: dict) -> dict:
    """A memo keyed by content ids, or pairs of them, re-keyed by exact content: ids mean nothing across algebras."""
    content = alg._contents
    return {content[k] if isinstance(k, int) else tuple(content[x] for x in k): v for k, v in memo.items()}


def _random_basis(m: QuiverModule, rng: random.Random) -> QuiverModule:
    """M in a random basis g_v of each vertex space: arrows g_v M_a g_u^-1."""
    f, q = m.field, m.algebra.quiver
    g = []
    for d in m.dims:
        x = np.zeros((d, d), dtype=np.int64)
        while not f.is_invertible(x):
            x = np.array([rng.randrange(f.p) for _ in range(d * d)], dtype=np.int64).reshape(d, d)
        g.append(x)
    maps = [
        f.matmul(f.matmul(g[q.target(a) - 1], x), f.inverse(g[q.source(a) - 1])) for a, x in enumerate(m.arrow_maps)
    ]
    return QuiverModule(m.algebra, m.dims, maps, name=f"random-basis:{m.describe()}")


def _omega_types(t, n, types, p):
    """The sorted (top, length) types of Omega^p of a sum of uniserials, by Omega M(i, a) = M(i + a, n + 1 - a)."""
    for _ in range(p):
        types = [((i + a - 1) % t + 1, n + 1 - a) for i, a in types]
    return sorted(types)


def _closed_form_period(t, n, types):
    """The least p >= 1 at which Omega^p permutes the (non-projective) summands."""
    return next(p for p in range(1, 2 * t + 1) if _omega_types(t, n, types, p) == sorted(types))


@st.composite
def _sums_in_random_bases(draw):
    t, n = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    types = draw(st.lists(st.tuples(st.integers(1, t), st.integers(1, n)), min_size=1, max_size=3))
    return t, n, types, draw(st.integers(0, 2**32 - 1))


@given(_sums_in_random_bases())
@settings(max_examples=60, deadline=None)
def test_sums_in_random_bases_match_the_closed_forms(case):
    """Their content cycles often start past degree 0, where a rotated step may break the summand order."""
    t, n, types, seed = case
    alg = nakayama_algebra(t, n)
    m = _random_basis(direct_sum([uniserial(alg, *ty) for ty in types])[0], random.Random(seed))
    top = 4 * t + 2
    res = minimal_resolution(m, top + 2 * t)
    period = _closed_form_period(t, n, types)
    # The cycle repeats the summand types, so the period divides its length; the length in turn
    # divides the lcm of the summands' own periods (the swap in M(1, 1) + M(2, 3) over (2, 3)
    # has period 1 and a cycle of length 2).
    start, length = res.content_cycle()
    assert length % period == 0 and math.lcm(*(_closed_form_period(t, n, [ty]) for ty in types)) % length == 0
    assert res.syzygy_key(start + length) == res.syzygy_key(start)
    assert all(decompose_serial(res.syzygy(d)) == _omega_types(t, n, types, d) for d in range(start + length + 1))
    assert decompose_serial(m) == sorted(types)
    w = detect_period(m)
    assert w.period == period
    w.iso._validate()
    for target in [(j, b) for j in range(1, t + 1) for b in range(1, n + 2)]:
        closed = [sum(e) for e in zip(*(_closed_form_ext(t, n, ty, target, top) for ty in types))]
        assert ext_dims(m, uniserial(alg, *target), top) == closed, (target, types)


def _no_cover(m):
    raise AssertionError("a warm step memo recomputed a projective cover")


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_stable_hom_matches_closed_form_and_reads_covers_from_the_step_memo(t, monkeypatch):
    for n in range(1, 7):
        alg = nakayama_algebra(t, n)
        types = [(i, length) for i in range(1, t + 1) for length in range(1, n + 2)]

        def table():
            mods = {ty: uniserial(alg, *ty) for ty in types}  # new objects, no resolution attached
            return {(x, y): stable_hom_dim(mods[x], mods[y]) for x in types for y in types}

        cold = table()
        assert cold == {(x, y): _closed_form_stable_hom(t, n, x, y) for x in types for y in types}
        steps = dict(alg._resolution_steps)
        with monkeypatch.context() as mp:
            mp.setattr(modules, "projective_cover", _no_cover)
            assert table() == cold
        assert alg._resolution_steps == steps


def test_stable_hom_stores_one_step_that_the_resolution_reuses():
    alg = nakayama_algebra(3, 2)
    m, n = uniserial(alg, 1, 2), uniserial(alg, 1, 2)
    assert stable_hom_dim(m, n) == 1
    assert list(alg._resolution_steps) == [n.content_key()]
    step = alg._resolution_steps[n.content_key()]
    assert step.term.summands == (1,) and n._resolution_cache is None
    res = minimal_resolution(n, 1)
    assert res._step_at(0) is step and len(alg._resolution_steps) == 2
    assert res._step_at(1) is alg._resolution_steps[step.next_key] and res.term(1) is res._step_at(1).term
