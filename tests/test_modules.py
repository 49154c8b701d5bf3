import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverhom.modules as modules
from quiverhom.algebra import nakayama_algebra
from quiverhom.homology import minimal_resolution
from quiverhom.linalg import GF
from quiverhom.modules import (
    LabeledProjective,
    ModuleMap,
    QuiverModule,
    cokernel,
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
    top_dims,
    uniserial,
    zero_module,
)
from test_homology import _cycle_paths, _path_matrix, _random_basis


@pytest.fixture(scope="module")
def a32():
    return nakayama_algebra(3, 2)


def test_simple_dimension_vectors(a32):
    assert simple(a32, 1).dims == (1, 0, 0)
    a21 = nakayama_algebra(2, 1)
    assert simple(a21, 2).dims == (0, 1)
    with pytest.raises(ValueError):
        simple(a32, 4)


def test_simple_has_zero_radical(a32):
    for i in range(1, 4):
        assert top_dims(simple(a32, i)) == simple(a32, i).dims


def test_projective_dims_and_series(a32):
    p1 = projective(a32, 1)
    assert p1.total_dim == 3
    assert p1.dims == (1, 1, 1)
    # Composition series top-to-socle: S_1, S_2, S_3 (radical layers).
    layers = []
    m = p1
    while not m.is_zero:
        layers.append(top_dims(m))
        cover = projective_cover(m)
        m, _ = kernel(cover.surjection)
    assert layers[0] == (1, 0, 0)
    assert decompose_serial(p1) == [(1, 3)]


def test_projective_wraps_vertices():
    a = nakayama_algebra(2, 2)
    assert projective(a, 1).dims == (2, 1)


def test_top_of_projective_is_simple(a32):
    for i in range(1, 4):
        want = tuple(1 if v == i else 0 for v in range(1, 4))
        assert top_dims(projective(a32, i)) == want


def test_hom_projective_to_simple_is_pairing(a32):
    for i in range(1, 4):
        for j in range(1, 4):
            assert len(hom_basis(projective(a32, i), simple(a32, j))) == (1 if i == j else 0)


def test_hom_simple_endomorphisms(a32):
    for i in range(1, 4):
        assert len(hom_basis(simple(a32, i), simple(a32, i))) == 1


def test_hom_projective_endomorphisms(a32):
    assert len(hom_basis(projective(a32, 1), projective(a32, 1))) == 1


def test_projectivity_pairing_dimension(a32):
    # dim Hom(P_i, M) equals the vertex-i dimension of M.
    mods = [simple(a32, 2), projective(a32, 3), uniserial(a32, 1, 2)]
    for m in mods:
        for i in range(1, 4):
            assert len(hom_basis(projective(a32, i), m)) == m.dims[i - 1]


def test_hom_requires_same_algebra(a32):
    other = nakayama_algebra(3, 2)
    with pytest.raises(ValueError):
        hom_basis(simple(a32, 1), simple(other, 1))


def test_kernel_of_identity_is_zero(a32):
    m = projective(a32, 1)
    k, _ = kernel(ModuleMap.identity(m))
    assert k.is_zero


def test_kernel_of_zero_map_is_source(a32):
    m = projective(a32, 2)
    k, incl = kernel(ModuleMap.zero(m, simple(a32, 1)))
    assert k.dims == m.dims
    assert all(incl.source.field.is_invertible(b) for b in incl.blocks)


def test_kernel_of_cover_is_radical(a32):
    cover = projective_cover(simple(a32, 1))
    k, _ = kernel(cover.surjection)
    assert k.dims == (0, 1, 1)
    assert decompose_serial(k) == [(2, 2)]


def test_kernel_of_an_unchecked_map_that_breaks_an_arrow_names_that_arrow(a32):
    # f is the identity at vertex 3 of P_1 and zero elsewhere: it breaks arrow 1 (2 -> 3) alone, and
    # its kernel, all of P_1 at vertices 1 and 2, is not stable under that arrow.
    m = projective(a32, 1)
    f = ModuleMap(m, m, [np.zeros((1, 1), dtype=np.int64)] * 2 + [np.eye(1, dtype=np.int64)], check=False)
    with pytest.raises(ValueError, match="^map does not intertwine arrow 1$"):
        ModuleMap(m, m, f.blocks)
    with pytest.raises(ValueError, match="^map does not intertwine arrow 1$"):
        kernel(f)


def test_a_cover_that_misses_a_generator_raises_at_the_step(monkeypatch):
    # Zeroing the first generator image leaves the map a module map, whose kernel is then too large at some vertex.
    alg = nakayama_algebra(3, 2)
    m = direct_sum([uniserial(alg, 1, 2), uniserial(alg, 2, 1)])[0]
    honest = modules.LabeledProjective.map_to
    monkeypatch.setattr(
        modules.LabeledProjective, "map_to", lambda P, target, images: honest(P, target, [0 * images[0], *images[1:]])
    )
    with pytest.raises(AssertionError, match="^projective cover surjection failed to cover$"):
        modules._step(alg, m.content_key(), modules._itself, m)
    assert m.content_key() not in alg._resolution_steps


def test_kernel_cokernel_rank_nullity(a32):
    maps = hom_basis(projective(a32, 1), uniserial(a32, 1, 2))
    for f in maps:
        k, _ = kernel(f)
        c, _ = cokernel(f)
        for v in range(3):
            rank = f.source.field.rank(f.blocks[v])
            assert k.dims[v] + rank == f.source.dims[v]
            assert c.dims[v] + rank == f.target.dims[v]


def test_cokernel_projection_surjective(a32):
    f = hom_basis(simple(a32, 3), projective(a32, 1))[0]
    c, proj = cokernel(f)
    assert proj.is_surjective()
    assert c.total_dim == projective(a32, 1).total_dim - 1


def test_projective_cover_of_simple(a32):
    cover = projective_cover(simple(a32, 2))
    assert cover.P.summands == (2,)
    assert cover.surjection.is_surjective()


def test_projective_cover_of_projective_is_identity_sized(a32):
    p = projective(a32, 3)
    cover = projective_cover(p)
    assert cover.module.dims == p.dims
    assert cover.surjection.is_invertible()


def test_projective_cover_additivity(a32):
    s, _, _ = direct_sum([simple(a32, 1), simple(a32, 2)])
    cover = projective_cover(s)
    assert sorted(cover.P.summands) == [1, 2]


def test_projective_cover_top_isomorphism(a32):
    for m in [simple(a32, 1), uniserial(a32, 2, 2), projective(a32, 1)]:
        cover = projective_cover(m)
        assert top_dims(cover.module) == top_dims(m)


def test_cover_kernel_lies_in_radical(a32):
    # Minimality: the kernel of the cover surjection sits inside rad P.
    from quiverhom.modules import radical_matrix

    f = a32.field
    for m in [simple(a32, 1), uniserial(a32, 2, 2), projective(a32, 3)]:
        cover = projective_cover(m)
        k, incl = kernel(cover.surjection)
        for v in range(1, 4):
            rad = radical_matrix(cover.module, v)
            blk = incl.block(v)
            if blk.shape[1] == 0:
                continue
            assert f.rank(np.hstack([rad, blk])) == f.rank(rad)


def test_serial_reconstruction_via_generic_search(a32):
    # The named uniserials reassemble to the module, certified by an
    # explicit, validated, invertible module map.
    cover = projective_cover(simple(a32, 1))
    m, _ = kernel(cover.surjection)  # rad P_1
    rebuilt, _, _ = direct_sum([uniserial(a32, top, length) for top, length in decompose_serial(m)])
    iso = find_isomorphism(m, rebuilt)
    assert iso is not None and iso.is_invertible()
    ModuleMap(iso.source, iso.target, iso.blocks)  # re-validates the intertwining equations


def test_cover_of_zero_module(a32):
    z = zero_module(a32)
    cover = projective_cover(z)
    assert cover.module.is_zero


def test_is_projective(a32):
    assert is_projective(projective(a32, 1))
    assert is_projective(zero_module(a32))
    assert not is_projective(simple(a32, 1))
    assert not is_projective(uniserial(a32, 1, 2))


def _no_cover(m):
    raise AssertionError("a warm step memo recomputed a projective cover")


@pytest.mark.parametrize("t", [2, 3, 4])
def test_is_projective_reads_the_cover_from_the_step_memo(t, monkeypatch):
    for n in range(1, 6):
        alg = nakayama_algebra(t, n)
        types = [(i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        cold = {ty: is_projective(uniserial(alg, *ty)) for ty in types}
        assert cold == {(i, length): length == n + 1 for i, length in types}
        steps = dict(alg._resolution_steps)
        assert len(steps) == len(types)
        with monkeypatch.context() as mp:
            mp.setattr(modules, "projective_cover", _no_cover)
            assert {ty: is_projective(uniserial(alg, *ty)) for ty in types} == cold
        assert alg._resolution_steps == steps


def test_is_projective_stores_one_step_that_the_resolution_reuses():
    alg = nakayama_algebra(3, 2)
    m = uniserial(alg, 2, 2)
    assert not is_projective(m)
    assert list(alg._resolution_steps) == [m.content_key()]
    step = alg._resolution_steps[m.content_key()]
    assert step.term.summands == (2,) and m._resolution_cache is None
    res = minimal_resolution(m, 1)
    assert res._step_at(0) is step and len(alg._resolution_steps) == 2
    assert res._step_at(1) is alg._resolution_steps[step.next_key] and res.term(1) is res._step_at(1).term


def test_decompose_serial_examples(a32):
    assert decompose_serial(projective(a32, 1)) == [(1, 3)]
    s, _, _ = direct_sum([simple(a32, 1), simple(a32, 1)])
    assert decompose_serial(s) == [(1, 1), (1, 1)]
    assert decompose_serial(zero_module(a32)) == []


def test_decompose_serial_mixed_sum(a32):
    mods = [uniserial(a32, 2, 2), projective(a32, 1), simple(a32, 2)]
    s, _, _ = direct_sum(mods)
    assert decompose_serial(s) == [(1, 3), (2, 1), (2, 2)]


def test_serial_chain_vectors_span(a32):
    m, _, _ = direct_sum([uniserial(a32, 1, 2), uniserial(a32, 1, 2), simple(a32, 2)])
    summands = serial_summands(m)
    assert sorted((s.top, s.length) for s in summands) == [(1, 2), (1, 2), (2, 1)]


def test_serial_summands_walk_each_path_up_to_its_first_zero_product(monkeypatch):
    # A uniserial of length l over (32, 31) is one-dimensional at l vertices, and the walk from its d-th one meets
    # l - 1 - d nonzero products before the first zero one: l(l - 1)/2 kernels in all, none for a simple.
    alg = nakayama_algebra(32, 31)
    calls, kernel_matrix = [], GF.kernel_matrix
    monkeypatch.setattr(GF, "kernel_matrix", lambda f, m: calls.append(1) or kernel_matrix(f, m))
    for top in (1, 17, 32):
        for length in range(1, 33):
            m = uniserial(alg, top, length)
            calls.clear()
            assert [(s.top, s.length) for s in serial_summands(m)] == [(top, length)]
            assert len(calls) == length * (length - 1) // 2, (top, length)


def test_serial_summands_look_for_new_tops_only_where_a_kernel_grows(monkeypatch):
    # A uniserial of length l <= t is one-dimensional at l vertices, and the kernel at each of them grows once,
    # so l candidate spaces hold a new top: 8 * (1 + ... + 8) = 288 over (8, 7).  Skipping only empty candidates
    # took 1632 calls.
    alg = nakayama_algebra(8, 7)
    calls, pivots_beyond = [], modules._pivots_beyond
    monkeypatch.setattr(modules, "_pivots_beyond", lambda *args: calls.append(1) or pivots_beyond(*args))
    for top in range(1, 9):
        for length in range(1, 9):
            assert [(s.top, s.length) for s in serial_summands(uniserial(alg, top, length))] == [(top, length)]
    assert len(calls) == 288


def test_rank_count_matches_chain_count():
    # Cross-check the chain algorithm against the rank-difference formula.
    a = nakayama_algebra(4, 4)
    mods = [uniserial(a, 2, 3), projective(a, 1), simple(a, 4), uniserial(a, 3, 5)]
    m, _, _ = direct_sum(mods)
    f = a.field

    def rho(v, d):
        if d > a.n:
            return 0
        (path,) = _cycle_paths(a.t, v, [d])
        return f.rank(_path_matrix(m, path))

    def depth_count(v, d):
        return rho(v, d) - rho(v, d + 1)

    counts = {}
    for j in range(1, 5):
        for l in range(1, a.n + 2):
            c = depth_count(j, l - 1) - depth_count(a.wrap(j - 1), l)
            if c:
                counts[(j, l)] = c
    from collections import Counter

    assert counts == dict(Counter(decompose_serial(m)))


def test_is_isomorphic_reflexive_and_negative(a32):
    m = uniserial(a32, 1, 2)
    assert is_isomorphic(m, m)
    assert not is_isomorphic(simple(a32, 1), simple(a32, 2))


def test_find_isomorphism_is_explicit(a32):
    m = uniserial(a32, 2, 2)
    cover = projective_cover(simple(a32, 1))
    k, _ = kernel(cover.surjection)  # rad P_1, same serial type (2,2)
    f = find_isomorphism(k, m)
    assert f is not None
    assert f.is_invertible()


@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_path_basis_builder_agrees_across_constructors(t, n):
    alg = nakayama_algebra(t, n)
    for i in range(1, t + 1):
        p = projective(alg, i)
        assert p.structurally_equal(LabeledProjective(alg, (i,)).module)
        (a,) = alg.quiver.arrows_from[i]
        scaled = QuiverModule(alg, p.dims, [2 * m if k == a else m for k, m in enumerate(p.arrow_maps)])
        assert not p.structurally_equal(scaled) and not scaled.structurally_equal(p)
        for length in range(1, n + 2):
            assert decompose_serial(uniserial(alg, i, length)) == [(i, length)]


def _map_to_agrees(P, target, rng):
    """P.map_to(target, images) for random generator images: column (s, path) is path's matrix times image s."""
    p = target.field.p
    images = [rng.integers(0, p, size=target.dims[j - 1]) for j in P.summands]
    f = P.map_to(target, images)
    assert [b.shape for b in f.blocks] == list(zip(target.dims, P.module.dims))
    for s, j in enumerate(P.summands):
        paths = _cycle_paths(P.algebra.t, j, range(P.algebra.nilpotency))
        assert len(paths) == len(P.positions[s])
        for path, k in zip(paths, P.positions[s]):
            assert np.array_equal(f.block(path[2])[:, k], _path_matrix(target, path) @ images[s] % p), (s, path)
    assert sum(map(len, P.positions)) == P.total_dim


@pytest.mark.parametrize("t", [2, 3, 4])
def test_map_to_columns_are_arrow_by_arrow_products(t):
    rng, seeds = np.random.default_rng(t), random.Random(t)
    for n in range(1, 10):
        alg = nakayama_algebra(t, n)
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        for _ in range(4):
            picked = seeds.sample(mods[: t * (n + 1)], 3)
            mods.append(_random_basis(direct_sum(picked)[0], seeds))
        tops = [(1, 1, 2), (t,), tuple(range(1, t + 1)), (2, t, t)]
        for target in mods:
            _map_to_agrees(LabeledProjective(alg, seeds.choice(tops)), target, rng)


def test_map_to_on_the_branching_quiver():
    # The name is kept from when this ran over a quiver with a branching vertex and a sink. On the
    # cycle the paths branch only across summands: every target meets every tops pattern, repeated
    # tops included, and the targets are projectives, a projective plus a simple, and modules of
    # random arrow matrices that pass the relation check, zero-dimensional vertices included.
    rng = np.random.default_rng(11)
    for t in (2, 3, 4):
        for n in (1, 2, 3):
            alg = nakayama_algebra(t, n)
            targets = [projective(alg, i) for i in range(1, t + 1)] + [direct_sum([projective(alg, 1), simple(alg, t)])[0]]
            while len(targets) < 3 * t + 3:
                try:
                    targets.append(QuiverModule(alg, *_random_module_data(alg, rng, rng.choice([0.2, 0.5]))))
                except ValueError:  # a broken relation
                    continue
            for target in targets:
                for tops in [(1,), (1, 1, t), (t, 2), tuple(range(1, t + 1))]:
                    _map_to_agrees(LabeledProjective(alg, tops), target, rng)


def _keyed_path_basis(t, basis, tops, max_length):
    """Dims, arrow matrices and the position of each key (s, path), from dicts keyed by (start, arrows, end) paths."""
    by_vertex = {v: [] for v in range(1, t + 1)}
    for s, j in enumerate(tops):
        for p in basis[j]:
            if len(p[1]) < max_length:
                by_vertex[p[2]].append((s, p))
    pos = {key: k for items in by_vertex.values() for k, key in enumerate(items)}
    dims = [len(by_vertex[v]) for v in range(1, t + 1)]
    maps = []
    for a in range(t):
        u, v = a + 1, (a + 1) % t + 1
        m = np.zeros((dims[v - 1], dims[u - 1]), dtype=np.int64)
        for s, (start, arrows, _) in by_vertex[u]:
            ext = (start, arrows + (a,), v)
            if len(ext[1]) < max_length:
                m[pos[(s, ext)], pos[(s, (start, arrows, u))]] = 1
        maps.append(m)
    return dims, maps, pos


def test_the_walk_gives_the_path_word_bases_positions_and_maps():
    rng = np.random.default_rng(3)
    for t in range(2, 6):
        for n in range(1, 7):
            alg = nakayama_algebra(t, n)
            _walk_agrees(alg, t, n + 1, rng)


def _walk_agrees(alg, t, nil, rng):
    """The walk, the relation arrows, the path bases, positions, generators and map_to against `_cycle_paths`."""
    vertices = range(1, t + 1)
    basis = {v: _cycle_paths(t, v, range(nil)) for v in vertices}
    relations = [p for v in vertices for p in _cycle_paths(t, v, [nil])]
    assert alg.dimension == sum(map(len, basis.values()))
    for v in vertices:
        entries, levels = alg.walk(v)
        assert len(entries) == levels[-1] and len(levels) == nil + 2
        # Each entry, read back along its parents, is the path of its place in the walk.
        paths = []
        for parent, a, end in entries:
            paths.append((v, paths[parent][1] + (a,) if parent >= 0 else (), end))
        assert paths == basis[v] + [p for p in relations if p[0] == v]
    rels = alg.relation_arrows()
    assert rels.shape == (len(relations), nil) and not rels.flags.writeable
    assert rels.tolist() == [list(arrows) for _, arrows, _ in relations]
    for tops in [(1,), (1, 1), tuple(vertices), (t, t, 1), (t, 1), ()]:
        for max_length in range(1, nil + 1):
            dims, maps, positions = modules._path_basis(alg, tops, max_length)
            want_dims, want_maps, pos = _keyed_path_basis(t, basis, tops, max_length)
            assert dims == want_dims
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(maps, want_maps, strict=True))
            keys = [[(s, p) for p in basis[j] if len(p[1]) < max_length] for s, j in enumerate(tops)]
            assert positions == tuple(tuple(pos[key] for key in row) for row in keys), (alg, tops)
        P = LabeledProjective(alg, tops)
        assert P.module.dims == tuple(want_dims) and P.positions == positions
        assert all(np.array_equal(a, b) for a, b in zip(P.module.arrow_maps, want_maps, strict=True))
        for s, j in enumerate(tops):
            unit = np.zeros(want_dims[j - 1], dtype=np.int64)
            unit[pos[(s, (j, (), j))]] = 1
            assert np.array_equal(P.generator_vector(s), unit)
        for target in [projective(alg, v) for v in vertices]:
            images = [rng.integers(0, alg.field.p, size=target.dims[j - 1]) for j in tops]
            f = P.map_to(target, images)
            for (s, path), k in pos.items():
                want = _path_matrix(target, path) @ images[s] % alg.field.p
                assert np.array_equal(f.block(path[2])[:, k], want), (alg, tops, s, path)


def test_a_vertex_outside_the_quiver_is_refused_by_name():
    alg = nakayama_algebra(3, 2)
    for v in (0, 4):
        with pytest.raises(ValueError, match=f"vertex {v} outside \\[1,3\\]"):
            alg.walk(v)
        with pytest.raises(ValueError, match=f"vertex {v} outside \\[1,3\\]"):
            LabeledProjective(alg, (1, v))
        with pytest.raises(ValueError, match=f"vertex {v} outside \\[1,3\\]"):
            projective(alg, v)
        with pytest.raises(ValueError, match=f"vertex {v} outside \\[1,3\\]"):
            uniserial(alg, v, 2)


def test_module_validation_rejects_broken_relations(a32):
    # An arrow loop that survives length n+1 composites violates J^{n+1} = 0.
    with pytest.raises(ValueError):
        QuiverModule(a32, (1, 1, 1), [np.array([[1]])] * 3)


def _first_broken_relation(alg, dims, maps):
    """The first relation path (start, arrows, end), by start vertex, acting as nonzero: arrow by arrow."""
    p = alg.field.p
    for rel in (r for v in range(1, alg.t + 1) for r in _cycle_paths(alg.t, v, [alg.nilpotency])):
        m = np.eye(dims[rel[0] - 1], dtype=np.int64)
        for a in rel[1]:
            m = np.asarray(maps[a], dtype=np.int64) @ m % p
        if m.any():
            return rel
    return None


def _relation_check_agrees(alg, dims, maps) -> bool:
    """Build the module checked; it is rejected exactly when the reference finds a broken relation, naming it."""
    want = _first_broken_relation(alg, dims, maps)
    if want is not None:
        with pytest.raises(ValueError) as err:
            QuiverModule(alg, dims, maps)
        start, arrows, end = want
        assert str(err.value) == f"relation path path({start}->{end}, arrows={list(arrows)}) does not act as zero"
        return False
    QuiverModule(alg, dims, maps)
    return True


def _random_module_data(alg, rng, density):
    q, p = alg.quiver, alg.field.p
    dims = [int(d) for d in rng.integers(0, 3, size=q.vertex_count)]
    maps = []
    for s, t in q.arrows:
        shape = (dims[t - 1], dims[s - 1])
        maps.append(rng.integers(1, p, size=shape) * (rng.random(shape) < density))
    return dims, maps


@pytest.mark.parametrize("t", [2, 3, 4])
def test_batched_relation_check_matches_the_arrow_by_arrow_reference(t):
    rng = np.random.default_rng(t)
    accepted, failing = 0, set()
    for n in (1, 2, 3, 4):
        alg = nakayama_algebra(t, n)
        valid = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        valid.append(direct_sum([valid[0], valid[-1], valid[n]])[0])
        for _ in range(40):
            dims, maps = _random_module_data(alg, rng, rng.choice([0.3, 0.6, 1.0]))
            accepted += _relation_check_agrees(alg, dims, maps)
            failing.add(_first_broken_relation(alg, dims, maps))
        for m in valid:
            assert _relation_check_agrees(alg, m.dims, m.arrow_maps)
            # One changed entry of one arrow matrix may break some relation, or none.
            a = int(rng.integers(t))
            if not m.arrow_maps[a].size:
                continue
            maps = [x.copy() for x in m.arrow_maps]
            r, c = (int(rng.integers(k)) for k in maps[a].shape)
            maps[a][r, c] = (maps[a][r, c] + rng.integers(1, alg.field.p)) % alg.field.p
            accepted += _relation_check_agrees(alg, m.dims, maps)
            failing.add(_first_broken_relation(alg, m.dims, maps))
    # Both verdicts occur, and rejections name more than one relation path.
    assert accepted and len(failing - {None}) > 1


def test_relation_check_at_radical_length_two_rejects_two_nonzero_arrows_in_a_row():
    alg = nakayama_algebra(3, 1)
    assert alg.relation_arrows().tolist() == [[0, 1], [1, 2], [2, 0]]
    zero = [np.zeros((1, 1), dtype=np.int64)] * 3
    assert _relation_check_agrees(alg, (1, 1, 1), zero)
    for a in range(3):
        alone = [np.array([[5]]) if k == a else m for k, m in enumerate(zero)]
        assert _relation_check_agrees(alg, (1, 1, 1), alone)
        pair = [np.array([[5]]) if k in (a, (a + 1) % 3) else m for k, m in enumerate(zero)]
        assert _first_broken_relation(alg, (1, 1, 1), pair) == (a + 1, (a, (a + 1) % 3), (a + 2) % 3 + 1)
        assert not _relation_check_agrees(alg, (1, 1, 1), pair)


def test_module_map_validation(a32):
    # P_1 -> S_2 hitting the second radical layer is not a module map.
    m = projective(a32, 1)
    with pytest.raises(ValueError):
        ModuleMap(m, simple(a32, 2), [np.zeros((0, 1)), np.array([[1]]), np.zeros((0, 1))])


def test_module_map_rejects_too_few_blocks(a32):
    s1 = simple(a32, 1)
    with pytest.raises(ValueError, match="1 blocks for 3 vertices"):
        ModuleMap(s1, s1, [np.eye(1)])


def test_module_map_rejects_too_many_blocks(a32):
    s1 = simple(a32, 1)
    blocks = [np.eye(1), np.zeros((0, 0)), np.zeros((0, 0)), np.zeros((0, 0))]
    with pytest.raises(ValueError, match="4 blocks for 3 vertices"):
        ModuleMap(s1, s1, blocks)


def test_scale_reduces_a_large_scalar_before_it_multiplies():
    # (p - 1) * (2^50 + 1) does not fit in int64, so an unreduced scalar would wrap around.
    p = 1048573
    m = uniserial(nakayama_algebra(3, 2, GF(p)), 1, 2)
    f = ModuleMap.identity(m).scale(p - 1).scale(2**50 + 1)
    assert [b.tolist() for b in f.blocks] == [[[(p - 1) * (2**50 + 1) % p]], [[(p - 1) * (2**50 + 1) % p]], []]


def test_direct_sum_inclusion_projection(a32):
    mods = [simple(a32, 1), projective(a32, 2)]
    total, incls, projs = direct_sum(mods)
    assert total.total_dim == 4
    for inc, pr, m in zip(incls, projs, mods):
        assert pr.compose(inc).is_invertible()


def test_cokernel_takes_the_name_it_is_given(a32):
    f = hom_basis(simple(a32, 3), projective(a32, 1))[0]
    assert cokernel(f)[0].name == "coker(simple:3)"
    named, proj = cokernel(f, name="cone(d=1, simple:1)")
    assert named.name == "cone(d=1, simple:1)" and proj.target is named
    assert named.structurally_equal(cokernel(f)[0])


def _kron_hom_basis(m, n):
    """Hom(M, N) from the intertwining system assembled with np.kron, one validated map per kernel vector."""
    field, q, t = m.field, m.algebra.quiver, m.algebra.quiver.vertex_count
    col_off = np.cumsum([0] + [n.dims[v] * m.dims[v] for v in range(t)])
    if col_off[-1] == 0:
        return []
    rows = []
    for a in range(len(q.arrows)):
        u, v = q.source(a) - 1, q.target(a) - 1
        blk = np.zeros((n.dims[v] * m.dims[u], col_off[-1]), dtype=np.int64)
        blk[:, col_off[u] : col_off[u + 1]] += np.kron(n.arrow_maps[a], np.eye(m.dims[u], dtype=np.int64))
        blk[:, col_off[v] : col_off[v + 1]] -= np.kron(np.eye(n.dims[v], dtype=np.int64), m.arrow_maps[a].T)
        rows.append(blk % field.p)
    return [
        ModuleMap(m, n, [vec[col_off[v] : col_off[v + 1]].reshape(n.dims[v], m.dims[v]) for v in range(t)])
        for vec in field.kernel_basis(np.vstack(rows))
    ]


@pytest.mark.parametrize("t", [2, 3, 4])
def test_hom_basis_matches_the_kron_system_map_for_map(t):
    for n in range(1, 6):
        alg = nakayama_algebra(t, n)
        mods = [simple(alg, i) for i in range(1, t + 1)]
        mods += [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(2, n + 1)]
        mods += [projective(alg, i) for i in range(1, t + 1)]
        mods.append(direct_sum([uniserial(alg, 1, n), projective(alg, t)])[0])
        for x in mods:
            for y in mods:
                got, want = hom_basis(x, y), _kron_hom_basis(x, y)
                assert len(got) == len(want), (t, n, x, y)
                for g, w in zip(got, want):
                    assert g.source is x and g.target is y
                    assert all(np.array_equal(a, b) for a, b in zip(g.blocks, w.blocks, strict=True))
                    g._validate()


def test_hom_basis_matches_the_kron_system_at_a_larger_cell():
    # (2, 12) puts 6 or 7 basis paths of a projective at each vertex; (5, 9) gives 5 arrows and
    # uniserials that wrap the cycle once or twice.
    alg = nakayama_algebra(2, 12)
    mods = [uniserial(alg, i, length) for i in (1, 2) for length in (1, 2, 5, 8, 12)]
    mods += [projective(alg, i) for i in (1, 2)]
    mods.append(direct_sum([uniserial(alg, 1, 7), projective(alg, 2)])[0])
    five = nakayama_algebra(5, 9)
    mods_five = [uniserial(five, i, length) for i in (1, 3, 5) for length in (1, 4, 7, 9)]
    mods_five += [projective(five, 2), direct_sum([uniserial(five, 2, 6), simple(five, 4)])[0]]
    assert max(max(x.dims) for x in mods) >= 7
    for group in (mods, mods_five):
        for x in group:
            for y in group:
                got, want = hom_basis(x, y), _kron_hom_basis(x, y)
                assert len(got) == len(want), (x, y)
                for g, w in zip(got, want):
                    assert all(np.array_equal(a, b) for a, b in zip(g.blocks, w.blocks, strict=True))


def _reference_failed_arrow(m, n, f):
    """The first arrow a with N_a f_u != f_v M_a, one arrow at a time; f[w] is one block or a stack."""
    q, p = m.algebra.quiver, m.field.p
    for a in range(len(q.arrows)):
        u, v = q.source(a) - 1, q.target(a) - 1
        if not np.array_equal((n.arrow_maps[a] @ f[u]) % p, (f[v] @ m.arrow_maps[a]) % p):
            return a
    return None


def _failed_arrow_modules(alg, t, n):
    """Zero, simple, short and long uniserial, projective and a sum: zero-dimensional vertices included."""
    mods = [zero_module(alg), simple(alg, 1), uniserial(alg, t, min(2, n)), uniserial(alg, 2, n)]
    mods += [projective(alg, 1), direct_sum([uniserial(alg, 1, n), simple(alg, t)])[0]]
    assert any(0 in x.dims for x in mods[1:])
    return mods


def _padded_failed_arrow(m, n, f):
    """modules._failed_arrow on f[w], one block or a (k, n_w, m_w) stack per vertex, zero-padded as ModuleMap pads."""
    return modules._failed_arrow(m, n, modules._padded(f, max(n.dims), max(m.dims)))


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_failed_arrow_matches_the_per_arrow_loop(t):
    rng = np.random.default_rng(t)
    chosen = set()
    for n in (1, 3, 4):
        alg = nakayama_algebra(t, n)
        p, q = alg.field.p, alg.quiver
        mods = _failed_arrow_modules(alg, t, n)
        for x in mods:
            for y in mods:
                maps = hom_basis(x, y)
                basis = [np.stack([h.blocks[w] for h in maps]) for w in range(t)] if maps else None
                for k in (0, 1, 3):
                    if basis is None:
                        stack = [np.zeros((k, y.dims[w], x.dims[w]), dtype=np.int64) for w in range(t)]
                    else:
                        coef = rng.integers(0, p, size=(k, len(basis[0])))
                        stack = [np.einsum("kj,jrc->krc", coef, b) % p for b in basis]
                    assert _padded_failed_arrow(x, y, stack) is None
                    assert _reference_failed_arrow(x, y, stack) is None
                    for j in range(k):  # each map of the stack as one map's blocks
                        assert _padded_failed_arrow(x, y, [b[j] for b in stack]) is None
                    blocks = [w for w in range(t) if stack[w].size]
                    if not blocks:
                        continue
                    # Corrupt one random nonempty block of one map: the helper reads what the loop reads.
                    bad, w, j = [b.copy() for b in stack], rng.choice(blocks), rng.integers(k)
                    bad[w][j] = (bad[w][j] + rng.integers(1, p, size=bad[w][j].shape)) % p
                    assert _padded_failed_arrow(x, y, bad) == _reference_failed_arrow(x, y, bad)
                    # Corrupt arrow a = u -> v alone: add x0 y0^T to f_v with y0^T M_a != 0 and N_out x0 = 0,
                    # where N_out is the arrow leaving v, so a fails and every other arrow still holds.
                    for a in range(t):
                        v, out = q.target(a) - 1, q.arrows_from[q.target(a)][0]
                        x0s, y0s = alg.field.kernel_basis(y.arrow_maps[out]), [r for r in x.arrow_maps[a].T if r.any()]
                        if not x0s or not y0s:
                            continue
                        row = np.zeros(x.dims[v], dtype=np.int64)
                        row[np.flatnonzero(y0s[0])[0]] = 1
                        bad = [b.copy() for b in stack]
                        bad[v][k - 1] = (bad[v][k - 1] + np.outer(x0s[0], row)) % p
                        assert _padded_failed_arrow(x, y, bad) == _reference_failed_arrow(x, y, bad) == a
                        single = [b[k - 1] for b in bad]
                        assert _padded_failed_arrow(x, y, single) == _reference_failed_arrow(x, y, single) == a
                        chosen.add(a)
    assert chosen == set(range(t))


def test_hom_basis_checks_every_map_before_returning(a32, monkeypatch):
    honest = GF.kernel_matrix

    def one_wrong_column(self, m):
        # Append the first unit vector that m does not kill.
        extra = self.eye(m.shape[1])[:, [next(c for c in range(m.shape[1]) if np.any(m[:, c]))]]
        return np.hstack([honest(self, m), extra])

    m = uniserial(a32, 1, 2)
    assert len(hom_basis(m, m)) == 1
    monkeypatch.setattr(GF, "kernel_matrix", one_wrong_column)
    # A fresh algebra has an empty Hom-kernel memo, so the patched kernel is computed and checked.
    fresh = nakayama_algebra(3, 2)
    m = uniserial(fresh, 1, 2)
    with pytest.raises(AssertionError, match="does not intertwine"):
        hom_basis(m, m)
    assert fresh._hom_kernels == {}


@pytest.mark.parametrize("t", [2, 3, 4])
def test_warm_hom_basis_reads_the_kernel_memo(t, monkeypatch):
    def build(alg, n):
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 1)]
        mods += [projective(alg, i) for i in range(1, t + 1)]
        mods.append(direct_sum([simple(alg, 1), simple(alg, t)])[0])
        return mods

    cold = {}
    for n in range(1, 5):
        alg = nakayama_algebra(t, n)
        mods = build(alg, n)
        pairs = set()
        for x in mods:
            for y in mods:
                cold[n, x.content_key(), y.content_key()] = hom_basis(x, y)
                if any(a * b for a, b in zip(x.dims, y.dims)):
                    pairs.add((x.content_key(), y.content_key()))
        # One entry per distinct content pair with a nonzero system; each is a read-only array.
        assert set(alg._hom_kernels) == pairs
        assert all(not ker.flags.writeable for ker in alg._hom_kernels.values())
        with monkeypatch.context() as mp:
            mp.setattr(GF, "kernel_matrix", lambda self, m: pytest.fail("warm hom_basis solved a system"))
            # New module objects with the same content hit the memo and get maps between themselves.
            again = build(alg, n)
            for x in again:
                for y in again:
                    got, want = hom_basis(x, y), cold[n, x.content_key(), y.content_key()]
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert g.source is x and g.target is y
                        assert all(np.array_equal(a, b) for a, b in zip(g.blocks, w.blocks, strict=True))
        assert set(alg._hom_kernels) == pairs


def _conjugated(m: QuiverModule) -> QuiverModule:
    """M with each vertex space changed by a fixed non-diagonal invertible matrix g_v: arrows g_v M_a g_u^-1."""
    f, q = m.field, m.algebra.quiver
    # g_v = (upper triangle of v + 2, diagonal 1) with its columns reversed.
    g = [(np.triu(np.full((d, d), v + 2)) - (v + 1) * np.eye(d, dtype=np.int64))[:, ::-1] for v, d in enumerate(m.dims)]
    maps = [f.matmul(f.matmul(g[q.target(a) - 1], m.arrow_maps[a]), f.inverse(g[q.source(a) - 1]))
            for a in range(len(q.arrows))]
    return QuiverModule(m.algebra, m.dims, maps, name=f"conjugated:{m.describe()}")


@pytest.mark.parametrize("t", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_find_isomorphism_against_the_intertwining_equations(t, n):
    alg = nakayama_algebra(t, n)
    p = alg.field.p
    types = [(i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
    support = {ty: {alg.wrap(ty[0] + d) for d in range(ty[1])} for ty in types}
    moved = 0
    # Summand a has top 1; the other tops give the same cases up to rotating the quiver.
    for a, b in [(a, b) for a in types if a[0] == 1 for b in types if support[a] & support[b]]:
        m, _, _ = direct_sum([uniserial(alg, *a), uniserial(alg, *b)])
        c = _conjugated(m)
        moved += not c.structurally_equal(m)
        iso = find_isomorphism(m, c)
        assert isinstance(iso, ModuleMap) and iso.source is m and iso.target is c
        for arrow in range(len(alg.quiver.arrows)):  # N_a f_u = f_v M_a, written out independently
            u, v = alg.quiver.source(arrow) - 1, alg.quiver.target(arrow) - 1
            lhs = (c.arrow_maps[arrow] @ iso.blocks[u]) % p
            assert np.array_equal(lhs, (iso.blocks[v] @ m.arrow_maps[arrow]) % p), (a, b, arrow)
        assert iso.is_invertible()
    assert moved > 0
    for i in range(1, t + 1):
        for j in range(1, t + 1):
            if i != j and t <= n:
                mi, mj = uniserial(alg, i, t), uniserial(alg, j, t)
                assert mi.dims == mj.dims == (1,) * t
                assert find_isomorphism(mi, mj) is None and not is_isomorphic(mi, mj)


def _inverse_cokernel(f: ModuleMap) -> tuple[QuiverModule, ModuleMap]:
    """Reference cokernel: invert the basis [f_v[:, im] | I[:, comp]] and keep the rows past the image."""
    N, field, q = f.target, f.target.field, f.target.algebra.quiver
    proj_blocks, section_blocks = [], []
    for b, nv in zip(f.blocks, N.dims):
        _, pivots = field.rref(np.hstack([b, field.eye(nv)]))
        im_cols = [c for c in pivots if c < b.shape[1]]
        comp_cols = [c - b.shape[1] for c in pivots if c >= b.shape[1]]
        inv = field.inverse(np.hstack([b[:, im_cols], field.eye(nv)[:, comp_cols]]))
        assert inv is not None
        proj_blocks.append(inv[len(im_cols) :, :])
        section_blocks.append(field.eye(nv)[:, comp_cols])
    maps = [
        field.matmul(field.matmul(proj_blocks[v - 1], N.arrow_maps[a]), section_blocks[u - 1])
        for a, (u, v) in enumerate(q.arrows)
    ]
    coker = QuiverModule(N.algebra, [p.shape[0] for p in proj_blocks], maps, name=f"coker({f.source.describe()})")
    return coker, ModuleMap(N, coker, proj_blocks)


def _assert_same_cokernel(f: ModuleMap):
    (c, proj), (ref_c, ref_proj) = cokernel(f), _inverse_cokernel(f)
    assert c.name == ref_c.name and c.dims == ref_c.dims
    assert all(np.array_equal(x, y) for x, y in zip(c.arrow_maps, ref_c.arrow_maps, strict=True))
    assert all(np.array_equal(x, y) for x, y in zip(proj.blocks, ref_proj.blocks, strict=True))


@pytest.mark.parametrize("t", [2, 3, 4])
def test_cokernel_matches_the_inverse_assembly(t):
    for n in range(1, 6):
        alg = nakayama_algebra(t, n)
        # Length n + 1 is the projective; projective() builds it as well, under its own name.
        mods = [uniserial(alg, i, length) for i in range(1, t + 1) for length in range(1, n + 2)]
        mods += [projective(alg, i) for i in range(1, t + 1)]
        for m in mods:
            for target in mods:
                for f in hom_basis(m, target):
                    _assert_same_cokernel(f)
        for f in (ModuleMap.identity(mods[1]), ModuleMap.zero(mods[0], mods[-1])):
            _assert_same_cokernel(f)
        total, _, _ = direct_sum([mods[0], mods[1], mods[-1]])
        for target in (mods[1], mods[-1]):
            maps = hom_basis(total, target)
            assert maps
            for f in maps:
                _assert_same_cokernel(f)
            p = alg.field.p
            _assert_same_cokernel(ModuleMap(total, target, [sum(bs) % p for bs in zip(*(f.blocks for f in maps))]))


@st.composite
def _column_blocks(draw):
    p = draw(st.sampled_from([2, 3, 101]))
    rows, ka, kb = draw(st.integers(0, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 6))
    entries = st.lists(st.integers(0, p - 1), min_size=rows * (ka + kb), max_size=rows * (ka + kb))
    m = np.array(draw(entries), dtype=np.int64).reshape(rows, ka + kb)
    if kb and draw(st.booleans()):  # repeat a column of b so that some column falls in the span
        m[:, ka + draw(st.integers(0, kb - 1))] = m[:, ka + draw(st.integers(0, kb - 1))]
    return GF(p), m[:, :ka], m[:, ka:]


@given(_column_blocks())
@settings(max_examples=150, deadline=None)
def test_pivots_beyond_picks_the_columns_that_raise_the_rank(case):
    field, a, b = case
    r, cols = modules._pivots_beyond(field, a, b)
    grows = [
        c
        for c in range(b.shape[1])
        if field.rank(np.hstack([a, b[:, : c + 1]])) > field.rank(np.hstack([a, b[:, :c]]))
    ]
    assert cols == grows
    assert np.array_equal(r, field.rref(np.hstack([a, b]))[0])
