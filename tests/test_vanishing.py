import concurrent.futures

import pytest

import quiverhom.cli as cli
import quiverhom.homology as homology
import quiverhom.modules as modules
import quiverhom.vanishing as vanishing
from quiverhom.algebra import BoundQuiverAlgebra, Quiver, nakayama_algebra
from quiverhom.homology import ExtTable, ext_table, minimal_resolution
from quiverhom.koszul import build_periodicity_tower
from quiverhom.modules import UnsupportedOperation, decompose_serial, projective, simple, uniserial
from quiverhom.vanishing import (
    FalsificationError,
    auslander_scan,
    gap_check,
    gap_suite_cell,
    nakayama_report,
    run_sweep,
    sample_uniserial_pairs,
    symmetry_scan,
)


@pytest.fixture(scope="module")
def a32():
    return nakayama_algebra(3, 2)


def test_gap_check_verified_direction(a32):
    s1, s2 = simple(a32, 1), simple(a32, 2)
    step = build_periodicity_tower(s2)
    report = gap_check(ext_table(s2, s1, 20), step)
    assert report.gap_length == step.degree == 2
    assert report.gap_start == 1
    assert report.verdict == "gap-implies-all-zero-verified"


def test_gap_check_no_gap_direction(a32):
    s1, s2 = simple(a32, 1), simple(a32, 2)
    step = build_periodicity_tower(s1)
    report = gap_check(ext_table(s1, s2, 20), step)
    assert report.verdict == "no-gap"
    assert report.gap_start is None


def test_gap_check_all_zero_table_any_tower(a32):
    p = projective(a32, 1)
    step = build_periodicity_tower(p)
    report = gap_check(ext_table(p, simple(a32, 1), 20), step)
    assert step is None and report.gap_length == 1
    assert report.gap_start == 1
    assert report.verdict == "gap-implies-all-zero-verified"


def test_gap_check_module_mismatch_rejected(a32):
    s1, s2 = simple(a32, 1), simple(a32, 2)
    step = build_periodicity_tower(s1)
    with pytest.raises(ValueError):
        gap_check(ext_table(s2, s1, 20), step)


def test_gap_check_without_a_step_for_a_non_projective_source_raises(a32):
    # Every non-projective module has a period, so a missing step is a failed search, not g = 1.
    s2 = simple(a32, 2)
    with pytest.raises(FalsificationError, match="^no periodicity tower for non-projective simple:2$"):
        gap_check(ext_table(s2, simple(a32, 1), 20), None)


def test_gap_check_accepts_the_stored_step_for_an_equal_module():
    alg = nakayama_algebra(3, 2)
    m1, m2 = uniserial(alg, 2, 2), uniserial(alg, 2, 2)
    # m1's step serves the equal module m2: gap_check compares sources by content.
    stored = build_periodicity_tower(m1)
    assert stored.source is m1 and m1 is not m2
    report = gap_check(ext_table(m2, simple(alg, 1), 20), stored)
    assert report.pair[0] == "uniserial:2:2" and report.gap_length == stored.degree


def test_symmetry_asymmetric_pair(a32):
    rep = symmetry_scan(simple(a32, 1), simple(a32, 2), 20)
    assert rep.verdict == "asymmetric"
    assert rep.vanishing_direction == "n-to-m"
    assert rep.witness_degrees["n_to_m"] == []
    assert rep.witness_degrees["m_to_n"] == [15, 17, 19]


def test_symmetry_self_pair_never_vanishes(a32):
    rep = symmetry_scan(simple(a32, 2), simple(a32, 2), 20)
    assert rep.verdict == "neither-vanishes"


def test_symmetry_projective_pair_vanishes_both_ways(a32):
    rep = symmetry_scan(projective(a32, 1), projective(a32, 2), 20)
    assert rep.verdict == "both-tails-vanish"


def test_symmetric_cell_has_no_asymmetric_pairs():
    a = nakayama_algebra(2, 2)
    for i in (1, 2):
        for j in (1, 2):
            rep = symmetry_scan(simple(a, i), simple(a, j), 20)
            assert rep.verdict == "neither-vanishes"


def test_short_tail_asymmetry_is_reported_and_full_period_tail_raises():
    # Over the symmetric cell (2, 2) the Ext period divides 2t = 4, so the
    # window is the last min(4, B) degrees and B >= 4 spans a full period.
    a = nakayama_algebra(2, 2)
    s1, s2 = simple(a, 1), simple(a, 2)

    def tables(dims):
        return (
            ExtTable(source=s1, target=s2, max_degree=len(dims), dims=(0,) * len(dims), field_p=101),
            ExtTable(source=s2, target=s1, max_degree=len(dims), dims=dims, field_p=101),
        )

    rep = vanishing._classify_tails(*tables((1, 0, 1)))
    assert (rep.tail, rep.verdict, rep.vanishing_direction) == (3, "asymmetric", "m-to-n")
    with pytest.raises(FalsificationError):
        vanishing._classify_tails(*tables((1, 0, 1, 0)))
    with pytest.raises(FalsificationError):
        vanishing._classify_tails(*tables((1, 0, 1, 0, 1)))


def test_symmetry_scan_needs_the_period_bound():
    alg = BoundQuiverAlgebra(Quiver(1, [(1, 1)]), nilpotency=3)
    with pytest.raises(UnsupportedOperation, match="symmetry window"):
        symmetry_scan(simple(alg, 1), simple(alg, 1), 4)


def test_nakayama_report_witness_cell():
    rep = nakayama_report(3, 2, 20)
    assert rep["r"] == 2
    assert rep["syzygy_square_ok"] and rep["syzygy_even_powers_ok"]
    assert rep["witness"]["verdict"] == "confirmed"
    assert rep["asymmetric_pairs"] == 6
    pair_12 = next(p for p in rep["pairs"] if p["from"] == 1 and p["to"] == 2)
    assert pair_12["dims"] == [1, 0] * 10
    assert pair_12["verdict"] == "asymmetric"


def test_nakayama_report_symmetric_cell():
    rep = nakayama_report(4, 4, 20)
    assert rep["r"] == 0
    assert rep["symmetric_algebra"]
    assert rep["asymmetric_pairs"] == 0
    assert rep["witness"] is None


def test_nakayama_report_t2_witness_clause_skipped():
    # r = t-1 = 1 but t = 2: the witness clause requires t >= 3.
    rep = nakayama_report(2, 1, 20)
    assert rep["r"] == 1
    assert rep["witness"] is None


def test_auslander_scan_simples(a32):
    m = simple(a32, 2)
    corpus = [simple(a32, j) for j in range(1, 4)]
    rep = auslander_scan(m, corpus, 20)
    assert rep["head"] == 6 and rep["violations"] == []
    entry = next(e for e in rep["entries"] if e["target"] == "simple:1")
    assert entry["tail_vanishes"] and entry["all_vanish"]


def test_auslander_scan_projective_vacuous(a32):
    rep = auslander_scan(projective(a32, 1), [simple(a32, 1)], 20)
    assert rep["head"] == 6 and rep["violations"] == []
    assert all(e["tail_vanishes"] and e["all_vanish"] for e in rep["entries"])


def test_auslander_scan_uniserial_corpus():
    a = nakayama_algebra(4, 4)
    corpus = [uniserial(a, i, l) for i in range(1, 5) for l in range(1, 5)]
    rep = auslander_scan(simple(a, 1), corpus, 20)
    assert rep["head"] == 8 and rep["violations"] == []


def test_auslander_scan_reads_the_whole_table_below_2t(a32):
    corpus = [uniserial(a32, i, length) for i in range(1, 4) for length in range(1, 4)]
    for max_degree in range(1, 6):
        rep = auslander_scan(simple(a32, 2), corpus, max_degree)
        assert rep["head"] == max_degree
        assert all(e["tail_vanishes"] == e["all_vanish"] for e in rep["entries"])
        assert any(e["all_vanish"] for e in rep["entries"]) and not all(e["all_vanish"] for e in rep["entries"])


def test_sample_uniserial_pairs_deterministic():
    a = sample_uniserial_pairs(3, 2, 50)
    b = sample_uniserial_pairs(3, 2, 50)
    assert a == b
    assert len(a) == 50
    assert len(sample_uniserial_pairs(2, 1, 50)) == 16  # only 16 exist


def test_gap_suite_cell_small():
    out = gap_suite_cell(3, 2, 40, 101, 10)
    assert out["violations"] == []
    assert out["pairs_checked"] == 9 + 10
    assert out["verified_gaps"] + out["no_gaps"] == out["pairs_checked"]


def test_gap_suite_cell_looks_for_each_missing_tower_once(monkeypatch):
    calls = []

    def no_tower(m):
        calls.append(m.describe())
        return None

    monkeypatch.setattr(vanishing, "build_periodicity_tower", no_tower)
    # 20 sampled pairs, so that some sources are projective.
    out = gap_suite_cell(3, 2, 40, 101, 20)
    pairs = [((i, 1), (j, 1)) for i in range(1, 4) for j in range(1, 4)] + sample_uniserial_pairs(3, 2, 20)
    sources = [f"uniserial:{i}:{length}" for (i, length), _ in pairs]
    assert calls == list(dict.fromkeys(sources)) and len(calls) < len(sources)
    # A projective source (length n + 1 = 3) needs no step, so only the others are missing one.
    missing = [s for s in sources if not s.endswith(":3")]
    assert out["violations"] == [f"no tower for {s}" for s in missing]
    assert out["pairs_checked"] == len(sources) - len(missing) > 0


def test_run_sweep_small_grid():
    agg = run_sweep((2, 3), (1, 2), 12, workers=1)
    cells = agg["cells"]
    assert [(c["t"], c["n"]) for c in cells] == [(2, 1), (2, 2), (3, 1), (3, 2)]
    assert agg["summary"]["cell_count"] == 4
    r0 = next(c for c in cells if c["t"] == 2 and c["n"] == 2)
    assert r0["asymmetric_pairs"] == 0
    witness_cell = next(c for c in cells if c["t"] == 3 and c["n"] == 2)
    assert witness_cell["asymmetric_pairs"] >= 1


def test_nakayama_report_computes_each_pair_once(monkeypatch):
    calls = dict.fromkeys(("builds", "modules", "ext_dims", "projective_cover", "serial_summands", "rank_entry", "betti"), 0)

    def counting_init(name, init):
        def wrapped(self, *args, **kwargs):
            calls[name] += 1
            init(self, *args, **kwargs)

        return wrapped

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    def counting_reads(fn):
        def wrapped(*args):
            out = fn(*args)
            calls["betti"] += len(out)
            return out

        return wrapped

    monkeypatch.setattr(homology.Resolution, "__init__", counting_init("builds", homology.Resolution.__init__))
    monkeypatch.setattr(modules.QuiverModule, "__init__", counting_init("modules", modules.QuiverModule.__init__))
    monkeypatch.setattr(homology, "ext_dims", counting("ext_dims", homology.ext_dims))
    monkeypatch.setattr(modules, "projective_cover", counting("projective_cover", modules.projective_cover))
    monkeypatch.setattr(modules, "serial_summands", counting("serial_summands", modules.serial_summands))
    monkeypatch.setattr(homology, "_rank_entry", counting("rank_entry", homology._rank_entry))
    monkeypatch.setattr(homology, "_betti_read", counting_reads(homology._betti_read))
    # Omega^2 S_i = S_i over (4, 3): the 4 simples and their 4 first syzygies are
    # the only modules resolved, and every even syzygy is one of the 4 simples.
    # The rotation v -> v + 1 carries S_1 and its syzygy to the other simples and theirs,
    # so only S_1 and Omega S_1 are covered; the other 6 steps are turned memo steps.
    # Likewise the 16 tables, each read over S_i's content cycle (0, 2), need only the
    # 2 sources of row 1 against the 4 targets: 8 Hom-complex rank entries, of S_1 and
    # Omega S_1 into each S_j; the other rows read the rotated pairs' entries.
    # The Betti cross-check reads degrees 1..c + l = 2 of each table: 32 multiplicities.
    # Modules: the 4 simples, one labeled projective per term P1..P4, the kernels of the
    # 2 covers, and Omega S_1 itself, built to be covered.
    # The shift check reads content keys: it builds no syzygy and decomposes nothing.
    want = {
        "builds": 4,
        "modules": 11,
        "ext_dims": 16,
        "projective_cover": 2,
        "serial_summands": 0,
        "rank_entry": 8,
        "betti": 32,
    }
    for _ in range(2):  # each report builds its own algebra, whose memos start empty
        calls.update(dict.fromkeys(calls, 0))
        rep = nakayama_report(4, 3, 12)
        assert rep["witness"]["verdict"] == "confirmed"
        assert calls == want


def test_shift_check_by_content_key_agrees_with_serial_decomposition():
    # The old route, kept here as the reference: build Omega^{2j} S_i and decompose it.
    for t in range(2, 7):
        for n in range(1, 9):
            alg = nakayama_algebra(t, n)
            simples = [simple(alg, i) for i in range(1, t + 1)]
            for i in range(1, t + 1):
                res = minimal_resolution(simples[i - 1], 12)
                for j in range(1, 7):
                    v = alg.wrap(i + j + j * alg.r)
                    by_key = res.syzygy_key(2 * j) == simples[v - 1].content_key()
                    by_type = decompose_serial(res.syzygy(2 * j)) == [(v, 1)]
                    assert by_key == by_type, (t, n, i, j)
                    assert by_key, (t, n, i, j)


# B = 1 still checks degree 2, as the square shift always was.
@pytest.mark.parametrize("max_degree, bad_degree", [(8, 2), (8, 6), (1, 2)])
def test_nakayama_report_raises_on_a_wrong_even_syzygy(monkeypatch, max_degree, bad_degree):
    real = homology.Resolution.syzygy_key

    def wrong_at_bad_degree(self, d):
        return ("not a simple",) if d == bad_degree else real(self, d)

    monkeypatch.setattr(homology.Resolution, "syzygy_key", wrong_at_bad_degree)
    with pytest.raises(FalsificationError, match="double-syzygy vertex shift failed for cell t=3, n=2"):
        nakayama_report(3, 2, max_degree)


def test_run_sweep_passes_tail_to_every_cell_serial_and_pooled():
    # Each cell's window is its own min(2t, B).
    serial = run_sweep((3, 4), (2, 2), 7, workers=1)
    assert [c["tail"] for c in serial["cells"]] == [6, 7]
    assert run_sweep((3, 4), (2, 2), 7, workers=2) == serial


def test_run_sweep_returns_cells_in_t_n_order_serial_and_pooled(monkeypatch):
    # The cells are built t-major and map and pool.map keep their order: no sort is needed.
    monkeypatch.setattr(vanishing, "_usable_cpus", lambda: 2)
    serial = run_sweep((2, 3), (1, 3), 12, workers=1)
    pooled = run_sweep((2, 3), (1, 3), 12, workers=2)
    grid = [(t, n) for t in (2, 3) for n in (1, 2, 3)]
    assert [(c["t"], c["n"]) for c in serial["cells"]] == [(c["t"], c["n"]) for c in pooled["cells"]] == grid
    assert cli._json_payload(pooled) == cli._json_payload(serial)


def test_run_sweep_starts_no_pool_for_one_cell(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    agg = run_sweep((2, 2), (1, 1), 6, workers=8)
    assert agg["summary"]["cell_count"] == 1


def test_run_sweep_clamps_to_the_cpus_this_process_may_use(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    serial = run_sweep((2, 3), (1, 1), 6, workers=1)
    # The host counts many CPUs, but the affinity mask allows one: the sweep runs serially.
    monkeypatch.setattr(vanishing.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(vanishing.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_sweep((2, 3), (1, 1), 6, workers=4) == serial


def test_run_sweep_names_the_failing_cell(monkeypatch):
    def fail_on_t3(args):
        if args[0] == 3:
            raise ValueError("boom")
        return real_cell(args)

    real_cell = vanishing._sweep_cell
    monkeypatch.setattr(vanishing, "_sweep_cell", fail_on_t3)
    with pytest.raises(vanishing.SweepError, match="t=3, n=1 failed: boom"):
        run_sweep((2, 3), (1, 1), 6)


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the bounds were checked")


def test_nakayama_report_refuses_a_degree_bound_below_one(monkeypatch):
    monkeypatch.setattr(vanishing, "nakayama_algebra", _no_work)
    for bound in (0, -3):
        with pytest.raises(ValueError, match="^Ext degrees start at 1; use hom_basis for degree 0$"):
            nakayama_report(3, 2, bound)


def test_gap_suite_cell_refuses_a_degree_bound_below_one(monkeypatch):
    monkeypatch.setattr(vanishing, "nakayama_algebra", _no_work)
    for bound in (0, -3):
        with pytest.raises(ValueError, match="^Ext degrees start at 1; use hom_basis for degree 0$"):
            gap_suite_cell(2, 1, bound, 101, 5)


def test_gap_suite_cell_refuses_a_negative_pair_count(monkeypatch):
    monkeypatch.setattr(vanishing, "nakayama_algebra", _no_work)
    for count in (-1, -50):
        with pytest.raises(ValueError, match=f"^uniserial_pair_count must be >= 0, got {count}$"):
            gap_suite_cell(2, 1, 4, 101, count)


def test_run_sweep_refuses_a_degree_bound_below_one(monkeypatch):
    monkeypatch.setattr(vanishing, "_sweep_cell", _no_work)
    with pytest.raises(ValueError, match="^Ext degrees start at 1; use hom_basis for degree 0$"):
        run_sweep((2, 2), (1, 1), 0)


def test_run_sweep_refuses_fewer_than_one_worker(monkeypatch):
    monkeypatch.setattr(vanishing, "_sweep_cell", _no_work)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_work)
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
            run_sweep((2, 3), (1, 1), 6, workers=workers)
