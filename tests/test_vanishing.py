import pytest

import quiverhom.homology as homology
import quiverhom.vanishing as vanishing
from quiverhom.algebra import nakayama_algebra
from quiverhom.homology import ext_table
from quiverhom.koszul import build_periodicity_tower
from quiverhom.modules import projective, simple, uniserial
from quiverhom.vanishing import (
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
    tower = build_periodicity_tower(s2, 6)
    report = gap_check(ext_table(s2, s1, 20), tower)
    assert report.gap_length == 2
    assert report.gap_start == 1
    assert report.verdict == "gap-implies-all-zero-verified"


def test_gap_check_no_gap_direction(a32):
    s1, s2 = simple(a32, 1), simple(a32, 2)
    tower = build_periodicity_tower(s1, 6)
    report = gap_check(ext_table(s1, s2, 20), tower)
    assert report.verdict == "no-gap"
    assert report.gap_start is None


def test_gap_check_all_zero_table_any_tower(a32):
    p = projective(a32, 1)
    tower = build_periodicity_tower(p, 6)
    report = gap_check(ext_table(p, simple(a32, 1), 20), tower)
    assert report.gap_start == 1
    assert report.verdict == "gap-implies-all-zero-verified"


def test_gap_check_module_mismatch_rejected(a32):
    s1, s2 = simple(a32, 1), simple(a32, 2)
    tower = build_periodicity_tower(s1, 6)
    with pytest.raises(ValueError):
        gap_check(ext_table(s2, s1, 20), tower)


def test_symmetry_asymmetric_pair(a32):
    rep = symmetry_scan(simple(a32, 1), simple(a32, 2), 20, 6)
    assert rep.verdict == "asymmetric"
    assert rep.vanishing_direction == "n-to-m"
    assert rep.witness_degrees["n_to_m"] == []
    assert rep.witness_degrees["m_to_n"] == [15, 17, 19]


def test_symmetry_self_pair_never_vanishes(a32):
    rep = symmetry_scan(simple(a32, 2), simple(a32, 2), 20, 6)
    assert rep.verdict == "neither-vanishes"


def test_symmetry_projective_pair_vanishes_both_ways(a32):
    rep = symmetry_scan(projective(a32, 1), projective(a32, 2), 20, 6)
    assert rep.verdict == "both-tails-vanish"


def test_symmetric_cell_has_no_asymmetric_pairs():
    a = nakayama_algebra(2, 2)
    for i in (1, 2):
        for j in (1, 2):
            rep = symmetry_scan(simple(a, i), simple(a, j), 20, 4)
            assert rep.verdict == "neither-vanishes"


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
    rep = auslander_scan(m, corpus, 20, head=6)
    assert rep["violations"] == []
    entry = next(e for e in rep["entries"] if e["target"] == "simple:1")
    assert entry["tail_vanishes"] and entry["all_vanish"]


def test_auslander_scan_projective_vacuous(a32):
    rep = auslander_scan(projective(a32, 1), [simple(a32, 1)], 20, head=6)
    assert rep["violations"] == []
    assert all(e["tail_vanishes"] and e["all_vanish"] for e in rep["entries"])


def test_auslander_scan_uniserial_corpus():
    a = nakayama_algebra(4, 4)
    corpus = [uniserial(a, i, l) for i in range(1, 5) for l in range(1, 5)]
    rep = auslander_scan(simple(a, 1), corpus, 20, head=8)
    assert rep["violations"] == []


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
    calls = {"builds": 0, "ext_dims": 0}
    init, ext_dims = homology.Resolution.__init__, homology.ext_dims

    def counting_init(self, *args):
        calls["builds"] += 1
        init(self, *args)

    def counting_ext_dims(*args):
        calls["ext_dims"] += 1
        return ext_dims(*args)

    monkeypatch.setattr(homology.Resolution, "__init__", counting_init)
    monkeypatch.setattr(homology, "ext_dims", counting_ext_dims)
    rep = nakayama_report(4, 3, 12)
    assert rep["witness"]["verdict"] == "confirmed"
    assert calls == {"builds": 4, "ext_dims": 16}


def test_run_sweep_passes_tail_to_every_cell_serial_and_pooled():
    serial = run_sweep((3, 4), (2, 2), 8, workers=1, tail=3)
    assert [c["tail"] for c in serial["cells"]] == [3, 3]
    assert run_sweep((3, 4), (2, 2), 8, workers=2, tail=3) == serial


def test_run_sweep_starts_no_pool_for_one_cell(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(vanishing, "ProcessPoolExecutor", no_pool)
    agg = run_sweep((2, 2), (1, 1), 6, workers=8)
    assert agg["summary"]["cell_count"] == 1


def test_run_sweep_names_the_failing_cell(monkeypatch):
    def fail_on_t3(args):
        if args[0] == 3:
            raise ValueError("boom")
        return real_cell(args)

    real_cell = vanishing._sweep_cell
    monkeypatch.setattr(vanishing, "_sweep_cell", fail_on_t3)
    with pytest.raises(vanishing.SweepError, match="t=3, n=1 failed: boom"):
        run_sweep((2, 3), (1, 1), 6)
