"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact integer arithmetic; the only tolerances are
the stated wall-clock budgets.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from quiverhom.algebra import nakayama_algebra
from quiverhom.cli import main as cli_main
from quiverhom.homology import detect_period, ext_dims
from quiverhom.koszul import koszul_object
from quiverhom.linalg import GF
from quiverhom.modules import decompose_serial, is_projective, simple, uniserial
from quiverhom.vanishing import gap_suite_cell, run_sweep

GRID = [(t, n) for t in range(2, 7) for n in range(1, 9)]
WORKERS = 4


def _report(num: int, label: str):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def _simple_pair_ext_matrix(args: tuple[int, int, int, int]) -> dict:
    """{"i,j": dims} for every ordered simple pair of one cell; one tuple argument for pool.map.

    ext_dims asserts in every degree that the Hom-complex route agrees with
    the Betti-multiplicity route, as every target is simple.
    """
    t, n, max_degree, p = args
    alg = nakayama_algebra(t, n, GF(p))
    simples = [simple(alg, i) for i in range(1, t + 1)]
    return {
        f"{i},{j}": ext_dims(simples[i - 1], simples[j - 1], max_degree)
        for i in range(1, t + 1)
        for j in range(1, t + 1)
    }


def test_criterion_1_example_reproduction():
    start = time.monotonic()
    for p in (101, 2, 7):
        alg = nakayama_algebra(3, 2, GF(p))
        s1, s2 = simple(alg, 1), simple(alg, 2)
        assert ext_dims(s1, s2, 20) == [1, 0] * 10
        assert ext_dims(s2, s1, 20) == [0] * 20
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"example reproduction took {elapsed:.2f}s (budget 1s)"
    _report(1, "example reproduction, exact, < 1s")


def test_criterion_2_syzygy_formula_sweep():
    start = time.monotonic()
    agg = run_sweep((2, 6), (1, 8), max_degree=20, workers=WORKERS)
    elapsed = time.monotonic() - start
    assert agg["summary"]["cell_count"] == len(GRID)
    for cell in agg["cells"]:
        # Each report verifies the double-syzygy shift for every vertex and
        # its even powers up to j = max_degree/2 = 10, raising on failure.
        assert cell["syzygy_square_ok"]
        assert cell["syzygy_even_powers_ok"]
    assert elapsed < 60.0, f"sweep took {elapsed:.2f}s (budget 60s)"
    _report(2, f"syzygy formula sweep over {len(GRID)} cells in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def gap_suite_results():
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        futures = [pool.submit(gap_suite_cell, t, n, 40, 101, 50) for t, n in GRID]
        return [f.result() for f in futures]


def test_criterion_3_gap_property_suite(gap_suite_results):
    total_pairs = 0
    for cell in gap_suite_results:
        assert cell["violations"] == [], f"cell {cell['t']},{cell['n']}: {cell['violations']}"
        expected_pairs = cell["t"] ** 2 + min(50, (cell["t"] * (cell["n"] + 1)) ** 2)
        assert cell["pairs_checked"] == expected_pairs
        total_pairs += cell["pairs_checked"]
    _report(3, f"gap-implies-all-zero property: {total_pairs} pairs, zero violations")


def test_criterion_4_les_shift_identity(gap_suite_results):
    # The cell worker asserts, for every tower step whose cone has an
    # all-zero Ext table, that dims repeat with the step degree; any
    # failure lands in the violations list checked here.
    assert all(c["violations"] == [] for c in gap_suite_results)
    _report(4, "long-exact-sequence shift identity, zero violations")


def test_criterion_5_symmetry_suite():
    agg = run_sweep((2, 6), (1, 8), max_degree=40, workers=WORKERS)
    for cell in agg["cells"]:
        r = cell["r"]
        if r == 0:
            assert cell["symmetric_algebra"]
            assert cell["asymmetric_pairs"] == 0, f"symmetric cell {cell['t']},{cell['n']}"
        if cell["t"] >= 3 and r == cell["t"] - 1:
            assert cell["witness"] is not None
            assert cell["witness"]["verdict"] == "confirmed"
    _report(5, "symmetry suite: r=0 cells clean, witness pairs confirmed")


def test_criterion_6_oracle_redundancy():
    jobs = [(t, n, 40, p) for t, n in GRID for p in (2, 101)]
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        results = list(pool.map(_simple_pair_ext_matrix, jobs))
    by_key = {}
    for args, table in zip(jobs, results):
        t, n, _, p = args
        by_key[(t, n, p)] = table
    for t, n in GRID:
        assert by_key[(t, n, 2)] == by_key[(t, n, 101)], f"prime disagreement at t={t}, n={n}"
    _report(6, "Betti vs complex Ext agree; GF(2) == GF(101) on the full corpus")


def test_criterion_7_cone_invariants():
    for t, n in GRID:
        alg = nakayama_algebra(t, n)
        mods = [simple(alg, 1), simple(alg, t), uniserial(alg, 1, min(2, n + 1))]
        for m in mods:
            if is_projective(m):
                continue
            witness = detect_period(m)
            assert witness is not None, f"no period for {m.describe()} in cell {t},{n}"
            step = koszul_object(witness.resolution, witness.iso, witness.period)
            assert is_projective(step.cone)
            prev = witness.resolution.syzygy(witness.period - 1)
            assert step.cone.total_dim == m.total_dim + prev.total_dim
            assert step.check_exact()
    _report(7, "cone invariants: projective cones, exact dimension identity")


def test_criterion_8_determinism(tmp_path):
    sweep_args = [
        "sweep",
        "--sweep-t", "2", "6",
        "--sweep-n", "1", "8",
        "--max-degree", "20",
        "--workers", str(WORKERS),
    ]
    assert cli_main(sweep_args + ["--out", str(tmp_path / "sweep1.json")]) == 0
    assert cli_main(sweep_args + ["--out", str(tmp_path / "sweep2.json")]) == 0
    first = (tmp_path / "sweep1.json").read_bytes()
    second = (tmp_path / "sweep2.json").read_bytes()
    assert first == second
    json.loads(first.decode("utf-8"))  # well-formed

    ext_args = [
        "ext",
        "--algebra", '{"kind":"circular_nakayama","t":5,"n":4}',
        "--pair", "simple:1", "simple:3",
        "--max-degree", "40",
    ]
    assert cli_main(ext_args + ["--out", str(tmp_path / "e1.csv")]) == 0
    assert cli_main(ext_args + ["--out", str(tmp_path / "e2.csv")]) == 0
    assert (tmp_path / "e1.csv").read_bytes() == (tmp_path / "e2.csv").read_bytes()
    _report(8, "byte-identical artifacts across consecutive runs")
