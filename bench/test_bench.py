"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import quiverhom as qh  # noqa: E402
import quiverhom.cli as cli  # noqa: E402

import oracle  # noqa: E402
from layers import COUNT_METRICS, FUNCTIONS, Tracer  # noqa: E402
from workloads import ExtQueries  # noqa: E402


def test_closed_form_matches_program_on_a_small_cell():
    t, n, max_degree = 3, 4, 8
    alg = qh.nakayama_algebra(t, n)
    types = oracle.non_projective_uniserials(t, n)
    mods = {key: qh.uniserial(alg, *key) for key in types}
    for a in types:
        for b in types:
            assert qh.ext_dims(mods[a], mods[b], max_degree) == oracle.ext_dims(t, n, a, b, max_degree), (a, b)
            assert qh.stable_hom_dim(mods[a], mods[b]) == oracle.stable_hom_dim(t, n, a, b), (a, b)


def _namespace_snapshot():
    """Every attribute of every loaded quiverhom module and wrapped class, by identity."""
    owners = [m for k, m in sys.modules.items() if k == "quiverhom" or k.startswith("quiverhom.")]
    owners += [qh.GF, qh.ModuleMap, qh.Resolution, sys.modules["quiverhom.modules"].LabeledProjective]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _sweep_bytes(tmp_path: Path) -> bytes:
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--sweep-t", "2", "3", "--sweep-n", "1", "3", "--max-degree", "12", "--out", str(out)]) == 0
    return out.read_bytes()


def test_wrappers_leave_outputs_and_namespaces_unchanged(tmp_path):
    before = _namespace_snapshot()
    plain = _sweep_bytes(tmp_path)
    tracer = Tracer()
    tracer.install(qh)
    try:
        assert qh.homology.projective_cover is not before[(id(qh.homology), "projective_cover")]
        traced = _sweep_bytes(tmp_path)
    finally:
        tracer.remove()
    after = _namespace_snapshot()
    assert traced == plain
    assert _sweep_bytes(tmp_path) == plain
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {name for _, _, name, _, _ in FUNCTIONS}
    seen = {tracer.names[i] for i in set(tracer.spans.name)}
    assert {"cli.main", "vanishing.nakayama_report", "homology.Resolution", "linalg.rref"} <= seen <= names


def _traced_counts(seed: int) -> dict:
    wl = ExtQueries(qh, seed, Path("."))
    wl.prepare()
    tracer = Tracer()
    tracer.begin_pass()
    tracer.install(qh)
    try:
        result = wl.run_pass()
    finally:
        tracer.remove()
    assert result.failed == 0
    metrics = tracer.metrics()
    return {k: metrics[k] for k in COUNT_METRICS if k in metrics}


def test_traced_counts_repeat_and_do_not_depend_on_query_order():
    first = _traced_counts(1)
    assert first == _traced_counts(1)
    assert first == _traced_counts(2)
    assert first["homology.Resolution.builds"] == 48
    assert first["modules.hom_basis.calls"] == 3498


def test_run_fails_without_a_source_tree(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ext_queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""

