"""The three benchmark workloads and their correctness oracles.

Each workload drives quiverhom through its public entry points, one
"pass" at a time.  A pass is a fixed list of items (a sweep cell, a gap
suite cell, or one Ext/stable-Hom query); every item is timed and
checked against an oracle that does not trust the code under test.
State that the program caches on its own objects (resolutions on
modules, paths on algebras) is rebuilt by ``prepare`` before each pass,
so every pass does the same work and traced counts repeat exactly.

This module does not import quiverhom; callers pass the imported package.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle

FIELD_P = 101
REFERENCE = Path(__file__).with_name("reference.json")


@dataclass
class PassResult:
    wall_s: float
    items: list[tuple[float, float]]  # perf_counter() start and end of each item
    attempted: int
    failed: int
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def canonical_sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class SweepGrid:
    """`quiverhom sweep` over the acceptance grid, in-process via cli.main.

    The inputs are the fixed CLI arguments, so the seed has no effect; an
    item is one cell, timed around vanishing.nakayama_report.
    """

    name = "sweep_grid"
    argv = ["sweep", "--sweep-t", "2", "6", "--sweep-n", "1", "8", "--max-degree", "40", "--workers", "1"]
    cells = [(t, n) for t in range(2, 7) for n in range(1, 9)]
    min_passes = 2

    @classmethod
    def build(cls, qh):
        import quiverhom.cli  # noqa: F401 - part of what a sweep user imports

        return [qh.nakayama_algebra(t, n, qh.GF(FIELD_P)) for t, n in cls.cells]

    def __init__(self, qh, seed: int, workdir: Path):
        import quiverhom.cli as cli

        self.qh = qh
        self.cli = cli
        self.out = workdir / "sweep.json"
        ref = json.loads(REFERENCE.read_text())["sweep_grid"]
        if ref["argv"] != self.argv:
            raise RuntimeError("reference.json was recorded for other sweep arguments")
        self.artifact_sha256 = ref["artifact_sha256"]
        self.cell_sha256 = ref["cells"]

    def warm_up(self):
        self.cli.main(["sweep", "--sweep-t", "2", "2", "--sweep-n", "1", "1", "--out", str(self.out)])
        self.out.unlink()

    def prepare(self):
        pass

    def run_pass(self, between=lambda: None) -> PassResult:
        vanishing = self.qh.vanishing
        report = vanishing.nakayama_report
        records = []

        def timed_report(t, n, *args, **kwargs):
            t0 = perf_counter()
            rep = report(t, n, *args, **kwargs)
            records.append(((t0, perf_counter()), t, n, rep))
            between()
            return rep

        vanishing.nakayama_report = timed_report
        problems = []
        t0 = perf_counter()
        try:
            rc = self.cli.main(self.argv + ["--out", str(self.out)])
        except Exception as e:  # noqa: BLE001 - a crashing pass is a failed pass
            rc = None
            problems.append(f"sweep raised {type(e).__name__}: {e}")
        finally:
            wall = perf_counter() - t0
            vanishing.nakayama_report = report
        data = self.out.read_bytes() if self.out.exists() else b""
        if self.out.exists():
            self.out.unlink()
        if rc != 0:
            problems.append(f"sweep exited with {rc}")
        if hashlib.sha256(data).hexdigest() != self.artifact_sha256:
            problems.append("sweep artifact differs from the reference")
        ok = sum(1 for _, t, n, rep in records if canonical_sha256(rep) == self.cell_sha256.get(f"{t},{n}"))
        return PassResult(
            wall_s=wall,
            items=[r[0] for r in records],
            attempted=len(self.cells),
            failed=len(self.cells) - ok,
            out_bytes=len(data),
            problems=problems,
        )


class GapSuite:
    """vanishing.gap_suite_cell(t, n, 40, 101, 50) over a subset of the grid.

    The subset has r = n mod t = 0 cells, r = t - 1 cells and (6, 8), the
    largest acceptance cell; the seed sets the cell order.  The cell count
    is odd, so the median item is one cell's and not the mean of two.
    """

    name = "gap_suite"
    cells = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 5), (4, 1), (4, 3), (4, 4), (5, 4), (6, 8)]
    min_passes = 3
    max_degree = 40
    pair_count = 50

    @classmethod
    def build(cls, qh):
        return [qh.nakayama_algebra(t, n, qh.GF(FIELD_P)) for t, n in cls.cells]

    def __init__(self, qh, seed: int, workdir: Path):
        self.qh = qh
        self.order = random.Random(seed).sample(self.cells, len(self.cells))

    def warm_up(self):
        self.qh.vanishing.gap_suite_cell(2, 1, self.max_degree, FIELD_P, self.pair_count)

    def prepare(self):
        pass

    def expected_pairs(self, t: int, n: int) -> int:
        return t * t + min(self.pair_count, (t * (n + 1)) ** 2)

    def run_pass(self, between=lambda: None) -> PassResult:
        cell = self.qh.vanishing.gap_suite_cell
        items, reports = [], []
        t_pass = perf_counter()
        for t, n in self.order:
            t0 = perf_counter()
            try:
                rep = cell(t, n, self.max_degree, FIELD_P, self.pair_count)
            except Exception:  # noqa: BLE001 - a raising item is a failed item
                rep = None
            items.append((t0, perf_counter()))
            reports.append((t, n, rep))
            between()
        wall = perf_counter() - t_pass
        failed = sum(
            1
            for t, n, rep in reports
            if rep is None or rep["violations"] != [] or rep["pairs_checked"] != self.expected_pairs(t, n)
        )
        return PassResult(wall_s=wall, items=items, attempted=len(reports), failed=failed)


class ExtQueries:
    """A library session over (t, n) = (6, 8): every ordered pair of the 48
    non-projective uniserials, answered with ext_dims(M, N, 20) and
    stable_hom_dim(M, N).  The seed sets the query order.
    """

    name = "ext_queries"
    t, n, max_degree = 6, 8, 20
    min_passes = 1

    @classmethod
    def build(cls, qh):
        alg = qh.nakayama_algebra(cls.t, cls.n, qh.GF(FIELD_P))
        return {key: qh.uniserial(alg, *key) for key in oracle.non_projective_uniserials(cls.t, cls.n)}

    def __init__(self, qh, seed: int, workdir: Path):
        self.qh = qh
        types = oracle.non_projective_uniserials(self.t, self.n)
        pairs = [(a, b) for a in types for b in types]
        self.queries = random.Random(seed).sample(pairs, len(pairs))
        self.expected = [
            (oracle.ext_dims(self.t, self.n, a, b, self.max_degree), oracle.stable_hom_dim(self.t, self.n, a, b))
            for a, b in self.queries
        ]
        self.modules = None

    def warm_up(self):
        alg = self.qh.nakayama_algebra(2, 2, self.qh.GF(FIELD_P))
        m, n = self.qh.uniserial(alg, 1, 1), self.qh.uniserial(alg, 2, 2)
        self.qh.ext_dims(m, n, self.max_degree)
        self.qh.stable_hom_dim(m, n)

    def prepare(self):
        """Fresh modules, so no resolution survives from the previous pass."""
        self.modules = self.build(self.qh)

    def run_pass(self, between=lambda: None) -> PassResult:
        ext_dims, stable_hom_dim = self.qh.ext_dims, self.qh.stable_hom_dim
        mods = self.modules
        items, answers = [], []
        t_pass = perf_counter()
        for a, b in self.queries:
            t0 = perf_counter()
            try:
                answer = (ext_dims(mods[a], mods[b], self.max_degree), stable_hom_dim(mods[a], mods[b]))
            except Exception:  # noqa: BLE001 - a raising item is a failed item
                answer = None
            items.append((t0, perf_counter()))
            answers.append(answer)
            between()
        wall = perf_counter() - t_pass
        failed = sum(1 for got, want in zip(answers, self.expected) if got != want)
        return PassResult(wall_s=wall, items=items, attempted=len(answers), failed=failed)


WORKLOADS = {w.name: w for w in (SweepGrid, GapSuite, ExtQueries)}
