"""Vanishing-gap and vanishing-symmetry analyzers.

The gap checker turns a reduction tower into a required gap length g
and certifies the bounded implication "g consecutive zero degrees imply
the whole table is zero".  The symmetry scanner classifies tail
vanishing of the two Ext directions of a pair.  Both feed the per-cell
Nakayama report and the sweep harness.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from .algebra import nakayama_algebra
from .homology import ExtTable, ext_table, minimal_resolution
from .koszul import ReductionTower, build_periodicity_tower
from .linalg import GF
from .modules import RANDOM_SEED, QuiverModule, decompose_serial, simple, uniserial


class FalsificationError(AssertionError):
    """A verdict that contradicts a proven statement: the build is wrong, not the input."""


# -- gap checking -------------------------------------------------------------


@dataclass
class GapReport:
    """Outcome of scanning an Ext table against a tower's required gap length."""

    pair: tuple[str, str]
    max_degree: int
    gap_length: int
    gap_start: int | None
    verdict: str  # no-gap | gap-implies-all-zero-verified | violation

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "max_degree": self.max_degree,
            "gap_length": self.gap_length,
            "gap_start": self.gap_start,
            "verdict": self.verdict,
            "seed": RANDOM_SEED,
        }


def gap_check(table: ExtTable, tower: ReductionTower) -> GapReport:
    """Find g consecutive zeros and certify that the whole table vanishes.

    A "violation" verdict means a qualifying gap coexists with a later
    nonzero entry, which would falsify the implementation.
    """
    if table.source is not tower.base and not table.source.structurally_equal(tower.base):
        raise ValueError("gap check requires the table's source to be the tower's base module")
    g = tower.gap_length
    dims = table.dims
    start = None
    run = 0
    for i, d in enumerate(dims, start=1):
        run = run + 1 if d == 0 else 0
        if run >= g:
            start = i - g + 1
            break
    if start is None:
        verdict = "no-gap"
    elif all(d == 0 for d in dims):
        verdict = "gap-implies-all-zero-verified"
    else:
        verdict = "violation"
    return GapReport(
        pair=table.pair,
        max_degree=table.max_degree,
        gap_length=g,
        gap_start=start,
        verdict=verdict,
    )


def les_shift_holds(table: ExtTable, step_degree: int) -> bool:
    """The long-exact-sequence consequence: dims repeat with period = step degree.

    Valid whenever the cone of the degree-d step has an all-zero Ext
    table against the same target.
    """
    d = step_degree
    dims = table.dims
    return all(dims[i] == dims[i + d] for i in range(len(dims) - d))


# -- symmetry ------------------------------------------------------------------


@dataclass
class SymmetryReport:
    """Tail-vanishing classification for the two directions of a module pair."""

    pair: tuple[str, str]
    max_degree: int
    tail: int
    verdict: str  # both-tails-vanish | neither-vanishes | asymmetric
    vanishing_direction: str | None  # m-to-n | n-to-m when asymmetric
    witness_degrees: dict[str, list[int]]

    def to_dict(self) -> dict:
        return {
            "pair": list(self.pair),
            "max_degree": self.max_degree,
            "tail": self.tail,
            "verdict": self.verdict,
            "vanishing_direction": self.vanishing_direction,
            "witness_degrees": self.witness_degrees,
            "seed": RANDOM_SEED,
        }


def symmetry_scan(m: QuiverModule, n: QuiverModule, max_degree: int, tail: int) -> SymmetryReport:
    """Decide tail vanishing of Ext(M,N) and Ext(N,M) on the last `tail` degrees.

    Over a symmetric algebra an asymmetric outcome is impossible, so it
    is escalated to a falsifying error instead of being reported.
    """
    if tail < 1 or tail > max_degree:
        raise ValueError(f"tail window {tail} outside [1,{max_degree}]")
    return _classify_tails(ext_table(m, n, max_degree), ext_table(n, m, max_degree), tail)


def _classify_tails(fwd: ExtTable, bwd: ExtTable, tail: int) -> SymmetryReport:
    """The symmetry verdict of a pair from its two Ext tables M->N and N->M."""
    m, n, max_degree = fwd.source, fwd.target, fwd.max_degree
    lo = max_degree - tail + 1
    wit_fwd = [i for i in range(lo, max_degree + 1) if fwd.dim(i) != 0]
    wit_bwd = [i for i in range(lo, max_degree + 1) if bwd.dim(i) != 0]
    fwd_vanishes = not wit_fwd
    bwd_vanishes = not wit_bwd
    if fwd_vanishes and bwd_vanishes:
        verdict, direction = "both-tails-vanish", None
    elif not fwd_vanishes and not bwd_vanishes:
        verdict, direction = "neither-vanishes", None
    else:
        verdict = "asymmetric"
        direction = "m-to-n" if fwd_vanishes else "n-to-m"
    if verdict == "asymmetric" and m.algebra.is_symmetric:
        raise FalsificationError(
            f"asymmetric vanishing for {m.describe()} / {n.describe()} over a symmetric algebra"
        )
    return SymmetryReport(
        pair=(m.describe(), n.describe()),
        max_degree=max_degree,
        tail=tail,
        verdict=verdict,
        vanishing_direction=direction,
        witness_degrees={"m_to_n": wit_fwd, "n_to_m": wit_bwd},
    )


# -- the flagship per-cell report ----------------------------------------------


def nakayama_report(t: int, n: int, max_degree: int, field: GF | None = None, tail: int | None = None) -> dict:
    """Full analysis of one circular Nakayama cell kG/J^{n+1}.

    Verifies the double-syzygy vertex shift and its even powers, emits
    the complete simple-pair Ext matrix with symmetry classifications,
    and, when t >= 3 and r = t-1, checks the explicit asymmetry witness
    pair (S_1, S_2).  Each ordered simple pair's Ext table is computed once.
    """
    alg = nakayama_algebra(t, n, field)
    r = alg.r
    if tail is None:
        tail = min(2 * t, max_degree)
    if tail < 1 or tail > max_degree:
        raise ValueError(f"tail window {tail} outside [1,{max_degree}]")
    simples = [simple(alg, i) for i in range(1, t + 1)]

    def expect_simple(i: int) -> list[tuple[int, int]]:
        return [(alg.wrap(i), 1)]

    square_ok = True
    even_ok = True
    jmax = max_degree // 2
    for i in range(1, t + 1):
        res = minimal_resolution(simples[i - 1], max_degree)
        if decompose_serial(res.syzygy(2)) != expect_simple(i + 1 + r):
            square_ok = False
        for j in range(1, jmax + 1):
            if decompose_serial(res.syzygy(2 * j)) != expect_simple(i + j + j * r):
                even_ok = False
    if not (square_ok and even_ok):
        raise FalsificationError(f"double-syzygy vertex shift failed for cell t={t}, n={n}")

    tables = {
        (i, j): ext_table(simples[i - 1], simples[j - 1], max_degree)
        for i in range(1, t + 1)
        for j in range(1, t + 1)
    }
    pairs = []
    asymmetric_pairs = 0
    for (i, j), table in tables.items():
        rep = _classify_tails(table, tables[j, i], tail)
        if rep.verdict == "asymmetric":
            asymmetric_pairs += 1
        pairs.append(
            {
                "from": i,
                "to": j,
                "dims": list(table.dims),
                "verdict": rep.verdict,
                "vanishing_direction": rep.vanishing_direction,
                "witness_degrees": rep.witness_degrees,
            }
        )

    witness = None
    if t >= 3 and r == t - 1:
        fwd, bwd = tables[1, 2], tables[2, 1]
        odd_nonzero = all(fwd.dim(i) != 0 for i in range(1, max_degree + 1, 2))
        back_zero = all(d == 0 for d in bwd.dims)
        if not (odd_nonzero and back_zero):
            raise FalsificationError(f"asymmetry witness pair failed for cell t={t}, n={n}")
        witness = {
            "pair": [1, 2],
            "odd_degrees_nonzero": odd_nonzero,
            "reverse_all_zero": back_zero,
            "verdict": "confirmed",
        }

    return {
        "t": t,
        "n": n,
        "r": r,
        "field_p": alg.field.p,
        "max_degree": max_degree,
        "tail": tail,
        "seed": RANDOM_SEED,
        "symmetric_algebra": alg.is_symmetric,
        "syzygy_square_ok": square_ok,
        "syzygy_even_powers_ok": even_ok,
        "asymmetric_pairs": asymmetric_pairs,
        "pairs": pairs,
        "witness": witness,
    }


# -- empirical Auslander-condition scan ------------------------------------------


def auslander_scan(m: QuiverModule, corpus: list[QuiverModule], max_degree: int, head: int) -> dict:
    """For each N with a vanishing tail, assert vanishing on all of 1..max_degree.

    Over the selfinjective family the uniform bound is degree 1: eventual
    vanishing against M forces vanishing in every positive degree.
    """
    if head < 1 or head > max_degree:
        raise ValueError(f"head window {head} outside [1,{max_degree}]")
    entries = []
    violations = []
    lo = max_degree - head + 1
    for nmod in corpus:
        table = ext_table(m, nmod, max_degree)
        tail_vanishes = all(table.dim(i) == 0 for i in range(lo, max_degree + 1))
        all_vanish = all(d == 0 for d in table.dims)
        if tail_vanishes and not all_vanish:
            violations.append(nmod.describe())
        entries.append(
            {
                "target": nmod.describe(),
                "tail_vanishes": tail_vanishes,
                "all_vanish": all_vanish,
            }
        )
    return {
        "module": m.describe(),
        "max_degree": max_degree,
        "head": head,
        "uniform_bound": 1,
        "entries": entries,
        "violations": violations,
        "seed": RANDOM_SEED,
    }


# -- sweep harness ----------------------------------------------------------------


class SweepError(RuntimeError):
    """A sweep cell failed; the whole sweep aborts and names the cell."""


def _sweep_cell(args: tuple[int, int, int, int, int | None]) -> dict:
    t, n, max_degree, p, tail = args
    return nakayama_report(t, n, max_degree, GF(p), tail=tail)


def run_sweep(
    t_range: tuple[int, int],
    n_range: tuple[int, int],
    max_degree: int,
    field_p: int = 101,
    workers: int = 1,
    tail: int | None = None,
) -> dict:
    """Run nakayama_report over a (t, n) grid on min(workers, cells, CPUs) processes, sorted output."""
    cells = [
        (t, n, max_degree, field_p, tail)
        for t in range(t_range[0], t_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
    ]
    if not cells:
        raise ValueError("empty sweep grid")
    workers = min(workers, len(cells), os.cpu_count() or 1)
    results: list[dict] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        reports = map(_sweep_cell, cells) if pool is None else pool.map(_sweep_cell, cells)
        for c in cells:
            try:
                results.append(next(reports))
            except Exception as e:  # noqa: BLE001 - named cell failure aborts the sweep
                raise SweepError(f"sweep cell t={c[0]}, n={c[1]} failed: {e}") from e
    results.sort(key=lambda rep: (rep["t"], rep["n"]))
    symmetric = sum(1 for rep in results if rep["symmetric_algebra"])
    asym_cells = sum(1 for rep in results if rep["asymmetric_pairs"] > 0)
    return {
        "cells": results,
        "summary": {
            "cell_count": len(results),
            "symmetric_cells": symmetric,
            "cells_with_asymmetric_pairs": asym_cells,
            "total_asymmetric_pairs": sum(rep["asymmetric_pairs"] for rep in results),
        },
    }


# -- gap/cone property suite over one cell -----------------------------------------


def sample_uniserial_pairs(t: int, n: int, count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """A deterministic sample of ordered (top, length) pairs for one cell."""
    types = [(i, l) for i in range(1, t + 1) for l in range(1, n + 2)]
    pairs = [(a, b) for a in types for b in types]
    rng = random.Random(RANDOM_SEED * 1_000_003 + t * 101 + n)
    if len(pairs) <= count:
        return pairs
    return rng.sample(pairs, count)


def simple_pair_ext_matrix(args: tuple[int, int, int, int]) -> dict:
    """All ordered simple-pair Ext tables of one cell, by both dimension routes.

    Returns {"i,j": dims} from the Hom-complex route; ext_dims asserts it
    agrees with the Betti-multiplicity route in every degree, as every target
    is simple.  Shaped for ProcessPoolExecutor.map: one tuple argument.
    """
    from .homology import ext_dims

    t, n, max_degree, p = args
    alg = nakayama_algebra(t, n, GF(p))
    simples = [simple(alg, i) for i in range(1, t + 1)]
    return {
        f"{i},{j}": ext_dims(simples[i - 1], simples[j - 1], max_degree)
        for i in range(1, t + 1)
        for j in range(1, t + 1)
    }


def gap_suite_cell(t: int, n: int, max_degree: int, field_p: int, uniserial_pair_count: int) -> dict:
    """Gap, cone, and shift-identity checks for one cell of the sweep grid.

    Covers every ordered pair of simples plus a deterministic sample of
    uniserial pairs; returns counters that must show zero violations.
    """
    alg = nakayama_algebra(t, n, GF(field_p))
    window = 2 * t
    module_cache: dict[tuple[int, int], QuiverModule] = {}

    def get_module(top: int, length: int) -> QuiverModule:
        key = (top, length)
        if key not in module_cache:
            module_cache[key] = uniserial(alg, top, length)
        return module_cache[key]

    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = [
        ((i, 1), (j, 1)) for i in range(1, t + 1) for j in range(1, t + 1)
    ]
    pairs += sample_uniserial_pairs(t, n, uniserial_pair_count)

    checked = 0
    verified_gaps = 0
    no_gaps = 0
    violations: list[str] = []
    towers: dict[tuple[int, int], ReductionTower] = {}
    for (mi, ml), (ni, nl) in pairs:
        m = get_module(mi, ml)
        nmod = get_module(ni, nl)
        key = (mi, ml)
        if key not in towers:
            tower = build_periodicity_tower(m, window)
            if tower is None:
                violations.append(f"no tower for uniserial:{mi}:{ml}")
                continue
            towers[key] = tower
        tower = towers[key]
        table = ext_table(m, nmod, max_degree)
        report = gap_check(table, tower)
        checked += 1
        if report.verdict == "violation":
            violations.append(f"gap violation for {report.pair}")
        elif report.verdict == "gap-implies-all-zero-verified":
            verified_gaps += 1
        else:
            no_gaps += 1
        # Cone invariants and the long-exact-sequence shift identity.
        for step in tower.steps:
            if step.cone.total_dim != m.total_dim + step.projection.target.total_dim:
                violations.append(f"cone dimension identity failed for uniserial:{mi}:{ml}")
            cone_table = ext_table(step.cone, nmod, max_degree)
            if any(cone_table.dims):
                violations.append(f"projective cone has nonzero Ext for uniserial:{mi}:{ml}")
            elif not les_shift_holds(table, step.degree):
                violations.append(f"shift identity failed for {report.pair}")
    return {
        "t": t,
        "n": n,
        "max_degree": max_degree,
        "field_p": field_p,
        "pairs_checked": checked,
        "verified_gaps": verified_gaps,
        "no_gaps": no_gaps,
        "violations": violations,
    }
