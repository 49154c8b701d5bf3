"""Vanishing-gap and vanishing-symmetry analyzers.

The gap checker reads the required gap length g off a module's
periodicity step (its degree, or 1 for a projective module) and
certifies the bounded implication "g consecutive zero degrees imply
the whole table is zero".  The symmetry scanner classifies tail
vanishing of the two Ext directions of a pair.  Both feed the per-cell
Nakayama report and the sweep harness.
"""

from __future__ import annotations

import os
import random
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from .algebra import DEFAULT_FIELD_P, BoundQuiverAlgebra, nakayama_algebra
from .homology import ExtTable, _require_ext_degrees, ext_table, minimal_resolution
from .koszul import KoszulStep, build_periodicity_tower
from .linalg import GF
from .modules import QuiverModule, is_projective, simple, uniserial

# Seeds the gap-suite uniserial pair sample; recorded in every JSON report.
RANDOM_SEED = 1729


class FalsificationError(AssertionError):
    """A verdict that contradicts a proven statement: the build is wrong, not the input."""


# -- gap checking -------------------------------------------------------------


@dataclass
class GapReport:
    """Outcome of scanning an Ext table against a step's required gap length."""

    pair: tuple[str, str]
    max_degree: int
    gap_length: int
    gap_start: int | None
    verdict: str  # no-gap | gap-implies-all-zero-verified | violation

    def to_dict(self) -> dict:
        return {**asdict(self), "seed": RANDOM_SEED}


def gap_check(table: ExtTable, step: KoszulStep | None) -> GapReport:
    """Find g consecutive zeros and certify that the whole table vanishes.

    g is the degree of the source's periodicity step, or 1 when the source
    is projective and the step is None.  A None step for any other source
    is a failed period search and raises FalsificationError.  A
    "violation" verdict means a qualifying gap coexists with a later
    nonzero entry, which would falsify the implementation.
    """
    if step is None:
        if not is_projective(table.source):
            raise FalsificationError(f"no periodicity tower for non-projective {table.pair[0]}")
        g = 1
    elif table.source is step.source or table.source.structurally_equal(step.source):
        g = step.degree
    else:
        raise ValueError("gap check requires the table's source to be the step's source module")
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
        return {**asdict(self), "seed": RANDOM_SEED}


def _symmetry_window(alg: BoundQuiverAlgebra, max_degree: int) -> int:
    """The number of top degrees the symmetry verdict reads: min(2t, B).

    Every Omega-period divides the period bound 2t, so Ext^i(M, N) is
    periodic in i >= 1 with a period dividing it: with B >= 2t the last
    2t degrees give the exact verdict for i >> 0.
    """
    return min(alg.period_bound, max_degree)


def symmetry_scan(m: QuiverModule, n: QuiverModule, max_degree: int) -> SymmetryReport:
    """Decide tail vanishing of Ext(M,N) and Ext(N,M) on their last min(2t, B) degrees.

    Over a symmetric algebra an asymmetric outcome with B >= 2t is
    impossible, so it is escalated to a falsifying error; with B < 2t
    it is reported.
    """
    return _classify_tails(ext_table(m, n, max_degree), ext_table(n, m, max_degree))


def _classify_tails(fwd: ExtTable, bwd: ExtTable) -> SymmetryReport:
    """The symmetry verdict of a pair from its two Ext tables M->N and N->M."""
    m, n, max_degree = fwd.source, fwd.target, fwd.max_degree
    alg = m.algebra
    tail = _symmetry_window(alg, max_degree)
    lo = max_degree - tail + 1
    wit_fwd = [i for i, d in enumerate(fwd.dims[lo - 1 :], start=lo) if d]
    wit_bwd = [i for i, d in enumerate(bwd.dims[lo - 1 :], start=lo) if d]
    fwd_vanishes = not wit_fwd
    bwd_vanishes = not wit_bwd
    if fwd_vanishes and bwd_vanishes:
        verdict, direction = "both-tails-vanish", None
    elif not fwd_vanishes and not bwd_vanishes:
        verdict, direction = "neither-vanishes", None
    else:
        verdict = "asymmetric"
        direction = "m-to-n" if fwd_vanishes else "n-to-m"
    # With B >= 2t the window spans a whole Ext period, where asymmetry over a
    # symmetric algebra is impossible; a shorter one may miss a direction.
    if verdict == "asymmetric" and alg.is_symmetric and tail == alg.period_bound:
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


def nakayama_report(t: int, n: int, max_degree: int, field: GF | None = None) -> dict:
    """Full analysis of one circular Nakayama cell kG/J^{n+1}.

    Verifies the double-syzygy vertex shift and its even powers, emits
    the complete simple-pair Ext matrix with symmetry classifications,
    and, when t >= 3 and r = t-1, checks the explicit asymmetry witness
    pair (S_1, S_2).  Each ordered simple pair's Ext table is computed once.
    """
    _require_ext_degrees(max_degree)
    alg = nakayama_algebra(t, n, field)
    r = alg.r
    simples = [simple(alg, i) for i in range(1, t + 1)]

    # Omega^{2j} S_i = S_{i+j+jr}.  For t >= 2 the quiver has no loops, so a
    # module with dimension vector e_v is S_v: equal content keys decide it.
    # j <= t suffices: if the shift holds through j = t, syzygy_key(2t) is S_i's own key, so
    # keys and steps repeat with period 2t, and so do both sides of every later comparison.
    resolutions = [minimal_resolution(s, max_degree) for s in simples]
    shift_ok = all(
        resolutions[i - 1].syzygy_key(2 * j) == simples[alg.wrap(i + j + j * r) - 1].content_key()
        for i in range(1, t + 1)
        for j in range(1, min(max(1, max_degree // 2), t) + 1)
    )
    if not shift_ok:
        raise FalsificationError(f"double-syzygy vertex shift failed for cell t={t}, n={n}")

    tables = {
        (i, j): ext_table(simples[i - 1], simples[j - 1], max_degree)
        for i in range(1, t + 1)
        for j in range(1, t + 1)
    }
    pairs = []
    asymmetric_pairs = 0
    for (i, j), table in tables.items():
        rep = _classify_tails(table, tables[j, i])
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
        "tail": _symmetry_window(alg, max_degree),
        "seed": RANDOM_SEED,
        "symmetric_algebra": alg.is_symmetric,
        "syzygy_square_ok": shift_ok,
        "syzygy_even_powers_ok": shift_ok,
        "asymmetric_pairs": asymmetric_pairs,
        "pairs": pairs,
        "witness": witness,
    }


# -- empirical Auslander-condition scan ------------------------------------------


def auslander_scan(m: QuiverModule, corpus: list[QuiverModule], max_degree: int) -> dict:
    """For each N whose last min(2t, B) degrees vanish, assert vanishing on all of 1..max_degree.

    Over the selfinjective family the uniform bound is degree 1: eventual
    vanishing against M forces vanishing in every positive degree.
    """
    head = _symmetry_window(m.algebra, max_degree)
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


def _sweep_cell(args: tuple[int, int, int, int]) -> dict:
    t, n, max_degree, p = args
    return nakayama_report(t, n, max_degree, GF(p))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform has one)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else os.cpu_count() or 1


def run_sweep(
    t_range: tuple[int, int],
    n_range: tuple[int, int],
    max_degree: int,
    field_p: int = DEFAULT_FIELD_P,
    workers: int = 1,
) -> dict:
    """Run nakayama_report over a (t, n) grid on min(workers, cells, usable CPUs) processes, cells in (t, n) order.

    The process pool is imported only when more than one process runs, so
    importing quiverhom and serial sweeps load no multiprocessing module.
    """
    _require_ext_degrees(max_degree)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cells = [  # t-major; map and pool.map both return in input order
        (t, n, max_degree, field_p)
        for t in range(t_range[0], t_range[1] + 1)
        for n in range(n_range[0], n_range[1] + 1)
    ]
    if not cells:
        raise ValueError("empty sweep grid")
    workers = min(workers, len(cells), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
    results: list[dict] = []
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        reports = map(_sweep_cell, cells) if pool is None else pool.map(_sweep_cell, cells)
        for c in cells:
            try:
                results.append(next(reports))
            except Exception as e:  # noqa: BLE001 - named cell failure aborts the sweep
                raise SweepError(f"sweep cell t={c[0]}, n={c[1]} failed: {e}") from e
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


def gap_suite_cell(t: int, n: int, max_degree: int, field_p: int, uniserial_pair_count: int) -> dict:
    """Gap, cone, and shift-identity checks for one cell of the sweep grid.

    Covers every ordered pair of simples plus a deterministic sample of
    uniserial pairs; returns counters that must show zero violations.
    """
    _require_ext_degrees(max_degree)
    if uniserial_pair_count < 0:
        raise ValueError(f"uniserial_pair_count must be >= 0, got {uniserial_pair_count}")
    alg = nakayama_algebra(t, n, GF(field_p))
    pairs: list[tuple[tuple[int, int], tuple[int, int]]] = [
        ((i, 1), (j, 1)) for i in range(1, t + 1) for j in range(1, t + 1)
    ]
    pairs += sample_uniserial_pairs(t, n, uniserial_pair_count)
    # Each distinct module and source step is built once, in order of first appearance.
    modules = {key: uniserial(alg, *key) for key in dict.fromkeys(k for pair in pairs for k in pair)}
    steps = {key: build_periodicity_tower(modules[key]) for key in dict.fromkeys(m for m, _ in pairs)}

    checked = 0
    verified_gaps = 0
    no_gaps = 0
    violations: list[str] = []
    for (mi, ml), (ni, nl) in pairs:
        m, nmod, step = modules[mi, ml], modules[ni, nl], steps[mi, ml]
        if step is None and not is_projective(m):  # the period search failed
            violations.append(f"no tower for uniserial:{mi}:{ml}")
            continue
        table = ext_table(m, nmod, max_degree)
        report = gap_check(table, step)
        checked += 1
        if report.verdict == "violation":
            violations.append(f"gap violation for {report.pair}")
        elif report.verdict == "gap-implies-all-zero-verified":
            verified_gaps += 1
        else:
            no_gaps += 1
        # Cone Ext vanishing and the shift identity.  The cone already passed check_exact when
        # build_periodicity_tower built it.
        if step is not None:
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
