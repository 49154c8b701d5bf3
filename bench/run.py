"""Layered outside-in benchmark of quiverhom.

    python3 bench/run.py --workload {sweep_grid,gap_suite,ext_queries}
                         --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics with no layer wrapped,
calibrated for machine speed (calibration.py); with --trace 1 it
alternates plain and traced passes and reports the per-layer metrics of
the traced ones.  Everything runs in this process
with workers=1.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the machine facts and the
full result go to .bench_build/quiverhom-bench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration
from layers import COUNT_METRICS, METRIC_UNITS, REPORTED_UNITS, Tracer
from workloads import FIELD_P, WORKLOADS

SAMPLES = 5
TAIL_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(root: Path, args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "field_p": FIELD_P,
        "git_commit": git_commit(root),
        "src_sha256": source_sha256(root / "src" / "quiverhom"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": 1,
    }


def setup_probe(root: Path, workload: str) -> float:
    """One cold set-up of the workload, timed in a fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    done = subprocess.run(
        [sys.executable, str(probe), workload], cwd=root, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def repeat(step, seconds: float, min_count: int) -> list:
    """Call step() min_count times, then again while the next call should end within seconds.

    The run length stays near --seconds instead of overrunning by up to one
    long pass.
    """
    results, took = [], []
    t0 = perf_counter()
    while True:
        s0 = perf_counter()
        results.append(step())
        took.append(perf_counter() - s0)
        if len(results) >= min_count and perf_counter() - t0 + statistics.median(took) > seconds:
            return results


def summarize(passes, setup, cal: calibration.Calibrator, basis: int, calibrated: bool) -> dict:
    """End-to-end times; calibrated ones scale each interval by its adjacent kernel samples.

    A pass is (workload result, start, end) and a set-up sample is
    (seconds, start, end).  Kernel sampling inside a pass is not counted.  The tail
    is read at the fixed percentile (basis - TAIL_BEYOND) / basis, by
    nearest rank in integer arithmetic.
    """
    scale = cal.factor if calibrated else (lambda start, end: 1.0)
    lat, walls = [], []
    for p, start, end in passes:
        work = [(e - s) * scale(s, e) for s, e in p.items]
        rest = p.wall_s - cal.spent(start, end) - sum(e - s for s, e in p.items)
        lat.extend(work)
        walls.append(sum(work) + rest * scale(start, end))
    lat.sort()
    rank = -(-len(lat) * (basis - TAIL_BEYOND) // basis)
    return {
        "setup_s": statistics.median(x * scale(s, e) for x, s, e in setup),
        "wall_s": statistics.median(walls),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_tail_ms": 1000 * lat[rank - 1],
    }


def timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return result, t0, perf_counter()


def untraced(wl, root: Path, seconds: float) -> tuple[dict, dict]:
    """Plain passes and set-up probes, with calibration samples around and inside each."""
    setup_probe(root, wl.name)  # fills the bytecode and page caches; not a sample
    cal = calibration.Calibrator()
    setup = []
    cal.sample()

    def step():
        setup.append(timed(setup_probe, root, wl.name))
        cal.sample()
        wl.prepare()
        p = timed(wl.run_pass, cal.between)
        cal.sample()
        return p

    passes = repeat(step, seconds, wl.min_passes)
    while len(setup) < SAMPLES:
        setup.append(timed(setup_probe, root, wl.name))
        cal.sample()
    # The tail percentile is fixed per workload: the highest one that leaves
    # TAIL_BEYOND items above it in a run of min_passes passes.
    basis = wl.min_passes * passes[0][0].attempted
    metrics = summarize(passes, setup, cal, basis, calibrated=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results = [p for p, _, _ in passes]
    attempted = sum(p.attempted for p in results)
    failed = sum(p.failed for p in results)
    detail = {
        "passes": len(results),
        "pass_wall_s": [p.wall_s for p in results],
        "setup_samples_s": [x for x, _, _ in setup],
        "calibration_samples_s": cal.times,
        "raw_times": summarize(passes, setup, cal, basis, calibrated=False),
        "items": sum(len(p.items) for p in results),
        "tail_percentile": 100 * (basis - TAIL_BEYOND) / basis,
        "tail_percentile_basis_items": basis,
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted({msg for p in results for msg in p.problems}),
    }
    return metrics, detail


def traced(wl, qh, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Pairs of a plain and a traced pass; the plain ones give the tracing overhead."""
    tracer = Tracer()
    plain, passes = [], []
    first_spans = None

    def step():
        nonlocal first_spans
        wl.prepare()
        plain.append(wl.run_pass())
        wl.prepare()
        tracer.begin_pass()
        tracer.install(qh)
        try:
            p = wl.run_pass()
        finally:
            tracer.remove()
        metrics = tracer.metrics()
        metrics["cli.out_bytes"] = p.out_bytes
        passes.append((p, metrics))
        if first_spans is None:
            first_spans = tracer.spans

    repeat(step, seconds, 1)
    first_spans.save(spans_path, tracer.names)
    per_pass = [m for _, m in passes]
    problems = sorted({msg for p, _ in passes for msg in p.problems} | {msg for p in plain for msg in p.problems})
    unstable = [k for k in COUNT_METRICS if k in per_pass[0] and any(m[k] != per_pass[0][k] for m in per_pass)]
    if unstable:
        problems.append(f"counts differ between traced passes: {unstable}")
    out = {}
    for key in METRIC_UNITS:
        if key == "trace.overhead_ratio":
            continue
        values = [m[key] for m in per_pass]
        out[key] = values[0] if key in COUNT_METRICS else statistics.median(values)
    out["trace.overhead_ratio"] = statistics.median(p.wall_s for p, _ in passes) / statistics.median(
        p.wall_s for p in plain
    )
    runs = plain + [p for p, _ in passes]
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    detail = {
        "passes": len(passes),
        "plain_wall_s": [p.wall_s for p in plain],
        "traced_wall_s": [p.wall_s for p, _ in passes],
        "spans": len(first_spans),
        "spans_file": spans_path.name,
        "problems": problems,
        "fail_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
    }
    return out, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "quiverhom" / "__init__.py").is_file():
        print(f"error: no quiverhom source tree at {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    workdir = root / ".bench_build" / "quiverhom-bench"
    workdir.mkdir(parents=True, exist_ok=True)

    sys.path.insert(0, str(root / "src"))
    import quiverhom as qh

    if Path(qh.__file__).resolve().parent != (root / "src" / "quiverhom").resolve():
        print(f"error: imported quiverhom from {qh.__file__}, not from ./src", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](qh, args.seed, workdir)
    wl.warm_up()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, detail = traced(wl, qh, args.seconds, workdir / f"spans-{stem}.npz")
        detail["layers"] = values
        units = REPORTED_UNITS
    else:
        values, detail = untraced(wl, root, args.seconds)
        units = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms", "peak_rss_mb": "MB"}
    result = {
        "correct": detail["failed"] == 0 and not detail["problems"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    facts = machine_facts(root, args)
    (workdir / f"result-{stem}.json").write_text(
        json.dumps({"facts": facts, "detail": detail, "result": result}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"facts": facts, "detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
