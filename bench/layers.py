"""Outside-in tracing of the quiverhom layers.

A Tracer wraps the public functions of each layer module (linalg,
modules, homology, koszul, vanishing, cli) and the ``__init__`` of
Resolution, LabeledProjective and ModuleMap.  Every call records a span
(name, start, end, parent) in flat in-memory arrays; ``layer_metrics``
turns one pass's spans into calls, self times and ratios.

A wrapped function is rebound under every name that refers to it in any
loaded ``quiverhom`` module, because the layers import each other's
functions by name (``homology`` holds its own ``projective_cover``,
``vanishing`` its own ``ext_table``).  ``remove`` puts every original
object back.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np


def _rref_elems(tracer, args, kwargs):
    m = args[1]
    return int(m.shape[0] * m.shape[1])


def _resolution_degrees(tracer, args, kwargs):
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    return int(max_degree) + 1


def _ext_pair(tracer, args, kwargs):
    m, n, max_degree = (tuple(args) + tuple(kwargs.values()))[:3]
    tracer.ext_keys.add((m.algebra, m.describe(), n.describe(), max_degree))
    return 0


def _map_checked(args, kwargs):
    return bool(args[4] if len(args) > 4 else kwargs.get("check", True))


# (module, attribute, span name, payload, predicate).  The payload returns
# an integer stored with the span and may note the call's arguments; the
# predicate decides whether a call is recorded at all.  Tiny constructors (GF.zeros, GF.eye, GF.inv_scalar)
# are left unwrapped: their cost is noise next to the wrapper's own.
FUNCTIONS = [
    ("linalg", "GF.rref", "linalg.rref", _rref_elems, None),
    ("linalg", "GF.rank", "linalg.rank", None, None),
    ("linalg", "GF.kernel_basis", "linalg.kernel_basis", None, None),
    ("linalg", "GF.kernel_matrix", "linalg.kernel_matrix", None, None),
    ("linalg", "GF.solve", "linalg.solve", None, None),
    ("linalg", "GF.solve_matrix", "linalg.solve_matrix", None, None),
    ("linalg", "GF.inverse", "linalg.inverse", None, None),
    ("linalg", "GF.is_invertible", "linalg.is_invertible", None, None),
    ("linalg", "GF.matmul", "linalg.matmul", None, None),
    ("modules", "ModuleMap.__init__", "modules.ModuleMap.check", None, _map_checked),
    ("modules", "LabeledProjective.__init__", "modules.LabeledProjective", None, None),
    ("modules", "projective_cover", "modules.projective_cover", None, None),
    ("modules", "kernel", "modules.kernel", None, None),
    ("modules", "cokernel", "modules.cokernel", None, None),
    ("modules", "direct_sum", "modules.direct_sum", None, None),
    ("modules", "hom_basis", "modules.hom_basis", None, None),
    ("modules", "serial_summands", "modules.serial_summands", None, None),
    ("modules", "decompose_serial", "modules.decompose_serial", None, None),
    ("modules", "find_isomorphism", "modules.find_isomorphism", None, None),
    ("modules", "is_isomorphic", "modules.is_isomorphic", None, None),
    ("modules", "is_projective", "modules.is_projective", None, None),
    ("modules", "top_dims", "modules.top_dims", None, None),
    ("modules", "simple", "modules.simple", None, None),
    ("modules", "uniserial", "modules.uniserial", None, None),
    ("modules", "projective", "modules.projective", None, None),
    ("homology", "Resolution.__init__", "homology.Resolution", _resolution_degrees, None),
    ("homology", "minimal_resolution", "homology.minimal_resolution", None, None),
    ("homology", "syzygy", "homology.syzygy", None, None),
    ("homology", "ext_dims", "homology.ext_dims", _ext_pair, None),
    ("homology", "ext_table", "homology.ext_table", None, None),
    ("homology", "ext_dim", "homology.ext_dim", None, None),
    ("homology", "betti_ext_dims", "homology.betti_ext_dims", None, None),
    ("homology", "omega_map", "homology.omega_map", None, None),
    ("homology", "stable_hom_dim", "homology.stable_hom_dim", None, None),
    ("homology", "detect_period", "homology.detect_period", None, None),
    ("koszul", "koszul_object", "koszul.koszul_object", None, None),
    ("koszul", "build_periodicity_tower", "koszul.build_periodicity_tower", None, None),
    ("koszul", "complexity_estimate", "koszul.complexity_estimate", None, None),
    ("vanishing", "gap_check", "vanishing.gap_check", None, None),
    ("vanishing", "les_shift_holds", "vanishing.les_shift_holds", None, None),
    ("vanishing", "symmetry_scan", "vanishing.symmetry_scan", None, None),
    ("vanishing", "nakayama_report", "vanishing.nakayama_report", None, None),
    ("vanishing", "auslander_scan", "vanishing.auslander_scan", None, None),
    ("vanishing", "run_sweep", "vanishing.run_sweep", None, None),
    ("vanishing", "gap_suite_cell", "vanishing.gap_suite_cell", None, None),
    ("cli", "main", "cli.main", None, None),
]

LAYERS = ("linalg", "modules", "homology", "koszul", "vanishing", "cli")

# Per-layer metrics reported by the traced run, with their units.
METRIC_UNITS = {
    "linalg.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.elems": "count",
    "linalg.rank.calls": "count",
    "linalg.kernel_basis.calls": "count",
    "linalg.solve_matrix.calls": "count",
    "modules.self_s": "s",
    "modules.projective_cover.calls": "count",
    "modules.projective_cover.self_s": "s",
    "modules.kernel.calls": "count",
    "modules.kernel.self_s": "s",
    "modules.LabeledProjective.builds": "count",
    "modules.hom_basis.calls": "count",
    "modules.hom_basis.self_s": "s",
    "modules.serial_summands.calls": "count",
    "modules.serial_summands.self_s": "s",
    "modules.find_isomorphism.calls": "count",
    "modules.map_checks": "count",
    "modules.map_check_s": "s",
    "homology.self_s": "s",
    "homology.Resolution.builds": "count",
    "homology.Resolution.degrees": "count",
    "homology.Resolution.self_s": "s",
    "homology.minimal_resolution.calls": "count",
    "homology.resolution_hit_ratio": "ratio",
    "homology.ext_dims.calls": "count",
    "homology.ext_dims.self_s": "s",
    "homology.ext_dims.unique_ratio": "ratio",
    "homology.stable_hom_dim.calls": "count",
    "homology.stable_hom_dim.self_s": "s",
    "homology.detect_period.calls": "count",
    "koszul.self_s": "s",
    "koszul.build_periodicity_tower.calls": "count",
    "koszul.koszul_object.calls": "count",
    "koszul.koszul_object.self_s": "s",
    "vanishing.self_s": "s",
    "vanishing.nakayama_report.calls": "count",
    "vanishing.symmetry_scan.calls": "count",
    "vanishing.gap_suite_cell.calls": "count",
    "vanishing.cell_p50_s": "s",
    "vanishing.cell_max_s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# Times of code that some workload never calls read exactly 0.0 there on
# every run.  They go to the detail line only; the result line carries
# the per-layer metrics that every workload measures.
DETAIL_ONLY = (
    "modules.hom_basis.self_s",
    "modules.serial_summands.self_s",
    "homology.stable_hom_dim.self_s",
    "koszul.self_s",
    "koszul.koszul_object.self_s",
    "vanishing.self_s",
    "vanishing.cell_p50_s",
    "vanishing.cell_max_s",
    "cli.self_s",
)
REPORTED_UNITS = {k: u for k, u in METRIC_UNITS.items() if k not in DETAIL_ONLY}

# Metrics that are counts of work: they must repeat exactly between passes.
COUNT_METRICS = tuple(k for k, u in METRIC_UNITS.items() if u in ("count", "bytes")) + (
    "homology.resolution_hit_ratio",
    "homology.ext_dims.unique_ratio",
)


class Spans:
    """Flat span storage: one entry per recorded call."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.payload = array("q")
        self.start = array("d")
        self.end = array("d")

    def __len__(self) -> int:
        return len(self.name)

    def save(self, path, names: list[str]):
        np.savez(
            path,
            names=np.array(names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            payload=np.frombuffer(self.payload, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Tracer:
    """Installs span-recording wrappers into a loaded quiverhom package."""

    def __init__(self):
        self.names = [entry[2] for entry in FUNCTIONS]
        self.spans = Spans()
        self.ext_keys: set = set()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def begin_pass(self):
        """Drop the spans and notes of the previous pass."""
        self.spans = Spans()
        self.ext_keys = set()

    def _wrap(self, fn, nid: int, payload, predicate):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if predicate is not None and not predicate(args, kwargs):
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans.name)
            spans.name.append(nid)
            spans.parent.append(stack[-1])
            spans.payload.append(payload(tracer, args, kwargs) if payload is not None else 0)
            spans.end.append(0.0)
            stack.append(idx)
            spans.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[idx] = perf_counter()
                stack.pop()

        return wrapper

    def install(self, package):
        """Wrap every entry of FUNCTIONS in the given, already imported package."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        prefix = package.__name__ + "."
        for layer in LAYERS:
            importlib.import_module(prefix + layer)
        loaded = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(prefix)]
        for nid, (modname, attr, _, payload, predicate) in enumerate(FUNCTIONS):
            home = sys.modules[prefix + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, nid, payload, predicate))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, nid, payload, predicate)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self):
        """Put back every object that install() replaced."""
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the spans recorded since begin_pass()."""
        return layer_metrics(self.names, self.spans, len(self.ext_keys))


def layer_metrics(names: list[str], spans: Spans, unique_ext_pairs: int) -> dict[str, float]:
    """Calls, self times and ratios of one pass, keyed as in METRIC_UNITS.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self times of its spans.
    """
    name = np.frombuffer(spans.name, dtype=np.int32)
    parent = np.frombuffer(spans.parent, dtype=np.int32)
    payload = np.frombuffer(spans.payload, dtype=np.int64)
    dur = np.frombuffer(spans.end, dtype=np.float64) - np.frombuffer(spans.start, dtype=np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    ids = {n: i for i, n in enumerate(names)}

    def mask(span_name):
        return name == ids[span_name]

    def calls(span_name):
        return int(np.count_nonzero(mask(span_name)))

    def self_s(span_name):
        return float(self_time[mask(span_name)].sum())

    out: dict[str, float] = {}
    layer_of = np.array([n.split(".")[0] for n in names])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_time[np.isin(name, np.flatnonzero(layer_of == layer))].sum())
    for fn in ("linalg.rank", "linalg.kernel_basis", "linalg.solve_matrix", "homology.minimal_resolution",
               "homology.detect_period", "koszul.build_periodicity_tower", "modules.find_isomorphism",
               "vanishing.nakayama_report", "vanishing.symmetry_scan", "vanishing.gap_suite_cell"):
        out[f"{fn}.calls"] = calls(fn)
    for fn in ("linalg.rref", "modules.projective_cover", "modules.kernel", "modules.hom_basis",
               "modules.serial_summands", "homology.ext_dims", "homology.stable_hom_dim",
               "koszul.koszul_object"):
        out[f"{fn}.calls"] = calls(fn)
        out[f"{fn}.self_s"] = self_s(fn)
    out["linalg.rref.elems"] = int(payload[mask("linalg.rref")].sum())
    out["modules.LabeledProjective.builds"] = calls("modules.LabeledProjective")
    out["modules.map_checks"] = calls("modules.ModuleMap.check")
    out["modules.map_check_s"] = float(dur[mask("modules.ModuleMap.check")].sum())
    res = mask("homology.Resolution")
    out["homology.Resolution.builds"] = int(np.count_nonzero(res))
    out["homology.Resolution.degrees"] = int(payload[res].sum())
    out["homology.Resolution.self_s"] = float(self_time[res].sum())
    # A minimal_resolution call hits its cache when it builds no Resolution.
    mr_calls = out["homology.minimal_resolution.calls"]
    built_inside = int(np.count_nonzero(res & np.isin(parent, np.flatnonzero(mask("homology.minimal_resolution")))))
    out["homology.resolution_hit_ratio"] = (mr_calls - built_inside) / mr_calls if mr_calls else 0.0
    ext_calls = out["homology.ext_dims.calls"]
    out["homology.ext_dims.unique_ratio"] = unique_ext_pairs / ext_calls if ext_calls else 0.0
    cells = dur[mask("vanishing.nakayama_report") | mask("vanishing.gap_suite_cell")]
    out["vanishing.cell_p50_s"] = float(statistics.median(cells)) if len(cells) else 0.0
    out["vanishing.cell_max_s"] = float(cells.max()) if len(cells) else 0.0
    return out
