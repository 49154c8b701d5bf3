"""Command line interface: deterministic reports over bound quiver algebras.

Commands: resolve, ext, gaps, symmetry, report, sweep.  Configuration
comes from one JSON document (--config) with flag overrides; flags win.
Exit codes: 0 success, 2 configuration/specifier errors, 3 a verdict
that falsifies the build.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .algebra import nakayama_algebra
from .homology import ext_table, minimal_resolution
from .koszul import build_periodicity_tower
from .linalg import GF, is_prime
from .specifiers import GRAMMAR, SpecifierError, parse_module_spec
from .vanishing import (
    FalsificationError,
    SweepError,
    gap_check,
    nakayama_report,
    run_sweep,
    symmetry_scan,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATION = 3
MAX_WORKERS = 64  # --workers ceiling; a sweep also clamps to its cell and CPU counts

_CONFIG_KEYS = {
    "field_p",
    "algebra",
    "max_degree",
    "module",
    "pair",
    "out",
    "workers",
    "tail",
    "sweep",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    field_p: int = 101
    algebra: dict | None = None
    max_degree: int = 40
    module: str | None = None
    pair: tuple[str, str] | None = None
    out: str | None = None
    workers: int = 1
    tail: int | None = None
    sweep: dict | None = None

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        data: dict = {}
        if args.config:
            try:
                data = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as e:
                raise ConfigError(f"cannot read config {args.config}: {e}") from e
            if not isinstance(data, dict):
                raise ConfigError("config document must be a JSON object")
            unknown = set(data) - _CONFIG_KEYS
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls()
        for key in _CONFIG_KEYS:
            if key in data:
                setattr(cfg, key, data[key])
        # Flags override file values.
        if getattr(args, "field_p", None) is not None:
            cfg.field_p = args.field_p
        if getattr(args, "algebra", None) is not None:
            cfg.algebra = _parse_algebra_flag(args.algebra)
        if getattr(args, "max_degree", None) is not None:
            cfg.max_degree = args.max_degree
        if getattr(args, "module", None) is not None:
            cfg.module = args.module
        if getattr(args, "pair", None) is not None:
            cfg.pair = tuple(args.pair)
        if getattr(args, "out", None) is not None:
            cfg.out = args.out
        if getattr(args, "workers", None) is not None:
            cfg.workers = args.workers
        if getattr(args, "tail", None) is not None:
            cfg.tail = args.tail
        if getattr(args, "sweep_t", None) is not None or getattr(args, "sweep_n", None) is not None:
            if args.sweep_t is None or args.sweep_n is None:
                raise ConfigError("sweep needs both --sweep-t and --sweep-n ranges")
            cfg.sweep = {"t": list(args.sweep_t), "n": list(args.sweep_n)}
        cfg.validate()
        return cfg

    def validate(self):
        if not is_prime(self.field_p):
            raise ConfigError(f"field_p must be prime, got {self.field_p}")
        if self.max_degree < 1:
            raise ConfigError(f"max_degree must be >= 1, got {self.max_degree}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be in [1,{MAX_WORKERS}], got {self.workers}")
        if self.algebra is not None:
            self._validate_algebra(self.algebra)
        if self.pair is not None:
            if not (isinstance(self.pair, (list, tuple)) and len(self.pair) == 2):
                raise ConfigError("pair must name exactly two module specifiers")
            self.pair = (str(self.pair[0]), str(self.pair[1]))
        if self.tail is not None and not (1 <= self.tail <= self.max_degree):
            raise ConfigError(f"tail {self.tail} outside [1,{self.max_degree}]")
        if self.sweep is not None:
            for key in ("t", "n"):
                rng = self.sweep.get(key)
                if (
                    not isinstance(rng, (list, tuple))
                    or len(rng) != 2
                    or not all(isinstance(x, int) for x in rng)
                    or rng[0] > rng[1]
                ):
                    raise ConfigError(f"sweep.{key} must be an increasing [lo, hi] pair of integers")
            if set(self.sweep) - {"t", "n"}:
                raise ConfigError("sweep accepts only 't' and 'n' ranges")

    @staticmethod
    def _validate_algebra(spec: dict):
        if not isinstance(spec, dict):
            raise ConfigError("algebra spec must be a JSON object")
        if spec.get("kind") != "circular_nakayama":
            raise ConfigError(f"unsupported algebra kind {spec.get('kind')!r}")
        unknown = set(spec) - {"kind", "t", "n"}
        if unknown:
            raise ConfigError(f"unknown algebra keys: {sorted(unknown)}")
        t, n = spec.get("t"), spec.get("n")
        if not isinstance(t, int) or t < 2:
            raise ConfigError(f"algebra t must be an integer >= 2, got {t}")
        if not isinstance(n, int) or n < 1:
            raise ConfigError(f"algebra n must be an integer >= 1, got {n}")

    def build_algebra(self):
        if self.algebra is None:
            raise ConfigError("an algebra spec is required (--algebra or config)")
        return nakayama_algebra(self.algebra["t"], self.algebra["n"], GF(self.field_p))


def _parse_algebra_flag(text: str) -> dict:
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read algebra file: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"algebra spec is not valid JSON: {e}") from e


def _emit(cfg: RunConfig, payload: str):
    if cfg.out:
        Path(cfg.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _json_payload(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- commands -----------------------------------------------------------------


def cmd_resolve(cfg: RunConfig) -> int:
    if cfg.module is None:
        raise ConfigError("resolve needs a module specifier (--module)")
    alg = cfg.build_algebra()
    mod = parse_module_spec(alg, cfg.module)
    res = minimal_resolution(mod, cfg.max_degree)
    lines = ["degree,projective_index,multiplicity"]
    for d in range(cfg.max_degree + 1):
        for j, mult in res.betti(d):
            lines.append(f"{d},{j},{mult}")
    _emit(cfg, "\n".join(lines))
    return EXIT_OK


def cmd_ext(cfg: RunConfig) -> int:
    if cfg.pair is None:
        raise ConfigError("ext needs two module specifiers (--pair A B)")
    alg = cfg.build_algebra()
    m = parse_module_spec(alg, cfg.pair[0])
    n = parse_module_spec(alg, cfg.pair[1])
    table = ext_table(m, n, cfg.max_degree)
    _emit(cfg, table.to_csv())
    return EXIT_OK


def cmd_gaps(cfg: RunConfig) -> int:
    if cfg.pair is None:
        raise ConfigError("gaps needs two module specifiers (--pair A B)")
    alg = cfg.build_algebra()
    m = parse_module_spec(alg, cfg.pair[0])
    n = parse_module_spec(alg, cfg.pair[1])
    tower = build_periodicity_tower(m, window=2 * alg.t)
    if tower is None:
        raise ConfigError(f"no periodicity tower found for {cfg.pair[0]} within window {2 * alg.t}")
    report = gap_check(ext_table(m, n, cfg.max_degree), tower)
    _emit(cfg, _json_payload(report.to_dict()))
    return EXIT_VIOLATION if report.verdict == "violation" else EXIT_OK


def cmd_symmetry(cfg: RunConfig) -> int:
    if cfg.pair is None:
        raise ConfigError("symmetry needs two module specifiers (--pair A B)")
    alg = cfg.build_algebra()
    m = parse_module_spec(alg, cfg.pair[0])
    n = parse_module_spec(alg, cfg.pair[1])
    tail = cfg.tail if cfg.tail is not None else min(2 * alg.t, cfg.max_degree)
    report = symmetry_scan(m, n, cfg.max_degree, tail)
    _emit(cfg, _json_payload(report.to_dict()))
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    if cfg.algebra is None:
        raise ConfigError("report needs an algebra spec")
    rep = nakayama_report(
        cfg.algebra["t"], cfg.algebra["n"], cfg.max_degree, GF(cfg.field_p), tail=cfg.tail
    )
    _emit(cfg, _json_payload(rep))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep needs t and n ranges (--sweep-t lo hi --sweep-n lo hi)")
    agg = run_sweep(
        tuple(cfg.sweep["t"]),
        tuple(cfg.sweep["n"]),
        cfg.max_degree,
        field_p=cfg.field_p,
        workers=cfg.workers,
        tail=cfg.tail,
    )
    _emit(cfg, _json_payload(agg))
    return EXIT_OK


_COMMANDS = {
    "resolve": cmd_resolve,
    "ext": cmd_ext,
    "gaps": cmd_gaps,
    "symmetry": cmd_symmetry,
    "report": cmd_report,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverhom",
        description="Exact homological invariants of circular Nakayama algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("resolve", "Betti data of a minimal projective resolution (CSV)"),
        ("ext", "Ext dimension table of a module pair (CSV)"),
        ("gaps", "vanishing-gap report for a module pair (JSON)"),
        ("symmetry", "tail-vanishing symmetry report for a module pair (JSON)"),
        ("report", "full single-cell analysis report (JSON)"),
        ("sweep", "grid of cell reports with a summary block (JSON)"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config document; flags override its values")
        p.add_argument("--algebra", help='algebra spec JSON or @file, e.g. \'{"kind":"circular_nakayama","t":3,"n":2}\'')
        p.add_argument("--field-p", dest="field_p", type=int, help="prime field characteristic (default 101)")
        p.add_argument("--max-degree", dest="max_degree", type=int, help="degree bound B (default 40)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--workers", type=int, help=f"parallel workers for sweep cells, at most {MAX_WORKERS}")
        if name == "resolve":
            p.add_argument("--module", help=f"module specifier; grammar: {GRAMMAR}")
        if name in ("ext", "gaps", "symmetry"):
            p.add_argument("--pair", nargs=2, metavar=("M", "N"), help=f"module specifier pair; grammar: {GRAMMAR}")
        if name in ("symmetry", "report"):
            p.add_argument("--tail", type=int, help="tail window length (default min(2t, B))")
        if name == "sweep":
            p.add_argument("--sweep-t", dest="sweep_t", nargs=2, type=int, metavar=("LO", "HI"))
            p.add_argument("--sweep-n", dest="sweep_n", nargs=2, type=int, metavar=("LO", "HI"))
            p.add_argument("--tail", type=int, help="tail window length per cell")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, SpecifierError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (FalsificationError, SweepError) as e:
        print(f"violation: {e}", file=sys.stderr)
        return EXIT_VIOLATION


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
