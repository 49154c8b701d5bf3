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
from dataclasses import dataclass, fields
from pathlib import Path

from .algebra import DEFAULT_FIELD_P, nakayama_algebra
from .homology import ext_table, minimal_resolution
from .koszul import build_periodicity_tower
from .linalg import GF
from .specifiers import GRAMMAR, MAX_DEGREE, SpecifierError, parse_module_spec
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
MAX_T = MAX_N = 64  # t and n ceilings for --algebra and the sweep ranges


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    field_p: int = DEFAULT_FIELD_P
    algebra: dict | None = None
    max_degree: int = 40
    module: str | None = None
    pair: tuple[str, str] | None = None
    out: str | None = None
    workers: int = 1
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
        cfg = cls(**data)
        # Flags override file values.
        for key in _CONFIG_KEYS - {"algebra", "sweep"}:
            if getattr(args, key, None) is not None:
                setattr(cfg, key, getattr(args, key))
        if getattr(args, "algebra", None) is not None:
            cfg.algebra = _parse_algebra_flag(args.algebra)
        if getattr(args, "sweep_t", None) is not None or getattr(args, "sweep_n", None) is not None:
            if args.sweep_t is None or args.sweep_n is None:
                raise ConfigError("sweep needs both --sweep-t and --sweep-n ranges")
            cfg.sweep = {"t": list(args.sweep_t), "n": list(args.sweep_n)}
        cfg.validate()
        return cfg

    def validate(self):
        for key in ("field_p", "max_degree", "workers"):
            value = getattr(self, key)
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        try:
            GF(self.field_p)
        except ValueError as e:
            raise ConfigError(f"field_p: {e}") from e
        if not 1 <= self.max_degree <= MAX_DEGREE:
            raise ConfigError(f"max_degree must be in [1,{MAX_DEGREE}], got {self.max_degree}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ConfigError(f"workers must be in [1,{MAX_WORKERS}], got {self.workers}")
        if self.out is not None:  # checked before any work; an empty path writes to stdout
            if not isinstance(self.out, str) or "\0" in self.out:
                raise ConfigError(f"cannot write output file {self.out!r}: not a path string without NUL")
            if self.out and (Path(self.out).is_dir() or not Path(self.out).parent.is_dir()):
                raise ConfigError(f"cannot write output file {self.out}: not a file path in an existing directory")
        if self.algebra is not None:
            self._validate_algebra(self.algebra)
        if self.module is not None and not isinstance(self.module, str):
            raise ConfigError(f"module must be a specifier string, got {self.module!r}")
        if self.pair is not None:
            specs = self.pair if isinstance(self.pair, (list, tuple)) else ()
            if len(specs) != 2 or not all(isinstance(x, str) for x in specs):
                raise ConfigError(f"pair must name exactly two module specifier strings, got {self.pair!r}")
            self.pair = tuple(self.pair)
        if self.sweep is not None:
            if not isinstance(self.sweep, dict):
                raise ConfigError(f"sweep must be an object of 't' and 'n' ranges, got {self.sweep!r}")
            for key, least, most in (("t", 2, MAX_T), ("n", 1, MAX_N)):
                rng = self.sweep.get(key)
                if (
                    not isinstance(rng, (list, tuple))
                    or len(rng) != 2
                    or not all(_is_int(x) for x in rng)
                    or rng[0] > rng[1]
                ):
                    raise ConfigError(f"sweep.{key} must be an increasing [lo, hi] pair of integers")
                if rng[0] < least:
                    raise ConfigError(f"sweep.{key} must start at >= {least}, got {rng[0]}")
                if rng[1] > most:
                    raise ConfigError(f"sweep.{key} must end at <= {most}, got {rng[1]}")
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
        if not _is_int(t) or not 2 <= t <= MAX_T:
            raise ConfigError(f"algebra t must be an integer in [2,{MAX_T}], got {t}")
        if not _is_int(n) or not 1 <= n <= MAX_N:
            raise ConfigError(f"algebra n must be an integer in [1,{MAX_N}], got {n}")

    def build_algebra(self):
        if self.algebra is None:
            raise ConfigError("an algebra spec is required (--algebra or config)")
        return nakayama_algebra(self.algebra["t"], self.algebra["n"], GF(self.field_p))


_CONFIG_KEYS = frozenset(f.name for f in fields(RunConfig))


def _is_int(value) -> bool:
    """A JSON integer; rejects booleans, which Python counts as ints."""
    return type(value) is int


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
        try:
            Path(cfg.out).write_text(payload, encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot write output file {cfg.out}: {e}") from e
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__


def _json_payload(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte.

    With indent set, json.dumps runs the stdlib's pure-Python generator encoder;
    this writer appends the same chunks to one list and joins them once.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o, nl: str, out: list[str]) -> None:
    """Append o's JSON text; nl is a newline plus the indent of the line o's closing bracket goes on."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif type(o) is int:
        out.append(_int_repr(o))
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner, sep = nl + "  ", "{"
        for key, value in sorted(o.items()):
            out.append(f"{sep}{inner}{_encode_str(key if isinstance(key, str) else _json_key(key))}: ")
            _write_json(value, inner, out)
            sep = ","
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == {int}:
            out.append(f"[{inner}{(',' + inner).join(map(_int_repr, o))}{nl}]")
            return
        sep = "["
        for value in o:
            out.append(sep + inner)
            _write_json(value, inner, out)
            sep = ","
        out.append(nl + "]")
    else:  # floats keep the stdlib's text (NaN, Infinity); unknown types raise its TypeError
        out.append(json.dumps(o))


def _json_key(key) -> str:
    """A non-string dict key as the stdlib converts it before quoting."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


# -- commands -----------------------------------------------------------------


def _pair(cfg: RunConfig, command: str):
    """The two modules that --pair names, over the configured algebra."""
    if cfg.pair is None:
        raise ConfigError(f"{command} needs two module specifiers (--pair A B)")
    alg = cfg.build_algebra()
    return parse_module_spec(alg, cfg.pair[0]), parse_module_spec(alg, cfg.pair[1])


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
    m, n = _pair(cfg, "ext")
    table = ext_table(m, n, cfg.max_degree)
    _emit(cfg, table.to_csv())
    return EXIT_OK


def cmd_gaps(cfg: RunConfig) -> int:
    m, n = _pair(cfg, "gaps")
    report = gap_check(ext_table(m, n, cfg.max_degree), build_periodicity_tower(m))
    _emit(cfg, _json_payload(report.to_dict()))
    return EXIT_VIOLATION if report.verdict == "violation" else EXIT_OK


def cmd_symmetry(cfg: RunConfig) -> int:
    m, n = _pair(cfg, "symmetry")
    report = symmetry_scan(m, n, cfg.max_degree)
    _emit(cfg, _json_payload(report.to_dict()))
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    if cfg.algebra is None:
        raise ConfigError("report needs an algebra spec")
    rep = nakayama_report(cfg.algebra["t"], cfg.algebra["n"], cfg.max_degree, GF(cfg.field_p))
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
        if name != "sweep":
            p.add_argument("--algebra", help='algebra spec JSON or @file, e.g. \'{"kind":"circular_nakayama","t":3,"n":2}\'')
        p.add_argument("--field-p", dest="field_p", type=int, help=f"prime field characteristic (default {DEFAULT_FIELD_P})")
        p.add_argument("--max-degree", dest="max_degree", type=int, help="degree bound B (default 40)")
        p.add_argument("--out", help="output path (default: stdout)")
        if name == "resolve":
            p.add_argument("--module", help=f"module specifier; grammar: {GRAMMAR}")
        if name in ("ext", "gaps", "symmetry"):
            p.add_argument("--pair", nargs=2, metavar=("M", "N"), help=f"module specifier pair; grammar: {GRAMMAR}")
        if name == "sweep":
            p.add_argument("--sweep-t", dest="sweep_t", nargs=2, type=int, metavar=("LO", "HI"))
            p.add_argument("--sweep-n", dest="sweep_n", nargs=2, type=int, metavar=("LO", "HI"))
            p.add_argument("--workers", type=int, help=f"parallel workers for sweep cells, at most {MAX_WORKERS}")
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
