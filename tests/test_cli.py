import concurrent.futures
import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quiverhom.cli as cli
import quiverhom.linalg
from quiverhom.algebra import DEFAULT_FIELD_P
from quiverhom.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    MAX_DEGREE,
    MAX_N,
    MAX_T,
    MAX_WORKERS,
    ConfigError,
    RunConfig,
    main,
)
from quiverhom.vanishing import run_sweep

ALG32 = '{"kind":"circular_nakayama","t":3,"n":2}'


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_resolve_csv(capsys):
    code, out, _ = run(
        ["resolve", "--algebra", ALG32, "--module", "simple:1", "--max-degree", "5"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines() == [
        "degree,projective_index,multiplicity",
        "0,1,1",
        "1,2,1",
        "2,1,1",
        "3,2,1",
        "4,1,1",
        "5,2,1",
    ]


def test_resolve_projective_single_row(capsys):
    code, out, _ = run(
        ["resolve", "--algebra", ALG32, "--module", "projective:1", "--max-degree", "4"], capsys
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["degree,projective_index,multiplicity", "0,1,1"]


def test_resolve_syzygy_is_shift(capsys):
    _, base, _ = run(
        ["resolve", "--algebra", ALG32, "--module", "simple:1", "--max-degree", "6"], capsys
    )
    _, shifted, _ = run(
        ["resolve", "--algebra", ALG32, "--module", "syzygy:1:simple:1", "--max-degree", "5"],
        capsys,
    )
    base_rows = [r.split(",") for r in base.splitlines()[1:]]
    shifted_rows = [r.split(",") for r in shifted.splitlines()[1:]]
    expected = [[str(int(d) - 1), j, m] for d, j, m in base_rows if int(d) >= 1]
    assert shifted_rows == expected


def test_ext_csv(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(
        [
            "ext",
            "--algebra",
            ALG32,
            "--pair",
            "simple:1",
            "simple:2",
            "--max-degree",
            "10",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    body = out_path.read_text(encoding="utf-8")
    assert body.startswith("degree,dim\n1,1\n2,0\n")
    assert not body.endswith("\n")
    assert len(body.splitlines()) == 11


def test_ext_zero_direction(capsys):
    code, out, _ = run(
        ["ext", "--algebra", ALG32, "--pair", "simple:2", "simple:1", "--max-degree", "10"],
        capsys,
    )
    assert code == EXIT_OK
    assert all(line.endswith(",0") for line in out.splitlines()[1:])


def test_ext_projective_self_pair(capsys):
    code, out, _ = run(
        ["ext", "--algebra", ALG32, "--pair", "projective:1", "projective:1", "--max-degree", "6"],
        capsys,
    )
    assert code == EXIT_OK
    assert all(line.endswith(",0") for line in out.splitlines()[1:])


def test_gaps_json(capsys):
    code, out, _ = run(
        ["gaps", "--algebra", ALG32, "--pair", "simple:2", "simple:1", "--max-degree", "20"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "gap-implies-all-zero-verified"
    assert doc["gap_start"] == 1
    assert doc["gap_length"] == 2


def test_gaps_without_a_tower_falsifies_the_build(capsys, monkeypatch):
    # Every non-projective module has a period within the bound, so a missing tower is a fault.
    monkeypatch.setattr(cli, "build_periodicity_tower", lambda m: None)
    code, out, err = run(
        ["gaps", "--algebra", ALG32, "--pair", "simple:2", "simple:1", "--max-degree", "20"],
        capsys,
    )
    assert code == EXIT_VIOLATION and out == ""
    assert err == "violation: no periodicity tower for non-projective simple:2\n"


def test_gaps_over_the_uniserials_of_3_2_and_the_zero_module_are_the_recorded_bytes(capsys):
    # Every ordered pair of the (3, 2) uniserials and the zero module syzygy:1:projective:1 at B = 20.
    # The digest was recorded while gap lengths were still summed over a tower's steps.
    specs = [f"uniserial:{i}:{length}" for i in range(1, 4) for length in range(1, 4)] + ["syzygy:1:projective:1"]
    digest = hashlib.sha256()
    for a in specs:
        for b in specs:
            code, out, err = run(["gaps", "--algebra", ALG32, "--pair", a, b, "--max-degree", "20"], capsys)
            assert (code, err) == (EXIT_OK, ""), (a, b)
            digest.update(out.encode())
    assert digest.hexdigest() == "fc56f57397a69b303903893fa36f899fe01d27b56e3c1777bd47ade42b592f7f"


def test_symmetry_over_the_uniserials_of_3_2_and_the_zero_module_are_the_recorded_bytes(capsys):
    # The pairs of the gaps digest above (24 no-gap verdicts among them): 64 both-tails-vanish, 24 asymmetric (one
    # witness list empty, one not) and 12 neither-vanishes verdicts.  Both digests were recorded while each report's
    # to_dict still listed its fields by hand.
    specs = [f"uniserial:{i}:{length}" for i in range(1, 4) for length in range(1, 4)] + ["syzygy:1:projective:1"]
    digest = hashlib.sha256()
    for a in specs:
        for b in specs:
            code, out, err = run(["symmetry", "--algebra", ALG32, "--pair", a, b, "--max-degree", "20"], capsys)
            assert (code, err) == (EXIT_OK, ""), (a, b)
            digest.update(out.encode())
    assert digest.hexdigest() == "d9bd12a5fc693ea4283b87bafb28085df3e7551d2e06f9bb3960112d8857df42"


def test_symmetry_json(capsys):
    code, out, _ = run(
        ["symmetry", "--algebra", ALG32, "--pair", "simple:1", "simple:2", "--max-degree", "20"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "asymmetric"
    assert doc["vanishing_direction"] == "n-to-m"


def test_report_json(capsys):
    code, out, _ = run(
        ["report", "--algebra", '{"kind":"circular_nakayama","t":4,"n":4}', "--max-degree", "20"],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["r"] == 0
    assert doc["asymmetric_pairs"] == 0


def test_bad_specifier_exit_code(capsys):
    code, _, err = run(
        ["resolve", "--algebra", ALG32, "--module", "nope:1", "--max-degree", "5"], capsys
    )
    assert code == EXIT_CONFIG
    assert "grammar" in err


@pytest.mark.parametrize("spec", ["simple:३", "syzygy:١:simple:1", "uniserial:1:٢", "simple:²"])
def test_non_ascii_digits_in_a_specifier_exit_2(capsys, spec):
    code, out, err = run(["resolve", "--algebra", ALG32, "--module", spec, "--max-degree", "2"], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "must be a non-negative integer in ASCII digits" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ext", "--algebra", ALG32], "ext needs two module specifiers (--pair A B)"),
        (["gaps", "--algebra", ALG32], "gaps needs two module specifiers (--pair A B)"),
        (["symmetry", "--algebra", ALG32], "symmetry needs two module specifiers (--pair A B)"),
        (["resolve", "--algebra", ALG32], "resolve needs a module specifier (--module)"),
        (["resolve", "--module", "simple:1"], "an algebra spec is required (--algebra or config)"),
        (["ext", "--pair", "simple:1", "simple:2"], "an algebra spec is required (--algebra or config)"),
        (["report"], "report needs an algebra spec"),
        (["sweep"], "sweep needs t and n ranges (--sweep-t lo hi --sweep-n lo hi)"),
        (["sweep", "--sweep-t", "2", "3"], "sweep needs both --sweep-t and --sweep-n ranges"),
    ],
    ids=["ext-pair", "gaps-pair", "symmetry-pair", "resolve-module", "resolve-algebra", "ext-algebra",
         "report-algebra", "sweep-ranges", "sweep-n"],
)
def test_missing_inputs_exit_2(capsys, argv, message):
    assert run([*argv, "--max-degree", "2"], capsys) == (EXIT_CONFIG, "", f"error: {message}\n")


@pytest.mark.parametrize("sweep", [[[2, 3], [1, 2]], "t=2..3", 5], ids=["list", "string", "int"])
@pytest.mark.parametrize("command", ["sweep", "resolve"])
def test_config_sweep_must_be_an_object(capsys, tmp_path, monkeypatch, sweep, command):
    monkeypatch.setattr(cli, "run_sweep", lambda *a, **k: pytest.fail("a sweep ran"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"sweep": sweep, "algebra": json.loads(ALG32), "module": "simple:1"}), encoding="utf-8")
    code, out, err = run([command, "--config", str(cfg), "--max-degree", "2"], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: sweep must be an object of 't' and 'n' ranges")


def test_deeply_nested_syzygy_specifier_matches_the_flat_count(capsys):
    outs = [
        run(["resolve", "--algebra", ALG32, "--module", spec, "--max-degree", "6"], capsys)
        for spec in ("syzygy:1:" * 1500 + "simple:1", "syzygy:1500:simple:1")
    ]
    assert outs[0][0] == EXIT_OK
    assert outs[0] == outs[1]


@pytest.mark.parametrize("target", ["", "missing/out.csv"], ids=["directory", "missing-parent"])
def test_out_that_cannot_be_written_exits_2(capsys, tmp_path, target):
    argv = ["ext", "--algebra", ALG32, "--pair", "simple:1", "simple:2", "--max-degree", "2"]
    code, out, err = run(argv + ["--out", str(tmp_path / target)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: cannot write output file")


@pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "missing-parent"])
@pytest.mark.parametrize(
    "argv",
    [["sweep", "--sweep-t", "2", "6", "--sweep-n", "1", "8"], ["report", "--algebra", ALG32]],
    ids=["sweep", "report"],
)
def test_out_is_checked_before_any_work(monkeypatch, capsys, tmp_path, target, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "run_sweep", no_work)
    monkeypatch.setattr(cli, "nakayama_report", no_work)
    code, out, err = run(argv + ["--out", str(tmp_path / target)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: cannot write output file")


def test_out_write_failure_after_the_work_exits_2(monkeypatch, capsys, tmp_path):
    def full_disk(self, *args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_text", full_disk)
    argv = ["ext", "--algebra", ALG32, "--pair", "simple:1", "simple:2", "--max-degree", "2"]
    code, out, err = run(argv + ["--out", str(tmp_path / "ext.csv")], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: cannot write output file") and "No space left on device" in err


def test_config_out_must_be_a_path_string(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": 5}), encoding="utf-8")
    code, _, err = run(["ext", "--config", str(cfg), "--algebra", ALG32, "--pair", "simple:1", "simple:2"], capsys)
    assert code == EXIT_CONFIG
    assert err.startswith("error: cannot write output file 5")


def _no_work(*args, **kwargs):
    raise AssertionError("the command ran before --out was checked")


@pytest.mark.parametrize("value", [False, True, 0, [], {}, "a\u0000b"], ids=["false", "true", "0", "list", "dict", "nul"])
@pytest.mark.parametrize(
    "argv",
    [["ext", "--algebra", ALG32, "--pair", "simple:1", "simple:2"], ["sweep", "--sweep-t", "2", "3", "--sweep-n", "1", "2"]],
    ids=["ext", "sweep"],
)
def test_config_out_must_be_a_path_string_without_nul(monkeypatch, capsys, tmp_path, value, argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"out": value}), encoding="utf-8")
    monkeypatch.setattr(cli, "ext_table", _no_work)
    monkeypatch.setattr(cli, "run_sweep", _no_work)
    code, out, err = run(argv + ["--config", str(cfg)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"error: cannot write output file {value!r}")


_JSON_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7fé€\u2028\U0001f600') | st.characters(), max_size=6)
_JSON_LEAVES = (
    st.integers() | st.booleans() | st.none() | st.floats() | _JSON_TEXT | st.lists(st.integers() | st.booleans())
)


def _json_containers(children):
    # Keys of one dict must sort together, as json.dumps(sort_keys=True) needs: strings, numbers or None.
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_JSON_TEXT, children, max_size=4)
        | st.dictionaries(st.integers() | st.floats() | st.booleans(), children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
    )


@given(st.recursive(_JSON_LEAVES, _json_containers, max_leaves=24))
@example({"nan": float("nan"), "inf": [float("inf"), -float("inf")], "empty": [{}, [], ()], "mixed": [1, True, 0, False]})
@example({1.5: None, 2: (), True: {}, -0.0: ""})
@example({None: [[1, 2], (3,), "é\"\x01"]})
@settings(max_examples=300, deadline=None)
def test_json_payload_is_the_stdlib_layout_byte_for_byte(obj):
    assert cli._json_payload(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("obj", [np.int64(3), [1, np.int64(3)], {"a": {"b": np.int64(3)}}], ids=["top", "list", "dict"])
def test_json_payload_rejects_a_numpy_integer_as_the_stdlib_does(obj):
    for encode in (cli._json_payload, lambda x: json.dumps(x, sort_keys=True, indent=2)):
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            encode(obj)


# The `ext` CSV of (S_1, S_2) over (3,2) at B = 4; the CI workflow diffs the installed script against it too.
EXT32_CSV = "degree,dim\n1,1\n2,0\n3,1\n4,0\n"


@pytest.mark.parametrize(
    "pair, code, out, err",
    [(["simple:1", "simple:2"], EXIT_OK, EXT32_CSV, ""), (["simple:9", "simple:2"], EXIT_CONFIG, "", "error: ")],
    ids=["ext", "bad-specifier"],
)
def test_python_m_quiverhom_runs_the_cli(pair, code, out, err):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "quiverhom", "ext", "--algebra", ALG32, "--pair", *pair, "--max-degree", "4"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (code, out)
    assert done.stderr.startswith(err) and bool(done.stderr) is bool(err)


def test_import_loads_no_process_pool_module():
    # Only a sweep that starts a pool imports it; a fresh interpreter shows what the import alone loads.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    probe = (
        "import sys, quiverhom, quiverhom.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent.futures'))))"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("module", [5, ["simple:1"], {"spec": "simple:1"}, 1.5, True])
def test_config_module_must_be_a_specifier_string(capsys, tmp_path, module):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"module": module, "algebra": json.loads(ALG32)}), encoding="utf-8")
    code, out, err = run(["resolve", "--config", str(cfg), "--max-degree", "2"], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: module must be a specifier string")


@pytest.mark.parametrize(
    "pair",
    [[1, "simple:2"], ["simple:1", 2], ["simple:1", ["simple:2"]], [None, "simple:2"], ["simple:1"], "simple:1"],
)
@pytest.mark.parametrize("command", ["ext", "gaps", "symmetry"])
def test_config_pair_entries_must_be_specifier_strings(capsys, tmp_path, pair, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"pair": pair, "algebra": json.loads(ALG32)}), encoding="utf-8")
    code, out, err = run([command, "--config", str(cfg), "--max-degree", "2"], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: pair must name exactly two module specifier strings")


def test_config_string_module_and_pair_are_read_as_given(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    doc = {"module": "simple:1", "pair": ["simple:1", "simple:2"], "algebra": json.loads(ALG32), "max_degree": 4}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["ext", "--config", str(cfg)], capsys) == (EXIT_OK, EXT32_CSV, "")
    code, out, _ = run(["resolve", "--config", str(cfg)], capsys)
    assert code == EXIT_OK and out.startswith("degree,")


def test_bad_algebra_exit_code(capsys):
    code, _, err = run(
        ["resolve", "--algebra", '{"kind":"wreath"}', "--module", "simple:1"], capsys
    )
    assert code == EXIT_CONFIG
    assert "kind" in err


def test_nonprime_field_rejected(capsys):
    code, _, err = run(
        ["ext", "--algebra", ALG32, "--pair", "simple:1", "simple:2", "--field-p", "6"], capsys
    )
    assert code == EXIT_CONFIG
    assert "prime" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--algebra", ALG32, "--module", "simple:1"],
        ["sweep", "--sweep-t", "2", "2", "--sweep-n", "1", "1"],
    ],
    ids=["resolve", "sweep"],
)
def test_prime_field_above_exact_bound_rejected(capsys, argv):
    # 1048583 is the first prime above GF.MAX_CHARACTERISTIC = 2**20.
    code, out, err = run(argv + ["--field-p", "1048583"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == "error: field_p: characteristic 1048583 exceeds exact-arithmetic bound 1048576\n"


def test_a_field_p_above_the_bound_is_refused_before_the_primality_test(capsys, monkeypatch):
    # 10**18 + 3 is prime; trial division would run up to 10**9.  The field rule lives in GF alone.
    def refuse(p):
        raise AssertionError(f"is_prime({p}) called")

    monkeypatch.setattr(quiverhom.linalg, "is_prime", refuse)
    code, out, err = run(["resolve", "--algebra", ALG32, "--module", "simple:1", "--field-p", str(10**18 + 3)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "exceeds exact-arithmetic bound 1048576" in err
    assert not hasattr(cli, "is_prime")


def test_the_field_p_default_is_the_algebra_default(capsys):
    assert RunConfig().field_p == DEFAULT_FIELD_P
    assert inspect.signature(run_sweep).parameters["field_p"].default == DEFAULT_FIELD_P
    with pytest.raises(SystemExit):
        main(["ext", "--help"])
    assert f"(default {DEFAULT_FIELD_P})" in " ".join(capsys.readouterr().out.split())


ALG43 = '{"kind":"circular_nakayama","t":4,"n":3}'


# Outputs recorded before syzygy specifiers returned named copies.
@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            [
                "gaps", "--algebra", ALG32,
                "--pair", "syzygy:1:simple:2", "syzygy:3:simple:1",
                "--max-degree", "12",
            ],
            '{\n  "gap_length": 2,\n  "gap_start": 1,\n  "max_degree": 12,\n  "pair": [\n'
            '    "syzygy:1:simple:2",\n    "syzygy:3:simple:1"\n  ],\n  "seed": 1729,\n'
            '  "verdict": "gap-implies-all-zero-verified"\n}\n',
        ),
        (
            [
                "symmetry", "--algebra", ALG32,
                "--pair", "syzygy:2:uniserial:1:2", "syzygy:1:simple:2",
                "--max-degree", "12",
            ],
            '{\n  "max_degree": 12,\n  "pair": [\n    "syzygy:2:uniserial:1:2",\n    "syzygy:1:simple:2"\n'
            '  ],\n  "seed": 1729,\n  "tail": 6,\n  "vanishing_direction": "m-to-n",\n'
            '  "verdict": "asymmetric",\n  "witness_degrees": {\n    "m_to_n": [],\n'
            '    "n_to_m": [\n      7,\n      9,\n      11\n    ]\n  }\n}\n',
        ),
        (
            [
                "ext", "--algebra", ALG43,
                "--pair", "syzygy:1:simple:1", "syzygy:3:uniserial:2:2",
                "--max-degree", "8",
            ],
            "degree,dim\n1,1\n2,0\n3,1\n4,0\n5,1\n6,0\n7,1\n8,0\n",
        ),
    ],
    ids=["gaps", "symmetry", "ext"],
)
def test_syzygy_specifier_outputs_unchanged(capsys, argv, expected):
    code, out, _ = run(argv, capsys)
    assert code == EXIT_OK
    assert out == expected


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "algebra": {"kind": "circular_nakayama", "t": 3, "n": 2},
                "max_degree": 4,
                "module": "simple:1",
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run(["resolve", "--config", str(cfg), "--max-degree", "2"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("2,")  # flag value won


def test_config_unknown_keys_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    # The symmetry window is derived from the algebra and B, so "tail" is not a key.
    for key in ("frobnicate", "tail"):
        cfg.write_text(json.dumps({"algebra": {"kind": "circular_nakayama", "t": 3, "n": 2}, key: 1}))
        code, _, err = run(["resolve", "--config", str(cfg), "--module", "simple:1"], capsys)
        assert code == EXIT_CONFIG
        assert f"unknown config keys: ['{key}']" in err


@pytest.mark.parametrize(
    "doc", [{"workers": "4"}, {"max_degree": "20"}, {"field_p": 101.0}, {"max_degree": True}]
)
def test_config_values_must_be_integers(capsys, tmp_path, doc):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(["resolve", "--config", str(cfg), "--algebra", ALG32, "--module", "simple:1"], capsys)
    assert code == EXIT_CONFIG
    assert f"{next(iter(doc))} must be an integer" in err


def test_sweep_aggregation(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code, _, _ = run(
        [
            "sweep",
            "--sweep-t", "2", "3",
            "--sweep-n", "1", "2",
            "--max-degree", "12",
            "--workers", "2",
            "--out", str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["summary"]["cell_count"] == 4
    assert [(c["t"], c["n"]) for c in doc["cells"]] == [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_outputs_byte_identical_on_repeat(capsys, tmp_path):
    args = [
        "report",
        "--algebra", ALG32,
        "--max-degree", "16",
    ]
    first = run(args + ["--out", str(tmp_path / "a.json")], capsys)
    second = run(args + ["--out", str(tmp_path / "b.json")], capsys)
    assert first[0] == second[0] == EXIT_OK
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_sweep_rejects_workers_above_ceiling_without_a_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, _, err = run(
        ["sweep", "--sweep-t", "2", "3", "--sweep-n", "1", "2", "--workers", str(MAX_WORKERS + 1)], capsys
    )
    assert code == EXIT_CONFIG
    assert "workers" in err


def test_sweep_tail_shorter_than_period_is_reported_over_symmetric_cell(capsys):
    # (3, 3) is symmetric; at B = 2 the window is shorter than the 2t = 6 period.
    code, out, _ = run(["sweep", "--sweep-t", "3", "3", "--sweep-n", "3", "3", "--max-degree", "2"], capsys)
    assert code == EXIT_OK
    cell = json.loads(out)["cells"][0]
    assert cell["tail"] == 2 and cell["asymmetric_pairs"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "--algebra", ALG32, "--pair", "simple:1", "simple:2", "--workers", "4"],
        ["sweep", "--algebra", ALG32, "--sweep-t", "2", "2", "--sweep-n", "1", "1"],
        ["symmetry", "--algebra", ALG32, "--pair", "simple:1", "simple:2", "--tail", "3"],
        ["report", "--algebra", ALG32, "--tail", "3"],
        ["sweep", "--sweep-t", "2", "2", "--sweep-n", "1", "1", "--tail", "3"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_file_keys_stay_accepted_by_every_command(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"workers": 2, "algebra": json.loads(ALG32)}), encoding="utf-8")
    code, out, _ = run(["resolve", "--config", str(cfg), "--module", "simple:1", "--max-degree", "2"], capsys)
    assert code == EXIT_OK
    assert out.startswith("degree,projective_index,multiplicity")
    code, out, _ = run(["sweep", "--config", str(cfg), "--sweep-t", "2", "2", "--sweep-n", "1", "1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["summary"]["cell_count"] == 1


@pytest.mark.parametrize(
    "ranges, key",
    [
        (["--sweep-t", "1", "1", "--sweep-n", "1", "1"], "t"),
        (["--sweep-t", "2", "2", "--sweep-n", "0", "0"], "n"),
    ],
)
def test_sweep_ranges_below_the_family_are_config_errors(capsys, ranges, key):
    code, out, err = run(["sweep"] + ranges, capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert f"sweep.{key} must start at" in err


def _nakayama(t, n):
    return {"kind": "circular_nakayama", "t": t, "n": n}


@pytest.mark.parametrize(
    "config, limit, message",
    [
        (lambda v: RunConfig(algebra=_nakayama(v, 1)), MAX_T, "algebra t must be an integer in"),
        (lambda v: RunConfig(algebra=_nakayama(2, v)), MAX_N, "algebra n must be an integer in"),
        (lambda v: RunConfig(sweep={"t": [2, v], "n": [1, 1]}), MAX_T, "sweep.t must end at"),
        (lambda v: RunConfig(sweep={"t": [2, 2], "n": [1, v]}), MAX_N, "sweep.n must end at"),
        (lambda v: RunConfig(max_degree=v), MAX_DEGREE, "max_degree must be in"),
    ],
    ids=["algebra-t", "algebra-n", "sweep-t", "sweep-n", "max-degree"],
)
def test_inputs_are_accepted_at_their_upper_bound_and_rejected_above(config, limit, message):
    config(limit).validate()
    with pytest.raises(ConfigError, match=message):
        config(limit + 1).validate()


def _readme_cli_examples() -> list[list[str]]:
    """The argument lists of the `quiverhom ...` lines in the README's CLI code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("quiverhom ")]


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=lambda argv: argv[0])
def test_readme_cli_examples_run(capsys, tmp_path, argv):
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    else:
        argv += ["--out", str(tmp_path / "out")]
    assert run(argv, capsys)[0] == EXIT_OK
