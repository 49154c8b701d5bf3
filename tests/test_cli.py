import json

import pytest

import quiverhom.vanishing as vanishing
from quiverhom.cli import EXIT_CONFIG, EXIT_OK, MAX_WORKERS, main

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
    cfg.write_text(json.dumps({"algebra": {"kind": "circular_nakayama", "t": 3, "n": 2}, "frobnicate": 1}))
    code, _, err = run(["resolve", "--config", str(cfg), "--module", "simple:1"], capsys)
    assert code == EXIT_CONFIG
    assert "unknown config keys" in err


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


@pytest.mark.parametrize("tail_args, tail", [(["--tail", "3"], 3), ([], 6)])
def test_sweep_tail_flag_reaches_every_cell(capsys, tail_args, tail):
    code, out, _ = run(
        ["sweep", "--sweep-t", "3", "3", "--sweep-n", "2", "2", "--max-degree", "8"] + tail_args, capsys
    )
    assert code == EXIT_OK
    assert [c["tail"] for c in json.loads(out)["cells"]] == [tail]


def test_sweep_rejects_workers_above_ceiling_without_a_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(vanishing, "ProcessPoolExecutor", no_pool)
    code, _, err = run(
        ["sweep", "--sweep-t", "2", "3", "--sweep-n", "1", "2", "--workers", str(MAX_WORKERS + 1)], capsys
    )
    assert code == EXIT_CONFIG
    assert "workers" in err
