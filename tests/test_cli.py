import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lieprop
from lieprop import cecomplex
from lieprop.cli import SUITES, RunConfig, build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_runconfig_rejects_bad_values():
    with pytest.raises(ValueError):
        RunConfig(max_m=0)
    with pytest.raises(ValueError):
        RunConfig(suites=("nope",))
    with pytest.raises(ValueError):
        RunConfig(format="xml")


def test_runconfig_defaults_to_all_suites():
    cfg = RunConfig(suites=())
    assert set(cfg.suites) == {"catlie", "mudelta", "dg", "ce", "qsn", "oracle"}
    cfg = RunConfig(suites=("all",))
    assert set(cfg.suites) == {"catlie", "mudelta", "dg", "ce", "qsn", "oracle"}


def test_runconfig_keeps_its_keywords_and_as_dict():
    cfg = RunConfig(max_m=3, suites=("ce",), format="json", seed=5, trials=7)
    assert (cfg.max_m, cfg.suites, cfg.format, cfg.seed, cfg.out, cfg.trials) == \
        (3, ("ce",), "json", 5, None, 7)
    assert cfg.as_dict() == {"max_m": 3, "suites": ["ce"], "format": "json", "seed": 5,
                             "trials": 7}
    assert RunConfig().as_dict() == {"max_m": 4, "suites": list(SUITES), "format": "text",
                                     "seed": 0, "trials": 100}


def test_cli_import_loads_neither_dataclasses_nor_csv():
    # `python -S`: no site packages, so only lieprop's own imports load modules
    src = os.path.dirname(os.path.dirname(lieprop.__file__))
    code = ("import sys; sys.path.insert(0, %r); import lieprop.cli; "
            "print(sorted({'dataclasses', 'csv'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_dims_csv_contains_spot_row(capsys):
    code, out = run_cli(capsys, "dims", "--max-m", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "hom_dim", "delta1_dim", "ce_dims"]
    by_cell = {(r[0], r[1]): r for r in rows[1:]}
    assert by_cell[("4", "2")][2] == "22"
    assert by_cell[("3", "3")][2] == "6"


def test_dims_minimal_table(capsys):
    code, out = run_cli(capsys, "dims", "--max-m", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 3  # header + (0,0), (1,0), (1,1)


def test_dims_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dims", "--max-m", "0"])
    assert exc.value.code == 2


def test_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_homology_json_round_trips(capsys, tmp_path):
    out_path = tmp_path / "homology.json"
    code, _ = run_cli(capsys, "homology", "--max-m", "3", "--format", "json",
                      "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert set(payload) == {"config", "cells"}
    cells = {(c["m"], c["n"]): (c["h0"], c["h1"]) for c in payload["cells"]}
    assert cells[(2, 1)] == (0, 1)
    assert cells[(3, 3)] == (6, 0)
    assert cells[(2, 2)] == (2, 0)
    # round trip: dumps(loads(text)) is stable
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("argv", [
    ["homology", "--max-m", "4", "--format", "json"],
    ["export-basis", "--m", "4", "--n", "1", "--space", "ce", "--t", "2"],
])
def test_out_file_bytes_equal_stdout_bytes(capsys, tmp_path, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out
    path = tmp_path / "out.txt"
    code, nothing = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0 and nothing == ""
    assert path.read_bytes() == out.encode()


def test_homology_text_table(capsys):
    code, out = run_cli(capsys, "homology", "--max-m", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["m", "n", "h0", "h1"]


def test_verify_single_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "qsn", "--max-m", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"] == [{"name": "qsn", "pass": True,
                                  "cases": payload["suites"][0]["cases"]}]
    assert payload["suites"][0]["cases"] >= 4
    assert {"m": 2, "n": 1, "h0": 0, "h1": 1} in payload["cells"]


def test_verify_runs_a_repeated_suite_once_in_first_seen_order(capsys):
    assert RunConfig(suites=("ce", "qsn", "ce", "qsn")).suites == ("ce", "qsn")
    code, out = run_cli(capsys, "verify", "--suite", "qsn", "--suite", "catlie",
                        "--suite", "qsn", "--max-m", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [s["name"] for s in payload["suites"]] == ["qsn", "catlie"]
    assert payload["config"]["suites"] == ["qsn", "catlie"]


def test_verify_oracle_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "oracle", "--max-m", "3",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert all(s["pass"] for s in payload["suites"])


def test_verify_deterministic_for_fixed_seed(capsys):
    _, out1 = run_cli(capsys, "verify", "--suite", "catlie", "--max-m", "4",
                      "--seed", "5", "--format", "json")
    _, out2 = run_cli(capsys, "verify", "--suite", "catlie", "--max-m", "4",
                      "--seed", "5", "--format", "json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["config"]["seed"] == 5


def test_export_basis_hom(capsys):
    code, out = run_cli(capsys, "export-basis", "--m", "3", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "hom"
    assert len(payload["basis"]) == 6
    assert payload["basis"][0].keys() == {"f", "trees"}


def test_export_basis_delta1_and_ce(capsys):
    code, out = run_cli(capsys, "export-basis", "--m", "3", "--n", "1",
                        "--space", "delta1")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 3  # delta1_dim(3,1) = 3 * hom_dim(2,1)
    code, out = run_cli(capsys, "export-basis", "--m", "2", "--n", "0",
                        "--space", "ce", "--t", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 1


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


def test_verify_exit_1_on_failure(capsys, monkeypatch):
    import lieprop.cli as cli_mod
    monkeypatch.setitem(cli_mod.SUITE_FNS, "qsn", lambda *a: (False, 3))
    code, out = run_cli(capsys, "verify", "--suite", "qsn", "--max-m", "2",
                        "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["suites"] == [{"name": "qsn", "pass": False, "cases": 3}]


def test_verify_mudelta_fails_on_the_chain_map_condition(capsys, monkeypatch):
    # pi o d2 = 0 is the third condition of ce_to_dgcat; the suite reads all three
    real = cecomplex.ce_to_dgcat

    def broken(m, n):
        rep = dict(real(m, n), pi_d2_zero=False)
        rep["ok"] = rep["retraction"] and rep["mu_compat"] and rep["pi_d2_zero"]
        return rep

    code, out = run_cli(capsys, "verify", "--suite", "mudelta", "--max-m", "3",
                        "--format", "json")
    assert code == 0
    monkeypatch.setattr(cecomplex, "ce_to_dgcat", broken)
    code, out = run_cli(capsys, "verify", "--suite", "mudelta", "--max-m", "3",
                        "--format", "json")
    assert code == 1
    assert json.loads(out)["suites"][0]["pass"] is False


def test_worker_fanout_matches_serial(capsys, monkeypatch):
    _, serial = run_cli(capsys, "homology", "--max-m", "3", "--format", "csv")
    monkeypatch.setenv("LIEPROP_WORKERS", "2")
    _, fanned = run_cli(capsys, "homology", "--max-m", "3", "--format", "csv")
    assert serial == fanned


@pytest.mark.parametrize("value", ["two", "0", "-3", "1.5"])
def test_invalid_workers_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("LIEPROP_WORKERS", value)
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--max-m", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "LIEPROP_WORKERS" in captured.err


@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_out_usage_error(capsys, monkeypatch, tmp_path, target):
    # found before any work starts, not as a traceback with the failure exit code
    import lieprop.cli as cli_mod

    def no_work(max_m):
        raise AssertionError("the homology table was computed")

    monkeypatch.setattr(cli_mod, "_homology_cells", no_work)
    path = tmp_path / "nowhere" / "x.json" if target == "missing directory" else tmp_path
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--max-m", "3", "--out", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--out" in captured.err
    assert not (tmp_path / "nowhere").exists()


@pytest.mark.parametrize("flag", ["--m", "--n", "--t"])
def test_export_basis_rejects_negative_sizes(capsys, flag):
    argv = {"--m": "2", "--n": "1", "--t": "0"}
    argv[flag] = "-1"
    args = ["export-basis", "--space", "ce"]
    for k, v in argv.items():
        args += [k, v]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "%s must be >= 0" % flag in captured.err


@pytest.mark.parametrize("space", ["hom", "delta1", "ce"])
def test_export_basis_rejects_n_above_m(capsys, space):
    with pytest.raises(SystemExit) as exc:
        main(["export-basis", "--m", "2", "--n", "5", "--space", space])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n must be <= --m" in captured.err


@pytest.mark.parametrize("argv", [
    ["--m", "2", "--n", "2", "--space", "delta1"],   # delta1(m, m) lies in Hom(m, m + 1)
    ["--m", "2", "--n", "1", "--space", "ce", "--t", "3"],
    ["--m", "3", "--n", "0"],
], ids=["delta1-n-equal-m", "ce-t-above-m-n", "hom-n-zero"])
def test_export_basis_rejects_empty_basis(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["export-basis"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "basis for --m" in captured.err and "is empty" in captured.err


def test_export_basis_allows_n_equal_m(capsys):
    code, out = run_cli(capsys, "export-basis", "--m", "3", "--n", "3")
    assert code == 0
    assert len(json.loads(out)["basis"]) == 6  # Hom(3, 3) is the group algebra of S_3


@pytest.mark.parametrize("trials", ["-1", "-3"])
def test_negative_trials_usage_error(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--max-m", "2", "--suite", "catlie", "--trials", trials])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trials must be >= 0" in captured.err


def test_zero_trials_allowed(capsys):
    code, out = run_cli(capsys, "verify", "--max-m", "2", "--suite", "catlie",
                        "--trials", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["suites"] == [{"name": "catlie", "pass": True, "cases": 6}]


def test_export_basis_ce_coords_are_exact(capsys):
    code, out = run_cli(capsys, "export-basis", "--m", "4", "--n", "1",
                        "--space", "ce", "--t", "2")
    assert code == 0
    exported = json.loads(out)["basis"]
    expected = cecomplex.ce_basis(4, 1, 2)
    assert len(exported) == len(expected)
    for item, x in zip(exported, expected):
        coords = {int(i): Fraction(num, den) for i, (num, den) in item["coords"].items()}
        assert coords == x.coords
