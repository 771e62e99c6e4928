import dataclasses
import hashlib
import json
import math
import random

import pytest

from fountain_lab import cli
from fountain_lab.wire import DataFrame, decode_frame


def run(*argv):
    return cli.main(list(argv))


def test_predict_systematic_identity(tmp_path):
    out = tmp_path / "curve.csv"
    assert run("predict", "--scheme", "sofc", "--k", "12", "--eps", "0", "--out", str(out)) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,expected_n"
    assert lines[1] == "1,1.000000"
    assert lines[12] == "12,12.000000"


def test_predict_half_recovery_row(tmp_path):
    out = tmp_path / "curve.csv"
    assert run("predict", "--scheme", "ofcnb", "--k", "1000", "--gamma0", "0.01",
               "--eps", "0", "--out", str(out)) == 0
    row = out.read_text().strip().split("\n")[500]
    s, expected = row.split(",")
    assert s == "500"
    assert abs(float(expected) - 1000 * math.log(2)) / (1000 * math.log(2)) < 0.01


def test_predict_flag_validation(tmp_path):
    out = tmp_path / "x.csv"
    assert run("predict", "--scheme", "sofc", "--gamma0", "0.3", "--out", str(out)) == 2
    assert run("predict", "--scheme", "ofcnb", "--out", str(out)) == 2
    assert run("predict", "--scheme", "ofc", "--gamma0", "0.1", "--out", str(out)) == 2


def test_predict_rejects_fewer_than_two_symbols(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for argv in (("--scheme", "ofc", "--k", "0"), ("--scheme", "ofc", "--k", "-5"),
                 ("--scheme", "ofcnb", "--gamma0", "0.01", "--k", "1")):
        assert run("predict", *argv, "--out", str(out)) == 2
        assert "k >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        run("predict", "--scheme", "sofc", "--nope", "1", "--out", str(tmp_path / "x.csv"))
    assert e.value.code == 2


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--scheme", "sofc", "--k", "150", "--eps", "0.1",
            "--trials", "1", "--seed", "7"]
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_simulate_summary_contents(tmp_path):
    out = tmp_path / "agg.csv"
    assert run("simulate", "--scheme", "ofcnb", "--gamma0", "0.3", "--k", "200",
               "--eps", "0", "--trials", "3", "--seed", "1", "--out", str(out)) == 0
    summary = json.loads((tmp_path / "agg.json").read_text())
    assert summary["budget_exceeded_count"] == 0
    assert summary["overhead_mean"] > 1.0
    assert summary["config"]["scheme"] == "ofcnb"


def test_simulate_threshold_policy(tmp_path):
    out = tmp_path / "thr.csv"
    assert run("simulate", "--scheme", "sofc", "--k", "256", "--eps", "0.1",
               "--policy", "threshold", "--delta-p", "0.01",
               "--trials", "5", "--seed", "2", "--out", str(out)) == 0
    assert out.read_text().startswith("scheme,k,eps,gamma0,policy,trial_or_agg")
    assert ",threshold-0.01,agg," in out.read_text()


def test_compare_reports_error_band(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run("compare", "--scheme", "ofcnb", "--gamma0", "0.3", "--k", "300",
               "--eps", "0", "--trials", "8", "--seed", "3", "--out", str(out)) == 0
    report = json.loads((tmp_path / "cmp.json").read_text())
    assert 0 <= report["mean_rel_err"] <= report["max_rel_err"] < 1.0
    assert out.read_text().splitlines()[0] == "s,sent_mean,expected_n,rel_err"


def test_sweep_sign_pattern(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--k", "200", "--eps-list", "0.1,0.5", "--trials", "8",
               "--seed", "4", "--out", str(out)) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "eps,sofc_mean_sent,ofc_mean_sent,diff"
    assert float(rows[1].split(",")[3]) < 0
    assert float(rows[2].split(",")[3]) > 0
    assert json.loads((tmp_path / "sweep.json").read_text())["crossover"] is not None


def test_sweep_requires_eps_list(tmp_path):
    assert run("sweep", "--eps-list", "", "--out", str(tmp_path / "s.csv")) == 2


def test_transfer_round_trip(tmp_path):
    src = tmp_path / "f.bin"
    dst = tmp_path / "f.out"
    data = random.Random(5).randbytes(9000)
    src.write_bytes(data)
    assert run("transfer", "--in", str(src), "--scheme", "sofc", "--eps", "0",
               "--seed", "1", "--symbol-size", "512", "--out", str(dst)) == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == hashlib.sha256(data).hexdigest()


def test_simulate_budget_majority_exit_code(tmp_path):
    out = tmp_path / "starved.csv"
    code = run("simulate", "--scheme", "sofc", "--k", "100", "--eps", "0.6",
               "--trials", "4", "--seed", "1", "--budget", "110", "--out", str(out))
    assert code == 3
    summary = json.loads((tmp_path / "starved.json").read_text())
    assert summary["budget_exceeded_count"] > 2


def test_transfer_missing_input_is_io_error(tmp_path):
    assert run("transfer", "--in", str(tmp_path / "missing.bin"),
               "--scheme", "sofc") == 4


def test_transfer_payload_mismatch_exit_code(tmp_path, monkeypatch, capsys):
    # a payload corrupted after the frame checks is a documented failure
    def flip_seq3(buf):
        frame = decode_frame(buf)
        if isinstance(frame, DataFrame) and frame.seq_no == 3:
            payload = bytes([frame.payload[0] ^ 0xFF]) + frame.payload[1:]
            return dataclasses.replace(frame, payload=payload)
        return frame

    monkeypatch.setattr("fountain_lab.wire.decode_frame", flip_seq3)
    src, dst = tmp_path / "f.bin", tmp_path / "f.out"
    src.write_bytes(random.Random(4).randbytes(4096))
    assert run("transfer", "--in", str(src), "--scheme", "sofc", "--eps", "0.1",
               "--seed", "2", "--symbol-size", "64", "--out", str(dst)) == 5
    assert "transfer failed: recovered payload mismatch" in capsys.readouterr().err
    assert not dst.exists()


def test_seed_env_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    monkeypatch.setenv("FOUNTAIN_LAB_SEED", "99")
    run("simulate", "--scheme", "sofc", "--k", "100", "--eps", "0.1",
        "--trials", "1", "--out", str(out1))
    monkeypatch.delenv("FOUNTAIN_LAB_SEED")
    run("simulate", "--scheme", "sofc", "--k", "100", "--eps", "0.1",
        "--trials", "1", "--seed", "99", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
