import argparse
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


# SHA-256 of the predict CSV bytes at eps 0.1, taken before the closed forms
# moved from numpy to Python floats; they cover the %.6f formatting path
PREDICT_GOLDEN = [
    ("ofc", [], 1000, "1998847c7ad4f87c9bec1d04f42b419dc9f863f9ac09110b01e052505e265231"),
    ("ofcnb", ["--gamma0", "0.01"], 1000, "aa49808d0b55851ff8bb2044a0d61e939be4358e0d0d4b76911afb15045cc0ad"),
    ("sofc", [], 1000, "832419006a6fb078ab69cae7de0040ddd0b1dc158c6bcbd782d214d2a66c688e"),
    ("ofc", [], 4096, "2730f246bfcddd2701d97f6cff6ed2413f4b421467b664fa0ce317db2174f9a6"),
    ("ofcnb", ["--gamma0", "0.01"], 4096, "eef173888ebc574dda9d704f2007c16f3270ec33fa1a52ed7bcd10e8d131e965"),
    ("sofc", [], 4096, "06f102a9da85e79ab90794091ae945f699cfb650ebcf03a879dd17b4dc6f6142"),
    ("ofc", [], 100000, "49148fb93402a779efb757ce1ecf1f1444c89173a9a81dea078ccd1e4d52bc10"),
    ("ofcnb", ["--gamma0", "0.01"], 100000, "86c5c195bd7f22a13ff0c18ccc83c8a004a632d4dc19753ad099c51468c38cc9"),
    ("sofc", [], 100000, "da8aa30f3aaf6de5492c53dd57e4bbd6cfe81dd54d2555f477979fdf7ad17692"),
]


@pytest.mark.parametrize("scheme,extra,k,digest", PREDICT_GOLDEN)
def test_golden_predict_csv(tmp_path, scheme, extra, k, digest):
    out = tmp_path / "curve.csv"
    assert run("predict", "--scheme", scheme, "--k", str(k), "--eps", "0.1", *extra, "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_sweep_exits_3_when_a_scheme_completes_no_trial_at_a_point(tmp_path, capsys):
    # at eps 0.985 about 45 of the 3000 budgeted symbols of a k=60 session arrive
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--k", "60", "--eps-list", "0.1,0.985", "--trials", "4",
               "--seed", "1", "--out", str(out)) == 3
    rows = out.read_text().strip().split("\n")
    assert rows[2] == "0.985000,nan,nan,nan"
    assert not math.isnan(float(rows[1].split(",")[1]))
    assert json.loads((tmp_path / "sweep.json").read_text())["k"] == 60
    assert "0.985" in capsys.readouterr().err


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


def test_bad_seed_env_is_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "e.csv"
    monkeypatch.setenv("FOUNTAIN_LAB_SEED", "abc")
    assert run("simulate", "--scheme", "sofc", "--k", "100", "--trials", "1", "--out", str(out)) == 2
    assert "FOUNTAIN_LAB_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", [
    ["simulate", "--scheme", "sofc", "--jobs", "-3"],
    ["compare", "--scheme", "sofc", "--jobs", "0"],
    ["sweep", "--eps-list", "0.1", "--jobs", "0"],
])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, cmd):
    out = tmp_path / "j.csv"
    assert run(*cmd, "--k", "20", "--trials", "1", "--out", str(out)) == 2
    assert "error: jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size,symbol_size", [(200_000, 70_000), (150_000, 200_000)])
def test_transfer_symbol_size_too_large_is_usage_error(tmp_path, capsys, size, symbol_size):
    src = tmp_path / "f.bin"
    src.write_bytes(random.Random(6).randbytes(size))
    assert run("transfer", "--in", str(src), "--scheme", "sofc",
               "--symbol-size", str(symbol_size)) == 2
    assert "error: symbol_size" in capsys.readouterr().err


def test_transfer_budget_exhausted_exit_code(tmp_path, capsys):
    src, dst = tmp_path / "f.bin", tmp_path / "f.out"
    src.write_bytes(random.Random(7).randbytes(4096))
    assert run("transfer", "--in", str(src), "--scheme", "sofc", "--eps", "0.99",
               "--seed", "1", "--symbol-size", "64", "--out", str(dst)) == 3
    assert "transfer failed: budget exceeded after" in capsys.readouterr().err
    assert not dst.exists()


def test_beta0_only_with_ofc(tmp_path, capsys):
    out = tmp_path / "b.csv"
    base = ["--k", "100", "--trials", "1", "--seed", "1", "--out", str(out)]
    for scheme in (["--scheme", "sofc"], ["--scheme", "ofcnb", "--gamma0", "0.1"]):
        assert run("simulate", *scheme, "--beta0", "0.9", *base) == 2
        assert f"--beta0 is not valid with --scheme {scheme[1]}" in capsys.readouterr().err
    assert not out.exists()
    assert run("simulate", "--scheme", "ofc", "--beta0", "0.9", *base) == 0
    assert run("simulate", "--scheme", "ofc", *base) == 0
    assert run("simulate", "--scheme", "sofc", *base) == 0


# Each subcommand parsed with only its required flags: today's defaults.
_REQUIRED_ONLY = {
    "predict": (["--scheme", "sofc", "--out", "o"],
                dict(scheme="sofc", gamma0=None, k=1000, eps=0.0, out="o")),
    "simulate": (["--scheme", "sofc", "--out", "o"],
                 dict(scheme="sofc", gamma0=None, k=1000, eps=0.0, seed=None, trials=200, jobs=1,
                      beta0=None, policy="every", delta_p=None, budget=None, out="o")),
    "compare": (["--scheme", "sofc", "--out", "o"],
                dict(scheme="sofc", gamma0=None, k=1000, eps=0.0, seed=None, trials=200, jobs=1,
                     policy="every", delta_p=None, out="o")),
    "sweep": (["--eps-list", "0.1", "--out", "o"],
              dict(k=1000, eps_list="0.1", trials=200, seed=None, jobs=1, out="o")),
    "transfer": (["--in", "f", "--scheme", "sofc"],
                 dict(infile="f", scheme="sofc", gamma0=None, eps=0.0, seed=None, symbol_size=1024,
                      policy="every", delta_p=None, out=None)),
}


@pytest.mark.parametrize("command", sorted(_REQUIRED_ONLY))
def test_subcommand_defaults(command):
    argv, expected = _REQUIRED_ONLY[command]
    args = vars(cli.build_parser().parse_args([command, *argv]))
    assert args.pop("command") == command
    assert args.pop("func") is getattr(cli, f"cmd_{command}")
    assert args == expected


def _subcommands():
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_shared_flags_show_one_help_string():
    helps: dict[str, set] = {}
    for name, sub in _subcommands().items():
        text = "".join(sub.format_help().split())
        for action in sub._actions:
            if name == "transfer" and action.dest == "out":
                continue   # an optional output of another kind
            assert action.help and "".join(action.help.split()) in text
            for flag in action.option_strings:
                helps.setdefault(flag, set()).add(action.help)
    shared = {flag: h for flag, h in helps.items() if flag in ("--k", "--eps", "--seed", "--trials", "--jobs", "--out")}
    assert len(shared) == 6
    assert all(len(h) == 1 for h in helps.values()), helps


@pytest.mark.parametrize("command", ["simulate", "compare", "transfer"])
def test_delta_p_only_with_threshold_policy(tmp_path, capsys, command):
    out = tmp_path / "d.csv"
    src = tmp_path / "f.bin"
    src.write_bytes(b"x" * 100)
    if command == "transfer":
        base = [command, "--scheme", "sofc", "--in", str(src), "--out", str(out)]
    else:
        base = [command, "--scheme", "sofc", "--k", "50", "--trials", "2", "--out", str(out)]
    for policy in ([], ["--policy", "every"]):
        assert run(*base, *policy, "--delta-p", "0.3") == 2
        assert "--delta-p is not valid with --policy every" in capsys.readouterr().err
    assert not out.exists()
    assert run(*base, "--policy", "threshold", "--delta-p", "0.3") == 0
    assert out.exists()


def test_compare_budget_majority_exit_code(tmp_path):
    # the same flags make simulate exit 3: every trial runs out of budget
    out = tmp_path / "starved.csv"
    argv = ("--scheme", "ofc", "--k", "10", "--eps", "0.98", "--trials", "8", "--seed", "0",
            "--out", str(out))
    assert run("simulate", *argv) == 3
    assert json.loads((tmp_path / "starved.json").read_text())["budget_exceeded_count"] == 8
    assert run("compare", *argv) == 3
    assert out.read_text().splitlines()[0] == "s,sent_mean,expected_n,rel_err"
    assert "max_rel_err" in json.loads((tmp_path / "starved.json").read_text())
