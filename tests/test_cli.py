"""Command-line surface: formats, exit codes, seeding, determinism."""

import hashlib
import json
import math
import shutil
import subprocess

import pytest

from qit.cli import run
from qit.laws import LawId
from qit.smb import SmbCurve

STICKY = "[[0.9,0.1],[0.1,0.9]]"


def test_entropy_prints_bare_value(capsys):
    assert run(["entropy", "--dist", "[0.5,0.5]", "--q", "0.5"]) == 0
    assert capsys.readouterr().out == "0.5857864376\n"
    assert run(["entropy", "--dist", "[0.5,0.5]", "--q", "2", "--family", "tsallis"]) == 0
    assert capsys.readouterr().out == "0.5\n"


def test_entropy_reads_dist_from_file(tmp_path, capsys):
    f = tmp_path / "d.json"
    f.write_text("[0.25, 0.25, 0.25, 0.25]")
    assert run(["entropy", "--dist", f"@{f}", "--q", "0.5"]) == 0
    assert capsys.readouterr().out == "1\n"
    missing = tmp_path / "missing.json"
    assert run(["entropy", "--dist", f"@{missing}", "--q", "0.5"]) == 2
    assert f"--dist: cannot read {missing}" in capsys.readouterr().err


def test_zero_entropies_print_as_zero(capsys):
    # a sure outcome has entropy +0, which prints "0", never "-0"
    assert run(["entropy", "--dist", "[1,0]", "--q", "0.5"]) == 0
    assert capsys.readouterr().out == "0\n"
    rc = run(["markov", "--transition", "[[1,0],[0,1]]", "--initial", "[1,0]", "--steps", "2", "--q", "0.5"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["1,0,0,0,0,0", "2,0,0,0,0,0"]
    rc = run([
        "smb", "--transition", "[[0.5,0.5,0],[0.5,0.5,0],[0,0,1]]", "--initial", "[0,0,1]",
        "--q", "0.75", "--n-max", "4", "--trajectories", "3",
    ])
    assert rc == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3 and all(row.endswith(",1,1,1,1,0,0") for row in rows)
    assert run(["measures", "--joint", "[[0.5,0],[0,0.5]]", "--q", "0.8"]) == 0
    h2 = json.loads(capsys.readouterr().out)["chain_terms"][1]
    assert h2 == 0.0 and math.copysign(1.0, h2) == 1.0


def test_malformed_json_reports_position(capsys):
    rc = run(["entropy", "--dist", "[0.5,]", "--q", "0.5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid JSON at line 1, column 6" in err


@pytest.mark.parametrize("text", ["5", '"p"', "null", '{"q":[1]}'])
@pytest.mark.parametrize("argv,key", [(["entropy", "--dist"], "p"), (["measures", "--joint"], "table")])
def test_container_json_of_the_wrong_form_exits_2(capsys, argv, key, text):
    assert run(argv + [text, "--q", "0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and f'an object with a "{key}" array' in captured.err
    assert "Traceback" not in captured.err


def test_domain_errors_exit_2(capsys):
    assert run(["entropy", "--dist", "[0.5,0.6]", "--q", "0.5"]) == 2  # mass 1.1
    assert "error:" in capsys.readouterr().err
    rc = run(["maxent", "--levels", "[0,1,2]", "--target-mean", "2.5", "--q", "0.5"])
    assert rc == 2
    assert "strictly inside" in capsys.readouterr().err


def test_measures_joint_table(capsys):
    rc = run(["measures", "--joint", "[[0.25,0.25],[0.25,0.25]]", "--q", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mutual_information"] == pytest.approx(0.0, abs=1e-12)
    assert out["joint_entropy"] == pytest.approx(1.0, abs=1e-12)
    assert len(out["chain_terms"]) == 2
    assert len(out["marginal_entropies"]) == 2
    assert "generated_at" in out["meta"]
    # a rank-3 table swaps in the conditional variant
    tripod = "[[[0.125,0.125],[0.125,0.125]],[[0.125,0.125],[0.125,0.125]]]"
    assert run(["measures", "--joint", tripod, "--q", "0.8"]) == 0
    out3 = json.loads(capsys.readouterr().out)
    assert "conditional_mutual_information" in out3
    assert "mutual_information" not in out3


def test_measures_divergence_pair(capsys):
    rc = run(["measures", "--p", "[1,0]", "--r", "[0.5,0.5]", "--q", "0.5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relative_entropy"] == pytest.approx(0.8284271247461903, abs=1e-12)
    assert run(["measures", "--q", "0.5"]) == 2
    capsys.readouterr()
    assert run(["measures", "--joint", "[[0.5],[0.5]]", "--p", "[1]", "--r", "[1]", "--q", "0.5"]) == 2
    capsys.readouterr()


def test_fuzz_csv_report_is_frozen_by_seed(capsys):
    rc = run(["fuzz", "--law", "qln-sum", "--trials", "50", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "law,trials,min_slack,mean_slack,violations,seed"
    assert lines[1] == "qln-sum,50,0.05706370022,4.057089236,0,3"


def test_fuzz_csv_pins_every_law(capsys):
    assert run(["fuzz", "--law", "all", "--trials", "200", "--seed", "3", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "joint-chain,200,0.007325724585,0.281455517,0,3",
        "indep-superadd,200,0.000388924461,0.2445351911,0,3",
        "cond-chain,200,0.00318857289,0.1886390605,0,3",
        "block-chain,200,0.004510643942,0.5135149451,0,3",
        "qln-sum,200,0.001124143081,5.505410186,0,3",
        "dq-nonneg,200,7.741511539e-05,0.9115889989,0,3",
        "max-bound,200,0.0005970077635,0.2864714452,0,3",
        "dpi,200,1.288624738e-05,0.1651208857,0,3",
        "info-chain-rule,200,-3.191891196e-16,-9.424842113e-17,0,3",
        "rel-chain-rule,200,-1.705302566e-13,-1.36123453e-15,0,3",
    ]


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--trials", "1000", "--seed", "7"],
            "eec7bffbac79838e6eeae3554371ed0e78fe8b583cfb20f9282a0bf4e71a22af",
        ),
        (
            ["--trials", "300", "--seed", "11", "--q-range", "0.3", "0.7"],
            "f5f9a1ce4226c02f076673361dc1e1dd436a53ec76dabd3dcecf5634e88f2b6d",
        ),
    ],
)
def test_fuzz_json_bytes_match_their_pin(capsys, args, digest):
    # full precision: a last-bit move in any slack, q mean or worst shape shows
    assert run(["fuzz", "--law", "all", *args, "--format", "json", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fuzz_all_covers_every_law(capsys):
    rc = run(["fuzz", "--law", "all", "--trials", "5", "--seed", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(list(LawId))
    assert all(line.endswith(",0,0") for line in lines[1:])  # no violations


def test_fuzz_violations_exit_3(capsys):
    # an absurd threshold (violation when slack < 1) flips the exit status
    rc = run(["fuzz", "--law", "qln-sum", "--trials", "10", "--seed", "0", "--tol", "-1"])
    assert rc == 3
    lines = capsys.readouterr().out.splitlines()
    assert int(lines[1].split(",")[4]) > 0


@pytest.mark.parametrize(
    "flags",
    [
        ["--law", "joint-chain", "--q-range", "nan", "0.5"],
        ["--law", "joint-chain", "--q-range", "0.2", "nan"],
        ["--law", "qln-sum", "--tol", "nan"],
        ["--law", "qln-sum", "--tol", "inf"],
    ],
)
def test_fuzz_nan_q_bound_or_non_finite_tol_exits_2(capsys, flags):
    assert run(["fuzz", *flags, "--trials", "5", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_fuzz_json_format(capsys):
    rc = run(["fuzz", "--law", "dq-nonneg", "--trials", "20", "--seed", "1", "--format", "json", "--deterministic"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"] == {"deterministic": True, "seed": 1}
    (report,) = payload["reports"]
    assert report["law"] == "dq-nonneg"
    assert report["violations"] == 0
    assert report["q_range"] == [0.0, 2.0]


def test_fuzz_workers_flag_is_a_no_op(capsys):
    argv = ["fuzz", "--law", "all", "--trials", "30", "--seed", "7"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + ["--workers", "1"]) == 0
    assert capsys.readouterr().out == plain
    assert run(argv + ["--workers", "4"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_env_seed_takes_precedence(capsys, monkeypatch):
    monkeypatch.setenv("QIT_SEED", "3")
    rc = run(["fuzz", "--law", "qln-sum", "--trials", "50", "--seed", "99"])
    assert rc == 0
    env_out = capsys.readouterr().out
    monkeypatch.delenv("QIT_SEED")
    run(["fuzz", "--law", "qln-sum", "--trials", "50", "--seed", "3"])
    assert env_out == capsys.readouterr().out
    monkeypatch.setenv("QIT_SEED", "not-a-number")
    assert run(["fuzz", "--law", "qln-sum", "--trials", "5"]) == 2
    assert "QIT_SEED" in capsys.readouterr().err


def test_markov_csv_rows(capsys):
    rc = run(["markov", "--transition", STICKY, "--initial", "[1,0]", "--steps", "5", "--q", "0.8"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,H_q,delta_H,T_q,lhs,slack"
    assert len(lines) == 6
    assert lines[1] == "1,0.2783536971,0.2783536971,-0.06853275642,0.319744434,0.3882771904"


def test_markov_json_format(capsys):
    rc = run(["markov", "--transition", STICKY, "--steps", "3", "--q", "0.5", "--format", "json", "--deterministic"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["applicable"] is True
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["step"] == 1
    assert payload["rows"][0]["ds_deviation"] == 0.0


def test_maxent_solution_and_verification(capsys):
    rc = run(["maxent", "--levels", "[0,1,2]", "--target-mean", "0.5", "--q", "0.5", "--verify", "50", "--deterministic"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    sol = payload["solution"]
    assert sol["p"] == pytest.approx(
        [0.6007858820798255, 0.29842823584034917, 0.1007858820798254], abs=1e-10
    )
    assert sol["support"] == [0, 1, 2]
    assert sol["dropped"] == []
    assert payload["optimality"]["min_gap"] >= -1e-9
    assert payload["optimality"]["trials"] == 50
    assert run(["maxent", "--levels", "[0,1,2]", "--q", "0.5"]) == 2  # no target
    capsys.readouterr()
    assert run(["maxent", "--levels", "[0,1,2]", "--target-mean", "0.05", "--q", "0.5"]) == 0
    sol = json.loads(capsys.readouterr().out)["solution"]
    assert (sol["support"], sol["dropped"]) == ([0, 1], [2])


@pytest.mark.parametrize(
    "args, digest",
    [
        (  # gate 8's maxent campaign
            ["--levels", "[0,1,2]", "--target-mean", "0.5", "--q", "0.5", "--verify", "100"],
            "47ecdc155658d86e49b45094e378b46b932bd1f5cd5b2f0a7151af4f6c407cc9",
        ),
        (  # five levels cut to two, so competitors have zero cells; odd m and trials
            ["--levels", "[0,1,2,3,4]", "--target-mean", "3.92", "--q", "0.3", "--verify", "101"],
            "6d6e144a771f3ba0ae931f8927fe47f3a1c9323961c623764f3bede837073607",
        ),
    ],
)
def test_maxent_verification_bytes_match_their_pin(capsys, args, digest):
    assert run(["maxent", *args, "--seed", "7", "--deterministic"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--sweep", "3", "--verify", "100"], "not both"),
        (["--sweep", "3", "--target-mean", "1.9"], "not both"),
        (["--sweep", "3", "--verify", "100", "--target-mean", "1.9"], "not both"),
        (["--target-mean", "0.5", "--verify", "0"], "--verify must be >= 1"),
        (["--sweep", "0"], "--sweep must be >= 1"),
    ],
)
def test_maxent_rejects_flags_it_would_drop(capsys, extra, message):
    assert run(["maxent", "--levels", "[0,1,2]", "--q", "0.5"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["markov", "--transition", '{"a":1}', "--steps", "2", "--q", "0.5"],
        ["entropy", "--dist", '{"p":{"a":1}}', "--q", "0.5"],
        ["measures", "--joint", "[[0.5,{}],[0.25,0.25]]", "--q", "0.5"],
        ["smb", "--transition", '{"a":1}', "--q", "0.5", "--n-max", "4", "--trajectories", "2"],
        ["maxent", "--levels", '{"a":1}', "--q", "0.5", "--sweep", "3"],
    ],
)
def test_non_numeric_json_exits_2(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "must be numeric" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("levels", ["[]", "[[0,1],[2,3]]"])
def test_maxent_sweep_checks_the_levels_first(capsys, levels):
    assert run(["maxent", "--levels", levels, "--q", "0.5", "--sweep", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: levels must be a non-empty 1-D array\n"


def test_maxent_sweep_csv(capsys):
    rc = run(["maxent", "--levels", "[0,1,2]", "--q", "0.5", "--sweep", "6"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "target,lambda,mu,entropy,support_size"
    assert len(lines) == 7
    mus = [float(line.split(",")[2]) for line in lines[1:]]
    assert mus == sorted(mus, reverse=True)  # multiplier falls as the target rises
    assert run(["maxent", "--levels", "[0,1,2]", "--q", "0.5", "--sweep", "0"]) == 2
    capsys.readouterr()


def test_smb_csv_to_file(tmp_path):
    out = tmp_path / "probe.csv"
    rc = run([
        "smb", "--transition", STICKY, "--q", "0.75",
        "--n-max", "16", "--trajectories", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SmbCurve.CSV_HEADER
    assert len(lines) == 6  # n in {1, 2, 4, 8, 16}


def test_smb_initial_picks_the_stationary_law_of_a_reducible_chain(capsys):
    # states {0, 1} and {2} are closed classes: the stationary law the probe
    # starts from is the one the search reaches from --initial
    rows = {}
    for initial in ("[1,0,0]", "[0,0,1]"):
        rc = run([
            "smb", "--transition", "[[0.5,0.5,0],[0.5,0.5,0],[0,0,1]]", "--initial", initial,
            "--q", "0.75", "--n-max", "4", "--trajectories", "3",
        ])
        assert rc == 0
        rows[initial] = capsys.readouterr().out.splitlines()[1].split(",")
    assert rows["[1,0,0]"][1] == "0.636414339"  # block_mean at n = 1: a fair coin
    assert rows["[0,0,1]"][1] == "0"  # state 2 forever


def test_deterministic_reruns_are_byte_identical(tmp_path):
    args = [
        "smb", "--transition", STICKY, "--q", "0.75", "--n-max", "8",
        "--trajectories", "4", "--format", "json", "--deterministic",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert "generated_at" not in payload["meta"]
    # without the flag a timestamp appears
    c = tmp_path / "c.json"
    assert run(args[:-1] + ["--out", str(c)]) == 0
    assert "generated_at" in json.loads(c.read_text())["meta"]


def test_help_and_usage_errors():
    assert run(["--help"]) == 0
    assert run([]) == 2  # a subcommand is required
    assert run(["no-such-command"]) == 2


def test_installed_entry_point_roundtrip():
    exe = shutil.which("qit")
    assert exe is not None, "console script was not installed"
    proc = subprocess.run(
        [exe, "entropy", "--dist", "[0.5,0.5]", "--q", "0.75"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0.636414339\n"
