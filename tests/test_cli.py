import json
import hashlib
import os
import signal
import subprocess
import sys
import time

import pytest

import twostage

# the subprocess imports the package from the same tree as this test run
SRC = os.path.dirname(os.path.dirname(twostage.__file__))


def cli_env(env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, full_env.get("PYTHONPATH")]))
    full_env.setdefault("TWOSTAGE_THREADS", "1")
    if env:
        full_env.update(env)
    return full_env


def cli_process(args, out, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "twostage", *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=cli_env(env),
        timeout=timeout,
    )


def run_cli(args, tmp_path, out_name, env=None, expect=0):
    out = tmp_path / out_name
    proc = cli_process(args, out, env)
    assert proc.returncode == expect, f"exit {proc.returncode}: {proc.stderr}"
    return out.read_bytes() if out.exists() else b""


SIM_ARGS = [
    "simulate", "--kind", "contact", "--d", "2", "--lambda", "0.9",
    "--gamma", "1", "--delta", "1", "--replicas", "40", "--horizon", "8",
    "--radius", "8", "--seed", "7",
]


def test_simulate_deterministic_bytes(tmp_path):
    a = run_cli(SIM_ARGS, tmp_path, "a.csv")
    b = run_cli(SIM_ARGS, tmp_path, "b.csv")
    assert a == b
    text = a.decode()
    assert "# seed=7" in text
    assert "replica,survived,extinction_time,peak_active,event_count" in text
    assert len([l for l in text.splitlines() if not l.startswith("#")]) == 41


def test_simulate_takes_the_proxy_defaults_of_its_dimension(tmp_path):
    # the same horizon, cap and radius defaults as sweep, bisect and trend
    base = ["simulate", "--d", "10", "--lambda", "0.01", "--replicas", "2", "--seed", "1"]
    out = run_cli(base, tmp_path, "box.csv").decode()
    meta = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
    assert (meta["horizon"], meta["cap"], meta["radius"]) == ("100.0", "2000", "50")
    out = run_cli([*base, "--geometry", "torus", "--side", "3"], tmp_path, "torus.csv").decode()
    meta = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
    assert (meta["horizon"], meta["cap"]) == ("100.0", "2000")
    assert "radius" not in meta


def test_validation_error_exit_code(tmp_path):
    run_cli(
        ["simulate", "--kind", "contact", "--d", "2", "--lambda", "-1", "--replicas", "5"],
        tmp_path,
        "bad.csv",
        expect=2,
    )


BRACKET_FAIL_ARGS = [
    "bisect", "--d", "2", "--gamma", "1", "--delta", "1",
    "--lambda-max", "0.8", "--bracket-replicas", "40", "--probe-replicas", "40",
    "--cap", "80", "--horizon", "5", "--radius", "6", "--seed", "1",
]


def test_bracket_error_exit_code(tmp_path):
    run_cli(BRACKET_FAIL_ARGS, tmp_path, "bracket.csv", expect=3)


def test_short_horizon_bracket_error_names_the_proxy(tmp_path):
    # survival is 0.15 at the lower bound because replicas alive at t=5 count
    args = [
        "trend", "--d-list", "4", "--horizon", "5",
        "--probe-replicas", "20", "--bracket-replicas", "40", "--seed", "1",
    ]
    proc = cli_process(args, tmp_path / "short.csv")
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert "already at the lower bound" in proc.stderr
    assert "alive-at-horizon proxy (horizon=5.0,cap=5000,box_radius=50)" in proc.stderr
    assert "still active at the horizon" in proc.stderr
    assert "longer --horizon" in proc.stderr
    assert not (tmp_path / "short.csv").exists()


def test_failed_run_leaves_existing_out_intact(tmp_path):
    before = b"# an earlier result\nd,lambda\n2,0.9\n"
    (tmp_path / "kept.csv").write_bytes(before)
    assert run_cli(BRACKET_FAIL_ARGS, tmp_path, "kept.csv", expect=3) == before
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]


def test_symlinked_out_updates_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "real.csv"
    target.write_bytes(b"old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    out = run_cli(SIM_ARGS, tmp_path, "link.csv")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == out and out.startswith(b"# ")
    run_cli(BRACKET_FAIL_ARGS, tmp_path, "link.csv", expect=3)
    assert link.is_symlink() and target.read_bytes() == out
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "link.csv", "real.csv"]


def test_unwritable_out_is_a_validation_error(tmp_path):
    run_cli(SIM_ARGS, tmp_path, "missing/out.csv", expect=2)


def test_sweep_columns_and_determinism(tmp_path):
    args = [
        "sweep", "--kind", "contact", "--d", "2", "--lambdas", "0.4,0.9",
        "--gamma", "1", "--delta", "1", "--replicas", "60",
        "--horizon", "6", "--cap", "60", "--radius", "6", "--seed", "3",
    ]
    a = run_cli(args, tmp_path, "s1.csv")
    b = run_cli(args, tmp_path, "s2.csv")
    assert a == b
    lines = [l for l in a.decode().splitlines() if not l.startswith("#")]
    assert lines[0] == "d,lambda,trials,survivals,p_hat,ci_low,ci_high"
    assert len(lines) == 3


def test_sweep_forks_one_pool_for_all_its_rates(tmp_path, pools):
    import multiprocessing

    from twostage import cli

    args = [
        "sweep", "--d", "2", "--lambdas", "0.5,1,1.5", "--replicas", "60",
        "--horizon", "5", "--radius", "5", "--seed", "3",
    ]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"sweep-{threads}.csv"
        assert cli.main([*args, "--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(pools) == 1
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


# command -> (arguments, pools forked at --threads 2): every command runs
# in main's one scope, whose pool forks when first needed; the sweep's
# pool is counted above
POOL_COMMANDS = {
    "simulate": (SIM_ARGS, 1),
    "bisect": (["bisect", "--d", "2", "--tol", "0.2", "--bracket-replicas", "60",
                "--probe-replicas", "40", "--cap", "150", "--horizon", "25", "--radius", "10",
                "--seed", "5"], 1),
    "bisect-one-replica": (["bisect", "--d", "2", "--bracket-replicas", "1", "--probe-replicas", "1",
                            "--cap", "150", "--horizon", "25", "--radius", "10"], 0),
    "trend": (["trend", "--d-list", "2,3", "--probe-replicas", "40", "--bracket-replicas", "60",
               "--cap", "150", "--horizon", "25", "--radius", "10", "--seed", "8"], 1),
    "ode": (["ode", "--d", "3", "--lambda", "0.1"], 0),
    "sawbound": (["sawbound", "--d", "12", "--theta", "1.5", "--n-max", "40", "--replicas", "10"], 0),
    "oracle-check": (["oracle-check", "--replicas", "500", "--seed", "11"], 0),
}


@pytest.mark.parametrize("command", list(POOL_COMMANDS))
def test_each_command_forks_its_pools_from_one_thread(tmp_path, pools, command):
    # the pools fixture fails a fork made while other threads run, as a
    # trend's would be if it forked after starting its bisection threads
    import multiprocessing

    from twostage import cli

    args, forked = POOL_COMMANDS[command]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.out"
        assert cli.main([*args, "--threads", threads, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        assert len(pools) == (forked if threads == "2" else 0)
    assert outputs[0] == outputs[1]
    assert multiprocessing.active_children() == []


def test_bisect_emits_probes_and_result(tmp_path):
    args = [
        "bisect", "--d", "2", "--gamma", "1", "--delta", "1",
        "--tol", "0.1", "--bracket-replicas", "150", "--probe-replicas", "100",
        "--cap", "150", "--horizon", "25", "--radius", "10", "--seed", "5",
        "--format", "jsonl",
    ]
    a = run_cli(args, tmp_path, "b1.jsonl")
    b = run_cli(args, tmp_path, "b2.jsonl")
    assert a == b
    records = [json.loads(line) for line in a.decode().splitlines()]
    kinds = [r.get("record") for r in records]
    assert kinds[0] == "meta"
    probes = [r for r in records if r.get("record") == "probe"]
    results = [r for r in records if r.get("record") == "result"]
    assert len(probes) >= 3
    assert len(results) == 1
    assert results[0]["lambda_hat"] is not None


def test_trend_emits_target_constant(tmp_path):
    args = [
        "trend", "--kind", "contact", "--d-list", "2", "--gamma", "1", "--delta", "1",
        "--probe-replicas", "80", "--bracket-replicas", "120",
        "--cap", "150", "--horizon", "25", "--radius", "10", "--seed", "2",
    ]
    out = run_cli(args, tmp_path, "t.csv").decode()
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "d,lambda_hat,scaled,target"
    assert lines[1].endswith(",3.0")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trend_output_golden(tmp_path, threads):
    # the box proxy at d = 4, 8 with tiny replica counts; recorded when
    # each draw window held its uniforms, then its exponentials
    args = [
        "trend", "--d-list", "4,8", "--gamma", "1", "--delta", "1", "--eps", "0.05",
        "--probe-replicas", "20", "--bracket-replicas", "60",
        "--horizon", "60", "--cap", "800", "--radius", "20", "--seed", "3", "--threads", threads,
    ]
    out = run_cli(args, tmp_path, "trend.csv")
    assert hashlib.sha256(out).hexdigest() == (
        "72d4a21a231ebc32be426b5520f4cede6402244bb4ad265799ba7c20a1198888"
    )


def test_interrupted_trend_exits_promptly_and_leaves_no_process(tmp_path):
    # the dimensions bisect in threads that share one pool; after Ctrl-C
    # terminates the pool, a thread still waiting on it must not keep the
    # process alive, and no worker may outlive the process.  The workers
    # ignore the SIGINT that reaches the whole group, and the parent says
    # so in one line and exits 130
    out = tmp_path / "trend.csv"
    args = ["trend", "--d-list", "4,6,8", "--threads", "2", "--out", str(out)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "twostage", *args],
        env=cli_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    group = proc.pid
    try:
        time.sleep(1.0)
        assert proc.poll() is None, "the trend ended before the interrupt"
        os.killpg(group, signal.SIGINT)
        try:
            _, stderr = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            pytest.fail("still running 10 s after SIGINT")
        assert proc.returncode == 130, stderr
        assert stderr.splitlines() == ["twostage: interrupted"]
        assert list(tmp_path.iterdir()) == []
        # the reaped workers leave the group empty
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(group, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "a process of the trend outlived it"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_bisect_output_golden(tmp_path, threads):
    # recorded when each draw window held its uniforms, then its
    # exponentials; lambda_hat 0.984375
    args = [
        "bisect", "--d", "2", "--gamma", "1", "--delta", "1", "--tol", "0.1",
        "--bracket-replicas", "150", "--probe-replicas", "100", "--cap", "150",
        "--horizon", "25", "--radius", "10", "--seed", "5", "--threads", threads,
    ]
    out = run_cli(args, tmp_path, "bisect.csv")
    assert hashlib.sha256(out).hexdigest() == (
        "0695793b61937c72f78892e03d24235ab119340be245b3460f74746ddd9e0e99"
    )


# id -> (arguments, sha256 of the output): small runs of the commands and
# formats the goldens above leave out; recorded when each draw window held
# its uniforms, then its exponentials, and ode-jsonl and trend-jsonl again
# when their metadata began to write list options as JSON arrays
OUTPUT_GOLDENS = {
    "simulate-csv": (
        ["simulate", "--d", "3", "--lambda", "0.4", "--replicas", "30", "--horizon", "10",
         "--radius", "6", "--seed", "21"],
        "157d33ba5320b7d35613af52e9b71c40e91ee7a92d2fd223ad72e2c2b1a59985",
    ),
    "simulate-jsonl": (
        ["simulate", "--kind", "sir", "--d", "2", "--lambda", "0.8", "--geometry", "torus",
         "--side", "5", "--replicas", "20", "--horizon", "10", "--seed", "22", "--format", "jsonl"],
        "206277a364f7fd7eae697a1d0111ae37c21872e43e30468cce70581caf2ad2e2",
    ),
    "sweep-csv": (
        ["sweep", "--d", "2", "--lambdas", "0.5,1", "--replicas", "60", "--horizon", "5",
         "--cap", "100", "--radius", "5", "--seed", "23"],
        "3918fca071273dca0e9a19c114e3f543b22317f789debf0a2721cdd5d7713c2a",
    ),
    "ode-csv": (
        ["ode", "--d", "4", "--lambda", "0.2", "--times", "0,1,3"],
        "148e24887416c7e10a19d1559c829d36a5cd9ffdc71f19b06b0188b23debaec1",
    ),
    "ode-jsonl": (
        ["ode", "--d", "6", "--lambda", "0.15", "--gamma", "2", "--delta", "0.5", "--format", "jsonl"],
        "d96bb2f8ef8ecf7c1c5251780753a81f48d9aa8e5fc5266ec4ead16ca06c7339",
    ),
    "sawbound-jsonl": (
        ["sawbound", "--d", "8", "--theta", "1.5", "--n-max", "60", "--replicas", "40", "--seed", "24"],
        "01ed67cdf71d32fa62f676100920a7f7e2b0a78ec3cf3c9a8c79e0ff42a5c483",
    ),
    "sawbound-csv": (
        ["sawbound", "--d", "6", "--lambda", "0.2", "--n-max", "40", "--replicas", "30",
         "--seed", "25", "--format", "csv"],
        "565a813661564bd9cbd31c49a87801c779f73a53c26a784f9a8f6c5e8fc1e3e8",
    ),
    # probe rows leave the result columns null and the result row the probe columns
    "bisect-jsonl": (
        ["bisect", "--d", "2", "--tol", "0.2", "--bracket-replicas", "60", "--probe-replicas", "40",
         "--cap", "100", "--horizon", "15", "--radius", "8", "--seed", "26", "--format", "jsonl"],
        "1fb1a0fbd5395ff47620d77687caf59f5c964603b62b4e03e30bc8a55e5ce7ff",
    ),
    "trend-jsonl": (
        ["trend", "--d-list", "2,3", "--gamma", "2", "--delta", "0.5", "--probe-replicas", "40",
         "--bracket-replicas", "80", "--cap", "120", "--horizon", "20", "--radius", "8",
         "--seed", "27", "--format", "jsonl"],
        "4dc4acd0c9dbd04da5eee06fcb077f745a70c28d03fdab9f5bcbc657f45d56e1",
    ),
}


@pytest.mark.parametrize("case", list(OUTPUT_GOLDENS))
def test_command_output_golden(tmp_path, case):
    args, digest = OUTPUT_GOLDENS[case]
    out = run_cli(args, tmp_path, "golden.out")
    assert hashlib.sha256(out).hexdigest() == digest


# id -> (arguments, the list option's key and its values as given)
LIST_OPTIONS = {
    "trend": (OUTPUT_GOLDENS["trend-jsonl"][0], "d_list", [2, 3]),
    "sweep": (
        ["sweep", "--d", "2", "--lambdas", "0.5,1", "--replicas", "20", "--horizon", "5",
         "--cap", "100", "--radius", "5", "--format", "jsonl"],
        "lambdas", [0.5, 1.0],
    ),
    "ode": (["ode", "--d", "3", "--lambda", "0.1", "--times", "0,1.5", "--format", "jsonl"],
            "times", [0.0, 1.5]),
}


@pytest.mark.parametrize("command", list(LIST_OPTIONS))
def test_jsonl_metadata_parses_back_to_the_given_lists(tmp_path, command):
    # a list option was once written as the string of its Python repr
    args, key, values = LIST_OPTIONS[command]
    meta = json.loads(run_cli(args, tmp_path, "meta.jsonl").decode().splitlines()[0])
    assert meta["record"] == "meta"
    assert meta[key] == values


def test_trend_records_effective_proxy_per_dimension(tmp_path):
    # a horizon override keeps each dimension's default cap (2000 at d >= 10)
    args = [
        "trend", "--d-list", "4,10", "--horizon", "5", "--eps", "0.5",
        "--probe-replicas", "20", "--bracket-replicas", "40", "--seed", "1",
    ]
    out = run_cli(args, tmp_path, "tp.csv").decode()
    meta = dict(line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# "))
    assert meta["proxy_d4"] == "horizon=5.0,cap=5000,box_radius=50"
    assert meta["proxy_d10"] == "horizon=5.0,cap=2000,box_radius=50"
    assert not {"horizon", "cap", "radius"} & meta.keys()
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "d,lambda_hat,scaled,target"
    assert [l.split(",")[0] for l in lines[1:]] == ["4", "10"]


def test_ode_reports_threshold_eigenvalue(tmp_path):
    args = ["ode", "--d", "5", "--lambda", "0.3", "--gamma", "1", "--delta", "1", "--seed", "0"]
    out = run_cli(args, tmp_path, "ode.csv").decode()
    meta = dict(
        line[2:].split("=", 1) for line in out.splitlines() if line.startswith("# ")
    )
    assert abs(float(meta["max_real_eigenvalue"])) < 1e-12
    assert meta["subcritical"] == "false"
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "t,zeta_mean,theta_mean"


def test_sawbound_with_theta(tmp_path):
    args = [
        "sawbound", "--d", "12", "--theta", "1.5", "--gamma", "1", "--delta", "1",
        "--n-max", "200", "--replicas", "300", "--seed", "11", "--format", "jsonl",
    ]
    a = run_cli(args, tmp_path, "sb.jsonl")
    assert a == run_cli(args, tmp_path, "sb2.jsonl")
    records = [json.loads(line) for line in a.decode().splitlines()]
    meta = records[0]
    assert meta["resolved_lambda"] == pytest.approx(1.5 * 3.0 / 24.0)
    convergence = [r for r in records if r.get("record") == "convergence"]
    result = [r for r in records if r.get("record") == "result"]
    assert len(convergence) == 3
    assert len(result) == 1
    assert result[0]["mean_weight"] is not None
    assert 0.0 < result[0]["bound"] <= 1.0


def test_sawbound_jsonl_writes_null_for_non_finite_values(tmp_path):
    # lambda near 0 overflows every weight: the mean is inf and its se nan,
    # which JSON cannot hold
    args = [
        "sawbound", "--d", "3", "--lambda", "1e-30", "--gamma", "1", "--delta", "1",
        "--n-max", "400", "--replicas", "20", "--seed", "1", "--format", "jsonl",
    ]

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    out = run_cli(args, tmp_path, "inf.jsonl")
    records = [json.loads(line, parse_constant=reject) for line in out.decode().splitlines()]
    (result,) = [r for r in records if r["record"] == "result"]
    assert result["mean_weight"] is None and result["se_weight"] is None
    assert (result["bound"], result["heavy_tail"]) == (0.0, True)


def test_oracle_check_quick_suite(tmp_path):
    args = ["oracle-check", "--suite", "all", "--replicas", "4000", "--seed", "0"]
    a = run_cli(args, tmp_path, "oc.csv")
    assert a == run_cli(args, tmp_path, "oc2.csv")
    lines = [l for l in a.decode().splitlines() if not l.startswith("#")]
    assert lines[0] == "check,status,detail"
    assert all(",pass," in line for line in lines[1:])


def test_oracle_check_output_golden(tmp_path):
    # recorded when each draw window held its uniforms, then its
    # exponentials; the one-pass marginal check runs each replica once
    out = run_cli(["oracle-check", "--replicas", "500", "--seed", "11"], tmp_path, "oc.csv")
    assert hashlib.sha256(out).hexdigest() == (
        "3aa04faff9f53d8d54f69a6b7114ac124a54291d1f55c4066096209417be4ef0"
    )


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replicas = 9\nhorizon = 4\n# comment\nseed = 13\n")
    base = [
        "simulate", "--kind", "contact", "--d", "2", "--lambda", "0.5",
        "--gamma", "1", "--delta", "1", "--radius", "6", "--config", str(cfg),
    ]
    out = run_cli(base, tmp_path, "cfg1.csv").decode()
    assert "# replicas=9" in out and "# seed=13" in out
    rows = [l for l in out.splitlines() if not l.startswith("#") and l and not l.startswith("replica")]
    assert len(rows) == 9
    # explicit flag beats the file
    out2 = run_cli(base + ["--replicas", "4"], tmp_path, "cfg2.csv").decode()
    assert "# replicas=4" in out2


CFG_BASE = [
    "simulate", "--kind", "contact", "--d", "2", "--replicas", "5",
    "--horizon", "4", "--radius", "6", "--seed", "3",
]


def test_config_key_lambda_is_the_long_option_name(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\n")
    out = run_cli(CFG_BASE + ["--config", str(cfg)], tmp_path, "lam.csv").decode()
    assert "# lam=0.5" in out


def test_config_key_format_selects_the_writer(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = jsonl\n")
    out = run_cli(CFG_BASE + ["--lambda", "0.5", "--config", str(cfg)], tmp_path, "fmt.out")
    records = [json.loads(line) for line in out.decode().splitlines()]
    assert records[0]["record"] == "meta" and records[0]["fmt"] == "jsonl"
    assert [r["record"] for r in records[1:]] == ["row"] * 5


def test_config_unknown_key_is_a_validation_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replicaz = 9\n")
    proc = cli_process(CFG_BASE + ["--lambda", "0.5", "--config", str(cfg)], tmp_path / "typo.csv")
    assert proc.returncode == 2, proc.stderr
    assert "'replicaz' is not an option of simulate" in proc.stderr
    assert not (tmp_path / "typo.csv").exists()


@pytest.mark.parametrize("kind", ["directory", "not utf-8", "missing"])
def test_unreadable_config_is_a_validation_error(tmp_path, kind):
    cfg = tmp_path / "run.cfg"
    if kind == "directory":
        cfg.mkdir()
    elif kind == "not utf-8":
        cfg.write_bytes(b"seed = 1\xff\n")
    proc = cli_process(["ode", "--d", "3", "--lambda", "0.1", "--config", str(cfg)], tmp_path / "o.csv")
    assert proc.returncode == 2, proc.stderr
    assert str(cfg) in proc.stderr and "Traceback" not in proc.stderr
    if kind == "missing":
        assert "config file not found" in proc.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("replicas = many", "config key replicas: invalid literal"),
        ("kind = sis", "config key kind must be one of contact, sir, got 'sis'"),
    ],
)
def test_config_bad_value_is_a_validation_error(tmp_path, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    base = ["simulate", "--d", "2", "--lambda", "0.5", "--config", str(cfg)]
    proc = cli_process(base, tmp_path / "bad.csv")
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "--d", "2", "--lambdas", "abc"], "argument --lambdas: expected comma-separated numbers"),
        (["trend", "--d-list", "4,x"], "argument --d-list: expected comma-separated integers"),
        (["ode", "--d", "2", "--lambda", "1", "--times", "1,abc"], "argument --times: expected comma-separated numbers"),
    ],
)
def test_bad_list_flag_names_the_expected_format(tmp_path, args, message):
    proc = cli_process(args, tmp_path / "list.csv")
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


# small enough that a run which misses the validation still ends quickly
QUICK_BISECT = ["bisect", "--d", "2", "--bracket-replicas", "20", "--probe-replicas", "20",
                "--horizon", "5", "--radius", "5"]
QUICK_SIM = ["simulate", "--d", "2", "--lambda", "0.9", "--replicas", "2", "--horizon", "5"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["ode", "--d", "5", "--lambda", "0.3", "--times", "nan,1"], "time must be finite and >= 0, got nan"),
        (["ode", "--d", "5", "--lambda", "0.3", "--times", "inf"], "time must be finite and >= 0, got inf"),
        (["sawbound", "--d", "12", "--theta", "nan"], "theta must be positive and finite, got nan"),
        ([*QUICK_BISECT, "--tol", "nan"], "tol must be positive and finite, got nan"),
        ([*QUICK_BISECT, "--lambda-max", "nan"], "lambda_max must be positive and finite, got nan"),
        ([*QUICK_BISECT, "--lambda-max", "-1"], "lambda_max must be positive and finite, got -1.0"),
        # a NaN rate is named, not blamed on the tol, lambda_max or lam derived from it
        ([*QUICK_BISECT, "--gamma", "nan"], "gamma must be finite, got nan"),
        ([*QUICK_BISECT, "--delta", "nan", "--tol", "0.1"], "delta must be finite, got nan"),
        (["trend", "--d-list", "2,3", "--gamma", "nan"], "gamma must be finite, got nan"),
        (["trend", "--d-list", "2,3", "--delta", "inf"], "delta must be finite, got inf"),
        (["sawbound", "--d", "12", "--theta", "1.5", "--gamma", "nan"], "gamma must be finite, got nan"),
        (["sawbound", "--d", "12", "--theta", "1.5", "--delta", "nan"], "delta must be finite, got nan"),
        # an option the run would not use is refused, not silently dropped
        (["sawbound", "--d", "12", "--lambda", "0.5", "--theta", "3"], "--lambda and --theta both set the rate"),
        ([*QUICK_SIM, "--geometry", "torus", "--radius", "3"], "--radius applies only to --geometry box"),
        ([*QUICK_SIM, "--side", "4"], "--side applies only to --geometry torus"),
        ([*QUICK_SIM, "--geometry", "box", "--side", "4"], "--side applies only to --geometry torus"),
        (["ode", "--d", "3", "--lambda", "0.1", "--times", ""], "--times must list at least one time"),
    ],
)
def test_non_finite_or_non_positive_settings_exit_2_naming_them(tmp_path, args, message):
    out = tmp_path / "bad.csv"
    proc = cli_process(args, out)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("option", ["--bracket-replicas", "--probe-replicas"])
@pytest.mark.parametrize("replicas", ["0", "-1"])
def test_bisect_needs_a_replica_per_probe(tmp_path, option, replicas):
    out = tmp_path / "bad.csv"
    proc = cli_process([*QUICK_BISECT, option, replicas], out)
    assert proc.returncode == 2, proc.stderr
    assert f"replicas must be >= 1, got {replicas}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


INVALID_PROXY_BASES = {
    "simulate": QUICK_SIM,
    "sweep": ["sweep", "--d", "2", "--lambdas", "1", "--replicas", "20"],
    "bisect": QUICK_BISECT,
    "trend": ["trend", "--d-list", "2", "--probe-replicas", "20", "--bracket-replicas", "20"],
}


# (flag, value) -> the refusal every command prints, in the option's words
PROXY_REFUSALS = {
    ("--cap", "0"): "proxy cap must be >= 1, got 0",
    ("--radius", "-1"): "proxy box radius must be >= 0, got -1",
    ("--horizon", "0"): "proxy horizon must be positive and finite, got 0.0",
    ("--horizon", "nan"): "proxy horizon must be positive and finite, got nan",
}


@pytest.mark.parametrize("command", list(INVALID_PROXY_BASES))
@pytest.mark.parametrize("flag, value", list(PROXY_REFUSALS))
def test_invalid_proxy_exits_2_before_any_pool_forks(tmp_path, pools, capsys, command, flag, value):
    from twostage import cli

    out = tmp_path / "bad.csv"
    argv = [*INVALID_PROXY_BASES[command], flag, value, "--threads", "2", "--out", str(out)]
    assert cli.main(argv) == 2
    assert PROXY_REFUSALS[flag, value] in capsys.readouterr().err
    assert pools == []
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_a_validation_error(tmp_path, pools, capsys, threads):
    from twostage import cli

    out = tmp_path / "threads.csv"
    assert cli.main([*SIM_ARGS, "--threads", threads, "--out", str(out)]) == 2
    assert f"--threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert pools == []
    assert not out.exists()


def test_ode_bad_time_writes_nothing_to_stdout():
    # the metadata block is written only once every row is computed
    proc = cli_process(["ode", "--d", "5", "--lambda", "0.3", "--times", "1,nan"], "-")
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""


def test_failed_sweep_writes_nothing_to_stdout():
    proc = cli_process(
        ["sweep", "--d", "1", "--lambdas", "1", "--horizon", "nan", "--replicas", "3"], "-"
    )
    assert proc.returncode == 2, proc.stderr
    assert "# tool=" not in proc.stdout


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_1_without_a_traceback(unbuffered):
    env = dict(os.environ, PYTHONPATH=SRC, TWOSTAGE_THREADS="1")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # about 550 KB of rows, far more than a pipe buffers, so the run is
    # still writing when the reader closes its end
    args = ["simulate", "--d", "2", "--lambda", "0.9", "--replicas", "20000", "--horizon", "2",
            "--radius", "5"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "twostage", *args], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert first.startswith("# ")
    assert proc.returncode == 1, stderr
    assert "Traceback" not in stderr
    assert stderr.splitlines() == ["twostage: output closed before the run finished writing it"]


@pytest.mark.parametrize("replicas", ["0", "-3"])
def test_oracle_check_needs_a_replica(tmp_path, replicas):
    proc = cli_process(["oracle-check", "--replicas", replicas], tmp_path / "oracle.csv")
    assert proc.returncode == 2, proc.stderr
    # check_suite's own refusal
    assert f"replicas must be >= 1, got {replicas}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args,code,message",
    [
        # exp(-Lambda*t) underflows: the uniformization is refused before any run
        (["--lambda", "400"], 3, "twostage: uniformization needs Lambda*t <= 700, got 802 at t=1.0"),
        (["--replicas", "1", "--lambda", "1e9"], 3, "twostage: uniformization needs Lambda*t <= 700"),
        # lam * 2d overflows, which the simulator refuses before any chain is built
        (["--lambda", "1e308"], 2, "twostage: invalid input: lam * 2d must be finite, got 1e+308 * 2"),
    ],
    ids=["lambda-400", "lambda-1e9", "lambda-1e308"],
)
def test_oracle_check_rates_too_large_fail_fast_in_one_line(tmp_path, args, code, message):
    out = tmp_path / "oracle.csv"
    proc = cli_process(["oracle-check", *args], out, timeout=60)
    assert proc.returncode == code, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith(message)
    assert not out.exists()


def test_simulate_at_a_rate_no_run_can_outlast_fails_fast_in_one_line(tmp_path):
    # lam * 2d = 1e308 is finite, but a run at that rate never reaches the
    # horizon: it is refused before any replica starts
    out = tmp_path / "sim.csv"
    args = [
        "simulate", "--kind", "contact", "--d", "1", "--lambda", "5e307", "--geometry", "torus",
        "--side", "3", "--horizon", "1", "--replicas", "1",
    ]
    proc = cli_process(args, out, timeout=60)
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("twostage: invalid input: one active site at total rate 1e+308")
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["0", "-1"])
def test_sawbound_theta_needs_positive_gamma(tmp_path, gamma):
    args = ["sawbound", "--d", "12", "--theta", "1.5", "--gamma", gamma, "--delta", "1"]
    proc = cli_process(args, tmp_path / "sb.csv")
    assert proc.returncode == 2, proc.stderr
    assert f"gamma must be positive, got {float(gamma)}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_output_does_not_depend_on_threads(tmp_path):
    one = run_cli(SIM_ARGS + ["--threads", "1"], tmp_path, "t1.csv")
    two = run_cli(SIM_ARGS + ["--threads", "2"], tmp_path, "t2.csv")
    assert one == two
    assert b"threads" not in one


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_bad_env_threads_is_a_validation_error(tmp_path, value):
    proc = cli_process(SIM_ARGS, tmp_path / "env.csv", env={"TWOSTAGE_THREADS": value})
    assert proc.returncode == 2, proc.stderr
    assert "TWOSTAGE_THREADS" in proc.stderr


@pytest.mark.parametrize("source", ["flag", "config"])
def test_flag_or_config_wins_over_a_bad_env_variable(tmp_path, source):
    args = ["ode", "--d", "5", "--lambda", "0.3"]
    if source == "flag":
        args += ["--threads", "1", "--seed", "7"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads = 1\nseed = 7\n")
        args += ["--config", str(cfg)]
    env = {"TWOSTAGE_THREADS": "abc", "TWOSTAGE_SEED": "x"}
    out = run_cli(args, tmp_path, "ode.csv", env=env).decode()
    assert "# seed=7" in out


def test_env_seed_default(tmp_path):
    args = [
        "simulate", "--kind", "contact", "--d", "2", "--lambda", "0.5",
        "--gamma", "1", "--delta", "1", "--replicas", "5", "--horizon", "4", "--radius", "6",
    ]
    out = run_cli(args, tmp_path, "env.csv", env={"TWOSTAGE_SEED": "99"}).decode()
    assert "# seed=99" in out


COMMON_FLAGS = {
    "--seed": "seed", "--threads": "threads", "--config": "config",
    "--out": "out", "--format": "fmt",
}
RATE_FLAGS = {"--lambda": "lam", "--gamma": "gamma", "--delta": "delta"}
PROXY_FLAGS = {"--horizon": "horizon", "--cap": "cap", "--radius": "radius"}
BISECT_FLAGS = {
    "--kind": "kind", "--gamma": "gamma", "--delta": "delta", "--eps": "eps",
    "--probe-replicas": "probe_replicas", "--bracket-replicas": "bracket_replicas",
}
CLI_SURFACE = {
    "simulate": {
        "--kind": "kind", "--d": "d", **RATE_FLAGS, "--replicas": "replicas",
        **PROXY_FLAGS, "--geometry": "geometry", "--side": "side",
    },
    "sweep": {
        "--kind": "kind", "--d": "d", "--lambdas": "lambdas", "--gamma": "gamma",
        "--delta": "delta", "--replicas": "replicas", **PROXY_FLAGS,
    },
    "bisect": {
        **BISECT_FLAGS, "--d": "d", "--tol": "tol", "--lambda-max": "lambda_max",
        **PROXY_FLAGS,
    },
    "trend": {**BISECT_FLAGS, "--d-list": "d_list", **PROXY_FLAGS},
    "ode": {"--d": "d", **RATE_FLAGS, "--times": "times"},
    "sawbound": {
        "--d": "d", **RATE_FLAGS, "--theta": "theta", "--n-max": "n_max",
        "--replicas": "replicas",
    },
    "oracle-check": {"--suite": "suite", "--replicas": "replicas", **RATE_FLAGS},
}


def test_cli_surface_flags_and_dests():
    import argparse

    from twostage.cli import build_parser

    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, sp in sub.choices.items():
        surface[name] = {
            flag: action.dest
            for action in sp._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
    assert surface == {name: {**flags, **COMMON_FLAGS} for name, flags in CLI_SURFACE.items()}


@pytest.mark.parametrize("command", sorted(CLI_SURFACE))
def test_help_exits_zero(command, capsys):
    from twostage.cli import build_parser

    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: twostage {command}")


def test_threads_help_names_the_serial_commands(capsys):
    from twostage.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["ode", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "ode, sawbound and oracle-check run serially" in text
