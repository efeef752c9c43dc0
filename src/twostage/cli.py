"""Command-line surface.

Subcommands: simulate, sweep, bisect, trend, ode, sawbound, oracle-check.
Each handler only resolves its options, calls the library and returns a
``Report``; ``main`` alone writes it, once the computation has finished,
so a run that fails writes nothing.  The oracle-check suite is
``oracle.check_suite``.
Tables are written as CSV, heterogeneous reports as JSON lines; both
start with a metadata block (tool version, resolved configuration,
master seed) so every file is self-describing.  Identical configuration
and seed produce byte-identical output regardless of worker count; wall
clock goes to stderr only, to keep the files deterministic.  ``main`` opens
each command's one ``parallel.pool_scope``, of ``--threads`` workers.

Option precedence is flags > config file > built-in defaults.  The
config file is flat ``key = value`` text; keys are the long option
names of the subcommand (``lambda``, ``d-list``, ``format``, ...), and
any other key is a validation error.  Environment variables
TWOSTAGE_SEED and TWOSTAGE_THREADS supply the default seed and worker
count, and are read only when neither a flag nor the config file gives
the value; a value that is not an integer (or, for the worker count, is
below 1) is a validation error.

Exit codes: 0 success, 1 runtime failure (also when the reader of
the output closes it early, as ``| head`` does), 2 validation error, 3
bracket or resource exhaustion.
"""
from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

from . import __version__
from .engine import STATES
from .errors import (
    BracketError,
    DomainError,
    ParameterError,
    ResourceError,
    TwoStageError,
)
from .lattice import Box, Torus
from .meanfield import (
    eigenvalues,
    is_subcritical,
    lambda_from_theta,
    lower_bound_lambda,
    moment_matrix,
    solve_moments,
)
from .params import ProcessParams
from .parallel import pool_scope
from . import critical, oracle, saw


# ----------------------------------------------------------------------
# option table, config file + option resolution
# ----------------------------------------------------------------------
def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


class Option(NamedTuple):
    """One command-line option; its dest is its key in OPTIONS."""

    flag: str
    type: Callable
    help: str
    choices: Optional[tuple[str, ...]] = None


OPTIONS = {
    "kind": Option("--kind", str, "spread process", tuple(STATES)),
    "d": Option("--d", int, "lattice dimension"),
    "d_list": Option("--d-list", _parse_ints, "comma-separated dimensions"),
    "lam": Option("--lambda", float, "infection rate"),
    "lambdas": Option("--lambdas", _parse_floats, "comma-separated rates"),
    "gamma": Option("--gamma", float, "maturation rate"),
    "delta": Option("--delta", float, "excess semi-infected recovery rate"),
    "theta": Option("--theta", float, "rate factor above threshold scale"),
    "replicas": Option("--replicas", int, "replica count"),
    "horizon": Option("--horizon", float, "time horizon of each replica"),
    "cap": Option("--cap", int, "active-set survival cap"),
    "geometry": Option("--geometry", str, "domain shape", ("box", "torus")),
    "radius": Option("--radius", int, "box radius"),
    "side": Option("--side", int, "torus side"),
    "eps": Option("--eps", float, "survival level defining the crossing"),
    "tol": Option("--tol", float, "rate resolution"),
    "probe_replicas": Option("--probe-replicas", int, "replicas per bisection probe"),
    "bracket_replicas": Option("--bracket-replicas", int, "replicas per bracket probe"),
    "lambda_max": Option("--lambda-max", float, "largest rate the bracket may probe"),
    "times": Option("--times", _parse_floats, "comma-separated sample times"),
    "n_max": Option("--n-max", int, "largest walk length"),
    "suite": Option("--suite", str, "check suite (only 'all')"),
    "seed": Option("--seed", int, "master seed (env TWOSTAGE_SEED)"),
    "threads": Option(
        "--threads", int,
        "worker count (env TWOSTAGE_THREADS); ode, sawbound and oracle-check run serially",
    ),
    "config": Option("--config", str, "flat key = value config file"),
    "out": Option("--out", str, "output path ('-' for stdout)"),
    "fmt": Option("--format", str, "output format", ("csv", "jsonl")),
}


def load_config(path: Optional[str], command: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment.

    Keys are the long option names of ``command`` ('_' may stand for
    '-'); the result maps each option's dest to its text.
    """
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ParameterError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    dests = {OPTIONS[name].flag[2:]: name for name in _command_options(command)}
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = dests.get(key.replace("_", "-"))
        if dest is None:
            raise ParameterError(f"{path}:{lineno}: {key!r} is not an option of {command}")
        out[dest] = value
    return out


class Resolver:
    """Flags > config file > defaults; config text is cast by OPTIONS."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self.args = args
        self.cfg = cfg
        self.resolved: dict[str, object] = {}

    def get(self, name: str, default=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = _cast(name, self.cfg[name]) if name in self.cfg else default
        self.resolved[name] = value
        return value

    def given(self, name: str) -> bool:
        """Whether a flag or the config file sets name; nothing is recorded."""
        return getattr(self.args, name, None) is not None or name in self.cfg

    def required(self, name: str):
        value = self.get(name)
        if value is None or value == []:
            opt = OPTIONS[name]
            raise ParameterError(f"{opt.flag} is required ({opt.help})")
        return value


def _cast(name: str, text: str):
    opt = OPTIONS[name]
    try:
        value = opt.type(text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParameterError(f"config key {opt.flag[2:]}: {exc}") from None
    if opt.choices and value not in opt.choices:
        raise ParameterError(
            f"config key {opt.flag[2:]} must be one of {', '.join(opt.choices)}, got {text!r}"
        )
    return value


def _get_or_env(
    res: Resolver, name: str, env: str, default: int, minimum: Optional[int] = None
) -> int:
    """res.get(name), else the integer in environment variable env, else default.

    env is read only when neither a flag nor the config file gives the
    value, so a bad variable cannot fail a run that overrides it.
    """
    value = res.get(name)
    if value is not None:
        return value
    raw = os.environ.get(env)
    if raw is None:
        return res.get(name, default)
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(f"{env} must be an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ParameterError(f"{env} must be >= {minimum}, got {value}")
    return res.get(name, value)


# ----------------------------------------------------------------------
# deterministic writers
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


def _jsonable(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        x = float(value)
        return x if abs(x) < float("inf") else None  # JSON has no inf or nan
    return str(value)


class OutputWriter:
    """CSV or JSON-lines writer with a metadata prologue.

    A new or regular file (through symlinks, its target) is written to a
    sibling temporary file that replaces it only when the block exits
    without an exception, so a run that raises leaves an existing file
    untouched.  Devices, FIFOs and files in directories that cannot take
    the sibling are written in place.
    """

    def __init__(self, path: str, fmt: str):
        if fmt not in ("csv", "jsonl"):
            raise ParameterError(f"format must be csv or jsonl, got {fmt!r}")
        self.path = path
        self.fmt = fmt
        self._fh = None
        self._target = None
        self._tmp = None

    def __enter__(self):
        if self.path == "-":
            self._fh = sys.stdout
            return self
        target = os.path.realpath(self.path)
        regular = os.path.isfile(target) or not os.path.exists(target)
        if regular and os.access(os.path.dirname(target), os.W_OK):
            self._target, self._tmp = target, f"{target}.tmp-{os.getpid()}"
        try:
            self._fh = open(self._tmp or target, "w", newline="\n")
        except OSError as exc:
            raise ParameterError(f"cannot write --out {self.path}: {exc.strerror}") from None
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._fh is sys.stdout:
            return
        self._fh.close()
        if self._tmp is None:
            return
        if exc_type is None:
            os.replace(self._tmp, self._target)
        else:
            os.remove(self._tmp)

    def meta(self, meta: dict) -> None:
        if self.fmt == "csv":
            for key in sorted(meta):
                self._fh.write(f"# {key}={_fmt(meta[key])}\n")
        else:
            record = {"record": "meta"}
            record.update({k: _jsonable(v) for k, v in meta.items()})
            self._fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")

    def table(self, header: Sequence[str], rows) -> None:
        if self.fmt == "csv":
            self._fh.write(",".join(header) + "\n")
            for row in rows:
                self._fh.write(",".join(_fmt(v) for v in row) + "\n")
        else:
            for row in rows:
                record = {"record": "row"}
                record.update({k: _jsonable(v) for k, v in zip(header, row)})
                self._fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


class Report(NamedTuple):
    """A command's table, its metadata beyond the resolved options, and its exit code."""

    header: Sequence[str]
    rows: list
    meta: dict = {}
    code: int = 0


def _base_meta(command: str, resolver: Resolver) -> dict:
    meta = {"tool": "twostage", "version": __version__, "command": command}
    # the output and config paths and the worker count are not part of the
    # computation: leaving them out keeps files byte-identical wherever and
    # however they are written
    skip = {"out", "config", "threads"}
    meta.update({k: resolver.resolved[k] for k in sorted(resolver.resolved) if k not in skip})
    return meta


# ----------------------------------------------------------------------
# parameter assembly shared by subcommands
# ----------------------------------------------------------------------
def _params(res: Resolver) -> ProcessParams:
    return ProcessParams(
        lam=res.required("lam"), gamma=res.get("gamma", 1.0), delta=res.get("delta", 1.0)
    )


def _proxy(res: Resolver, d: int) -> critical.ProxySettings:
    base = critical.ProxySettings.default_for(d)
    return critical.ProxySettings(
        horizon=res.get("horizon", base.horizon),
        active_cap=res.get("cap", base.active_cap),
        box_radius=res.get("radius", base.box_radius),
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def cmd_simulate(res: Resolver, seed: int) -> Report:
    kind = res.get("kind", "contact")
    p = _params(res)
    d = res.required("d")
    geometry = res.get("geometry", "box")
    for name, shape in (("radius", "box"), ("side", "torus")):
        if shape != geometry and res.given(name):
            raise ParameterError(f"{OPTIONS[name].flag} applies only to --geometry {shape}")
    if geometry == "torus":
        domain = Torus(res.get("side", 5))
        # a torus has no box radius to resolve, so its file records none
        base = critical.ProxySettings.default_for(d)
        proxy = critical.ProxySettings(
            res.get("horizon", base.horizon), res.get("cap", base.active_cap)
        )
    else:
        proxy = _proxy(res, d)
        domain = Box(proxy.box_radius)
    replicas = res.get("replicas", 1000)
    rows = critical.run_replicas(kind, d, p, domain, proxy.horizon, proxy.active_cap, replicas, seed)
    return Report(
        ("replica", "survived", "extinction_time", "peak_active", "event_count"),
        [(i, *row) for i, row in enumerate(rows)],
    )


def cmd_sweep(res: Resolver, seed: int) -> Report:
    kind = res.get("kind", "contact")
    d = res.required("d")
    lams = res.required("lambdas")
    gamma = res.get("gamma", 1.0)
    delta = res.get("delta", 1.0)
    replicas = res.get("replicas", 2000)
    proxy = _proxy(res, d)
    rows = []
    for lam in lams:
        p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
        est = critical.estimate_survival(kind, d, p, proxy, replicas, seed)
        rows.append((d, lam, est.trials, est.survivals, est.p_hat, est.ci_low, est.ci_high))
    return Report(("d", "lambda", "trials", "survivals", "p_hat", "ci_low", "ci_high"), rows)


def cmd_bisect(res: Resolver, seed: int) -> Report:
    kind = res.get("kind", "contact")
    d = res.required("d")
    gamma = res.get("gamma", 1.0)
    delta = res.get("delta", 1.0)
    est = critical.bisect_critical(
        kind,
        d,
        gamma,
        delta,
        eps=res.get("eps", critical.DEFAULT_EPS),
        tol=res.get("tol"),
        probe_replicas=res.get("probe_replicas", critical.PROBE_REPLICAS),
        bracket_replicas=res.get("bracket_replicas", critical.BRACKET_REPLICAS),
        lambda_max=res.get("lambda_max"),
        proxy=_proxy(res, d),
        seed=seed,
    )
    header = (
        "record",
        "phase",
        "lambda",
        "trials",
        "survivals",
        "p_hat",
        "ci_low",
        "ci_high",
        "lambda_hat",
        "scaled",
        "resolution",
    )
    rows = [
        ("probe", pr.phase, pr.params.lam, pr.trials, pr.survivals, pr.p_hat, pr.ci_low, pr.ci_high, None, None, None)
        for pr in est.probes
    ]
    rows.append(
        ("result", None, None, None, None, None, None, None, est.lambda_hat, est.scaled, est.resolution)
    )
    return Report(header, rows)


def cmd_trend(res: Resolver, seed: int) -> Report:
    kind = res.get("kind", "contact")
    d_list = res.required("d_list")
    gamma = res.get("gamma", 1.0)
    delta = res.get("delta", 1.0)
    proxies = {d: _proxy(res, d) for d in d_list}
    rows = critical.trend_study(
        kind,
        d_list,
        gamma,
        delta,
        eps=res.get("eps", critical.DEFAULT_EPS),
        probe_replicas=res.get("probe_replicas", critical.PROBE_REPLICAS),
        bracket_replicas=res.get("bracket_replicas", critical.BRACKET_REPLICAS),
        proxy=proxies,
        seed=seed,
    )
    # proxy defaults depend on d: record each dimension's effective settings
    # in place of the horizon/cap/radius resolved for the last one
    for key in ("horizon", "cap", "radius"):
        del res.resolved[key]
    return Report(
        ("d", "lambda_hat", "scaled", "target"),
        [(r.d, r.lambda_hat, r.scaled, r.target) for r in rows],
        {f"proxy_d{d}": proxy.describe() for d, proxy in proxies.items()},
    )


def cmd_ode(res: Resolver, seed: int) -> Report:
    d = res.required("d")
    p = _params(res)
    times = res.get("times", [0.0, 0.5, 1.0, 2.0, 5.0])
    if not times:
        raise ParameterError("--times must list at least one time")
    c1, c2 = eigenvalues(moment_matrix(d, p))
    meta = {
        "eigenvalue_1": c1,
        "eigenvalue_2": c2,
        "max_real_eigenvalue": c1,
        "subcritical": is_subcritical(d, p),
        "lower_bound_lambda": lower_bound_lambda(d, p.gamma, p.delta),
    }
    rows = [(t, *solve_moments(d, p, t)) for t in times]
    return Report(("t", "zeta_mean", "theta_mean"), rows, meta)


def cmd_sawbound(res: Resolver, seed: int) -> Report:
    d = res.required("d")
    gamma = res.get("gamma", 1.0)
    delta = res.get("delta", 1.0)
    theta = res.get("theta")
    lam = res.get("lam")
    if lam is None and theta is None:
        raise ParameterError("provide --lambda or --theta")
    if lam is not None and theta is not None:
        raise ParameterError("--lambda and --theta both set the rate; give only one")
    if lam is None:
        lam = lambda_from_theta(d, gamma, delta, theta)
    p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
    est = saw.estimate_survival_lower_bound(
        d,
        p,
        n_max=res.get("n_max", 2000),
        replicas=res.get("replicas", 4000),
        seed=seed,
    )
    header = (
        "record",
        "n",
        "bound",
        "ci_low",
        "ci_high",
        "mean_weight",
        "se_weight",
        "heavy_tail",
    )
    rows = [("convergence", n, b, None, None, None, None, None) for n, b in est.convergence]
    rows.append(
        (
            "result",
            est.n_max,
            est.bound,
            est.ci_low,
            est.ci_high,
            est.mean_weight,
            est.se_weight,
            est.heavy_tail,
        )
    )
    return Report(header, rows, {"resolved_lambda": lam})


def cmd_oracle_check(res: Resolver, seed: int) -> Report:
    suite = res.get("suite", "all")
    if suite != "all":
        raise ParameterError(f"unknown suite {suite!r} (only 'all' is defined)")
    replicas = res.get("replicas", 50000)
    if replicas < 1:
        raise ParameterError(f"--replicas must be >= 1, got {replicas}")
    p = ProcessParams(
        lam=res.get("lam", 0.8), gamma=res.get("gamma", 1.0), delta=res.get("delta", 1.0)
    )
    checks = oracle.check_suite(p, replicas, seed)
    return Report(
        ("check", "status", "detail"),
        [(name, "pass" if ok else "FAIL", detail) for name, ok, detail in checks],
        code=0 if all(ok for _, ok, _ in checks) else 1,
    )


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------
_RATES = ("lam", "gamma", "delta")
_PROXY = ("horizon", "cap", "radius")
_COMMON = ("seed", "threads", "config", "out", "fmt")

# command -> (handler, help, option dests besides _COMMON)
COMMANDS = {
    "simulate": (
        cmd_simulate,
        "replica summaries of one process",
        ("kind", "d", *_RATES, "replicas", *_PROXY, "geometry", "side"),
    ),
    "sweep": (
        cmd_sweep,
        "survival estimates over a rate grid",
        ("kind", "d", "lambdas", "gamma", "delta", "replicas", *_PROXY),
    ),
    "bisect": (
        cmd_bisect,
        "bisection for the empirical critical rate",
        ("kind", "d", "gamma", "delta", "eps", "tol", "probe_replicas", "bracket_replicas",
         "lambda_max", *_PROXY),
    ),
    "trend": (
        cmd_trend,
        "scaled critical rate across dimensions",
        ("kind", "d_list", "gamma", "delta", "eps", "probe_replicas", "bracket_replicas", *_PROXY),
    ),
    "ode": (cmd_ode, "moment trajectories and eigenvalue report", ("d", *_RATES, "times")),
    "sawbound": (
        cmd_sawbound,
        "second-moment survival lower bound",
        ("d", *_RATES, "theta", "n_max", "replicas"),
    ),
    "oracle-check": (
        cmd_oracle_check,
        "exactness harness: simulator vs uniformization",
        ("suite", "replicas", *_RATES),
    ),
}


def _command_options(command: str) -> tuple[str, ...]:
    return COMMANDS[command][2] + _COMMON


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Simulation and estimation toolkit for two-stage spread processes on Z^d",
    )
    parser.add_argument("--version", action="version", version=f"twostage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, _) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name in _command_options(command):
            opt = OPTIONS[name]
            sp.add_argument(opt.flag, dest=name, type=opt.type, choices=opt.choices, help=opt.help)
        sp.set_defaults(func=func)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        res = Resolver(args, load_config(args.config, args.command))
        seed = _get_or_env(res, "seed", "TWOSTAGE_SEED", 0)
        workers = _get_or_env(res, "threads", "TWOSTAGE_THREADS", os.cpu_count() or 1, minimum=1)
        if workers < 1:
            raise ParameterError(f"--threads must be >= 1, got {workers}")
        out_path = res.get("out", "-")
        # tables default to CSV; the mixed-record sawbound report to JSON lines
        fmt = res.get("fmt", "jsonl" if args.command == "sawbound" else "csv")
        with OutputWriter(out_path, fmt) as writer, pool_scope(workers):
            report = args.func(res, seed)
            writer.meta({**_base_meta(args.command, res), **report.meta})
            writer.table(report.header, report.rows)
    except (ParameterError, DomainError) as exc:
        print(f"twostage: invalid input: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ResourceError) as exc:
        print(f"twostage: {exc}", file=sys.stderr)
        return 3
    except TwoStageError as exc:
        print(f"twostage: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone: send what is still buffered nowhere, so the
        # flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("twostage: output closed before the run finished writing it", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # the scopes and the output writer have cleaned up on the way out
        print("twostage: interrupted", file=sys.stderr)
        return 130
    print(f"twostage: elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return report.code
