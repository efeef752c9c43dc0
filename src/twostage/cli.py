"""Command-line surface.

Subcommands: simulate, sweep, bisect, trend, ode, sawbound, oracle-check.
Tables are written as CSV, heterogeneous reports as JSON lines; both
start with a metadata block (tool version, resolved configuration,
master seed) so every file is self-describing.  Identical configuration
and seed produce byte-identical output regardless of worker count; wall
clock goes to stderr only, to keep the files deterministic.

Option precedence is flags > config file > built-in defaults.  The
config file is flat ``key = value`` text; keys match the long option
names.  Environment variables TWOSTAGE_SEED and TWOSTAGE_THREADS supply
the default seed and worker count.

Exit codes: 0 success, 1 runtime failure, 2 validation error, 3
bracket or resource exhaustion.
"""
from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
from typing import Callable, Optional, Sequence

from . import __version__
from .engine import FULL, SparseConfig, simulate
from .errors import (
    BracketError,
    DomainError,
    ParameterError,
    ResourceError,
    TwoStageError,
)
from .lattice import Box, LatticeGeometry, Torus, origin
from .meanfield import (
    eigenvalues,
    is_subcritical,
    lambda_from_theta,
    lower_bound_lambda,
    moment_matrix,
    solve_moments,
)
from .params import ProcessParams
from .parallel import chunked_map, default_workers, index_chunks
from .rng import substream
from . import critical, oracle, saw


# ----------------------------------------------------------------------
# config file + option resolution
# ----------------------------------------------------------------------
def load_config(path: Optional[str]) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment."""
    if not path:
        return {}
    if not os.path.exists(path):
        raise ParameterError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _cast_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {text!r}")


class Resolver:
    """Flags > config file > defaults, with explicit casts."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self.args = args
        self.cfg = cfg
        self.resolved: dict[str, object] = {}

    def get(self, name: str, cast: Callable, default):
        value = getattr(self.args, name, None)
        if value is None:
            if name in self.cfg:
                text = self.cfg[name]
                value = _cast_bool(text) if cast is bool else cast(text)
            else:
                value = default
        self.resolved[name] = value
        return value


def _env_seed() -> int:
    raw = os.environ.get("TWOSTAGE_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"TWOSTAGE_SEED must be an integer, got {raw!r}") from None


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"expected comma-separated integers, got {text!r}") from None


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
        return float(value)
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


def _base_meta(command: str, resolver: Resolver) -> dict:
    meta = {"tool": "twostage", "version": __version__, "command": command}
    # the output and config paths are not part of the computation: leaving
    # them out keeps files byte-identical wherever they are written
    skip = {"out", "config"}
    meta.update({k: resolver.resolved[k] for k in sorted(resolver.resolved) if k not in skip})
    return meta


# ----------------------------------------------------------------------
# geometry / parameter assembly shared by subcommands
# ----------------------------------------------------------------------
def _geometry(res: Resolver, default_radius: int = 50) -> LatticeGeometry:
    d = res.get("d", int, None)
    if d is None:
        raise ParameterError("--d is required")
    shape = res.get("geometry", str, "box")
    if shape == "box":
        return LatticeGeometry(d, Box(res.get("radius", int, default_radius)))
    if shape == "torus":
        return LatticeGeometry(d, Torus(res.get("side", int, 5)))
    raise ParameterError(f"geometry must be box or torus, got {shape!r}")


def _params(res: Resolver, lam: Optional[float] = None) -> ProcessParams:
    if lam is None:
        lam = res.get("lam", float, None)
    if lam is None:
        raise ParameterError("--lambda is required")
    return ProcessParams(
        lam=lam, gamma=res.get("gamma", float, 1.0), delta=res.get("delta", float, 1.0)
    )


def _proxy(res: Resolver, d: int) -> critical.ProxySettings:
    base = critical.ProxySettings.default_for(d)
    return critical.ProxySettings(
        horizon=res.get("horizon", float, base.horizon),
        active_cap=res.get("cap", int, base.active_cap),
        box_radius=res.get("radius", int, base.box_radius),
    )


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------
def _simulate_chunk(args) -> list[tuple]:
    (kind, d, lam, gamma, delta, shape, extent, horizon, cap, seed, lo, hi) = args
    p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
    g = LatticeGeometry(d, Box(extent) if shape == "box" else Torus(extent))
    init = SparseConfig(states={origin(d): FULL})
    rows = []
    for i in range(lo, hi):
        out = simulate(kind, init, p, g, horizon, substream(seed, i), active_cap=cap)
        rows.append(
            (i, out.survived, out.extinction_time, out.peak_active, out.event_count)
        )
    return rows


def cmd_simulate(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    kind = res.get("kind", str, "contact")
    if kind not in ("contact", "sir"):
        raise ParameterError(f"kind must be contact or sir, got {kind!r}")
    p = _params(res)
    g = _geometry(res)
    horizon = res.get("horizon", float, 100.0)
    cap = res.get("cap", int, 5000)
    replicas = res.get("replicas", int, 1000)
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas}")
    extent = g.domain.radius if isinstance(g.domain, Box) else g.domain.side
    shape = "box" if isinstance(g.domain, Box) else "torus"
    chunk = max(64, replicas // (4 * max(1, workers)))
    chunks = [
        (kind, g.d, p.lam, p.gamma, p.delta, shape, extent, horizon, cap, seed, lo, hi)
        for lo, hi in index_chunks(replicas, chunk)
    ]
    writer.meta(_base_meta("simulate", res))
    header = ("replica", "survived", "extinction_time", "peak_active", "event_count")
    rows = [row for part in chunked_map(_simulate_chunk, chunks, workers) for row in part]
    writer.table(header, rows)
    return 0


def cmd_sweep(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    kind = res.get("kind", str, "contact")
    d = res.get("d", int, None)
    if d is None:
        raise ParameterError("--d is required")
    lams = res.get("lambdas", _parse_floats, None)
    if not lams:
        raise ParameterError("--lambdas is required (comma-separated rates)")
    gamma = res.get("gamma", float, 1.0)
    delta = res.get("delta", float, 1.0)
    replicas = res.get("replicas", int, 2000)
    proxy = _proxy(res, d)
    writer.meta(_base_meta("sweep", res))
    rows = []
    for lam in lams:
        p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
        est = critical.estimate_survival(kind, d, p, proxy, replicas, seed, workers)
        rows.append((d, lam, est.trials, est.survivals, est.p_hat, est.ci_low, est.ci_high))
    writer.table(("d", "lambda", "trials", "survivals", "p_hat", "ci_low", "ci_high"), rows)
    return 0


def cmd_bisect(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    kind = res.get("kind", str, "contact")
    d = res.get("d", int, None)
    if d is None:
        raise ParameterError("--d is required")
    gamma = res.get("gamma", float, 1.0)
    delta = res.get("delta", float, 1.0)
    est = critical.bisect_critical(
        kind,
        d,
        gamma,
        delta,
        eps=res.get("eps", float, critical.DEFAULT_EPS),
        tol=res.get("tol", float, None),
        probe_replicas=res.get("probe_replicas", int, 2000),
        bracket_replicas=res.get("bracket_replicas", int, 10000),
        lambda_max=res.get("lambda_max", float, None),
        proxy=_proxy(res, d),
        seed=seed,
        workers=workers,
    )
    writer.meta(_base_meta("bisect", res))
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
        ("probe", pr.phase, pr.lam, pr.trials, pr.survivals, pr.p_hat, pr.ci_low, pr.ci_high, None, None, None)
        for pr in est.probes
    ]
    rows.append(
        ("result", None, None, None, None, None, None, None, est.lambda_hat, est.scaled, est.resolution)
    )
    writer.table(header, rows)
    return 0


def cmd_trend(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    kind = res.get("kind", str, "contact")
    d_list = res.get("d_list", _parse_ints, None)
    if not d_list:
        raise ParameterError("--d-list is required (comma-separated dimensions)")
    gamma = res.get("gamma", float, 1.0)
    delta = res.get("delta", float, 1.0)
    proxies = {d: _proxy(res, d) for d in d_list}
    rows = critical.trend_study(
        kind,
        d_list,
        gamma,
        delta,
        eps=res.get("eps", float, critical.DEFAULT_EPS),
        probe_replicas=res.get("probe_replicas", int, 2000),
        bracket_replicas=res.get("bracket_replicas", int, 10000),
        proxy=proxies,
        seed=seed,
        workers=workers,
    )
    # proxy defaults depend on d: record each dimension's effective settings
    # in place of the horizon/cap/radius resolved for the last one
    meta = _base_meta("trend", res)
    for key in ("horizon", "cap", "radius"):
        del meta[key]
    meta.update({f"proxy_d{d}": proxy.describe() for d, proxy in proxies.items()})
    writer.meta(meta)
    writer.table(
        ("d", "lambda_hat", "scaled", "target"),
        [(r.d, r.lambda_hat, r.scaled, r.target) for r in rows],
    )
    return 0


def cmd_ode(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    d = res.get("d", int, None)
    if d is None:
        raise ParameterError("--d is required")
    p = _params(res)
    times = res.get("times", _parse_floats, [0.0, 0.5, 1.0, 2.0, 5.0])
    c1, c2 = eigenvalues(moment_matrix(d, p))
    meta = _base_meta("ode", res)
    meta.update(
        {
            "eigenvalue_1": c1.real if c1.imag == 0 else str(c1),
            "eigenvalue_2": c2.real if c2.imag == 0 else str(c2),
            "max_real_eigenvalue": max(c1.real, c2.real),
            "subcritical": is_subcritical(d, p),
            "lower_bound_lambda": lower_bound_lambda(d, p.gamma, p.delta),
        }
    )
    writer.meta(meta)
    rows = []
    for t in times:
        zeta, theta = solve_moments(d, p, t)
        rows.append((t, zeta, theta))
    writer.table(("t", "zeta_mean", "theta_mean"), rows)
    return 0


def cmd_sawbound(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    d = res.get("d", int, None)
    if d is None:
        raise ParameterError("--d is required")
    gamma = res.get("gamma", float, 1.0)
    delta = res.get("delta", float, 1.0)
    theta = res.get("theta", float, None)
    lam = res.get("lam", float, None)
    if lam is None and theta is None:
        raise ParameterError("provide --lambda or --theta")
    if lam is None:
        lam = lambda_from_theta(d, gamma, delta, theta)
    p = ProcessParams(lam=lam, gamma=gamma, delta=delta)
    est = saw.estimate_survival_lower_bound(
        d,
        p,
        n_max=res.get("n_max", int, 2000),
        replicas=res.get("replicas", int, 4000),
        seed=seed,
    )
    meta = _base_meta("sawbound", res)
    meta.update({"resolved_lambda": lam})
    writer.meta(meta)
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
    writer.table(header, rows)
    return 0


def _check_single_site_generators(p: ProcessParams) -> list[tuple[str, bool, str]]:
    g = LatticeGeometry(1, Box(0))
    results = []
    chain = oracle.build_exact("contact", g, p)
    # states enumerate (0, 1, 2) for the one site
    want = {
        (0,): {},
        (1,): {(2,): p.gamma, (0,): 1.0 + p.delta},
        (2,): {(0,): 1.0},
    }
    ok = True
    for src, targets in want.items():
        i = chain.index[src]
        for j, dst in enumerate(chain.states):
            expected = targets.get(dst, 0.0) if dst != src else -sum(targets.values())
            if chain.generator[i, j] != expected:
                ok = False
    results.append(("generator-single-site-contact", ok, "exact row match"))
    chain = oracle.build_exact("sir", g, p)
    rec = chain.index[(-1,)]
    ok = bool((chain.generator[rec] == 0).all())
    results.append(("generator-single-site-sir", ok, "recovered row identically zero"))
    return results


def _check_ring_generators(p: ProcessParams) -> list[tuple[str, bool, str]]:
    g = LatticeGeometry(1, Torus(3))
    results = []
    for kind in ("contact", "sir"):
        chain = oracle.build_exact(kind, g, p)
        q = chain.generator
        row_ok = bool(abs(q.sum(axis=1)).max() < 1e-12)
        off = q.copy()
        for i in range(off.shape[0]):
            off[i, i] = 0.0
        sign_ok = bool((off >= 0).all())
        results.append(
            (f"generator-ring-{kind}", row_ok and sign_ok, "row sums 0, off-diagonals >= 0")
        )
    return results


def _check_pure_death(p: ProcessParams) -> list[tuple[str, bool, str]]:
    g = LatticeGeometry(1, Box(0))
    chain = oracle.build_exact("contact", g, p)
    start = chain.config_index({(0,): FULL})
    ok = True
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        dist = oracle.transient(chain, start, t)
        healthy = chain.marginal(dist, (0,))[0]
        gap = abs(healthy - (1.0 - math.exp(-t)))
        worst = max(worst, gap)
        if gap > 1e-9:
            ok = False
    return [("pure-death-closed-form", ok, f"max |gap| {worst:.2e}")]


def _check_ring_marginals(p: ProcessParams, replicas: int, seed: int) -> list[tuple[str, bool, str]]:
    g = LatticeGeometry(1, Torus(3))
    o = origin(1)
    init = SparseConfig(states={o: FULL})
    results = []
    for kind in ("contact", "sir"):
        chain = oracle.build_exact(kind, g, p)
        start = chain.config_index(init)
        ok = True
        worst = 0.0
        for t in (0.5, 1.0, 2.0):
            exact = chain.marginal(oracle.transient(chain, start, t), o)
            counts = {s: 0 for s in chain.state_values}
            for i in range(replicas):
                out = simulate(kind, init, p, g, t, substream(seed, i))
                counts[out.final.state(o)] += 1
            for s, prob in exact.items():
                sigma = math.sqrt(max(prob * (1.0 - prob), 1e-12) / replicas)
                z = abs(counts[s] / replicas - prob) / sigma
                worst = max(worst, z)
                if z > 4.0:
                    ok = False
        results.append((f"marginals-ring-{kind}", ok, f"max |z| {worst:.2f} (limit 4)"))
        seed += replicas
    return results


def _check_union_spaces(seed: int) -> list[tuple[str, bool, str]]:
    report = oracle.brute_union_spaces(200, substream(seed, 97))
    return [
        (
            "union-bound-spaces",
            report.violations == 0,
            f"{report.trials} spaces, worst gap {report.worst_gap:.2e}",
        )
    ]


def cmd_oracle_check(res: Resolver, writer: OutputWriter, workers: int, seed: int) -> int:
    suite = res.get("suite", str, "all")
    if suite != "all":
        raise ParameterError(f"unknown suite {suite!r} (only 'all' is defined)")
    replicas = res.get("replicas", int, 50000)
    p = ProcessParams(
        lam=res.get("lam", float, 0.8),
        gamma=res.get("gamma", float, 1.0),
        delta=res.get("delta", float, 1.0),
    )
    checks: list[tuple[str, bool, str]] = []
    checks += _check_single_site_generators(p)
    checks += _check_ring_generators(p)
    checks += _check_pure_death(p)
    checks += _check_ring_marginals(p, replicas, seed)
    checks += _check_union_spaces(seed)
    writer.meta(_base_meta("oracle-check", res))
    writer.table(
        ("check", "status", "detail"),
        [(name, "pass" if ok else "FAIL", detail) for name, ok, detail in checks],
    )
    return 0 if all(ok for _, ok, _ in checks) else 1


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------
def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None, help="master seed (env TWOSTAGE_SEED)")
    sp.add_argument("--threads", type=int, default=None, help="worker count (env TWOSTAGE_THREADS)")
    sp.add_argument("--config", type=str, default=None, help="flat key = value config file")
    sp.add_argument("--out", type=str, default=None, help="output path ('-' for stdout)")
    sp.add_argument("--format", dest="fmt", choices=("csv", "jsonl"), default=None)


def _add_rates(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambda", dest="lam", type=float, default=None, help="infection rate")
    sp.add_argument("--gamma", type=float, default=None, help="maturation rate")
    sp.add_argument("--delta", type=float, default=None, help="excess semi-infected recovery rate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostage",
        description="Simulation and estimation toolkit for two-stage spread processes on Z^d",
    )
    parser.add_argument("--version", action="version", version=f"twostage {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="replica summaries of one process")
    sp.add_argument("--kind", choices=("contact", "sir"), default=None)
    sp.add_argument("--d", type=int, default=None)
    _add_rates(sp)
    sp.add_argument("--replicas", type=int, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--cap", type=int, default=None, help="active-set survival cap")
    sp.add_argument("--geometry", choices=("box", "torus"), default=None)
    sp.add_argument("--radius", type=int, default=None, help="box radius")
    sp.add_argument("--side", type=int, default=None, help="torus side")
    _add_common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="survival estimates over a rate grid")
    sp.add_argument("--kind", choices=("contact", "sir"), default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--lambdas", type=_parse_floats, default=None, help="comma-separated rates")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--replicas", type=int, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--radius", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("bisect", help="bisection for the empirical critical rate")
    sp.add_argument("--kind", choices=("contact", "sir"), default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None, help="survival level defining the crossing")
    sp.add_argument("--tol", type=float, default=None, help="rate resolution")
    sp.add_argument("--probe-replicas", type=int, default=None)
    sp.add_argument("--bracket-replicas", type=int, default=None)
    sp.add_argument("--lambda-max", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--radius", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_bisect)

    sp = sub.add_parser("trend", help="scaled critical rate across dimensions")
    sp.add_argument("--kind", choices=("contact", "sir"), default=None)
    sp.add_argument("--d-list", type=_parse_ints, default=None, help="comma-separated dimensions")
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--probe-replicas", type=int, default=None)
    sp.add_argument("--bracket-replicas", type=int, default=None)
    sp.add_argument("--horizon", type=float, default=None)
    sp.add_argument("--cap", type=int, default=None)
    sp.add_argument("--radius", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_trend)

    sp = sub.add_parser("ode", help="moment trajectories and eigenvalue report")
    sp.add_argument("--d", type=int, default=None)
    _add_rates(sp)
    sp.add_argument("--times", type=_parse_floats, default=None, help="comma-separated sample times")
    _add_common(sp)
    sp.set_defaults(func=cmd_ode)

    sp = sub.add_parser("sawbound", help="second-moment survival lower bound")
    sp.add_argument("--d", type=int, default=None)
    _add_rates(sp)
    sp.add_argument("--theta", type=float, default=None, help="rate factor above threshold scale")
    sp.add_argument("--n-max", type=int, default=None)
    sp.add_argument("--replicas", type=int, default=None)
    _add_common(sp)
    sp.set_defaults(func=cmd_sawbound)

    sp = sub.add_parser("oracle-check", help="exactness harness: simulator vs uniformization")
    sp.add_argument("--suite", type=str, default=None)
    sp.add_argument("--replicas", type=int, default=None)
    _add_rates(sp)
    _add_common(sp)
    sp.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        cfg = load_config(args.config)
        res = Resolver(args, cfg)
        seed = res.get("seed", int, _env_seed())
        workers = res.get("threads", int, default_workers())
        if workers < 1:
            raise ParameterError(f"--threads must be >= 1, got {workers}")
        out_path = res.get("out", str, "-")
        # tables default to CSV; the mixed-record sawbound report to JSON lines
        fmt = res.get("fmt", str, "jsonl" if args.command == "sawbound" else "csv")
        with OutputWriter(out_path, fmt) as writer:
            code = args.func(res, writer, workers, seed)
    except (ParameterError, DomainError) as exc:
        print(f"twostage: invalid input: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ResourceError) as exc:
        print(f"twostage: {exc}", file=sys.stderr)
        return 3
    except TwoStageError as exc:
        print(f"twostage: {exc}", file=sys.stderr)
        return 1
    print(f"twostage: elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code
