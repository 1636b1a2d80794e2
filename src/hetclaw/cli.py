"""Command line front end running named experiments deterministically.

Every experiment writes CSV/JSON/SVG files into the output directory,
each carrying a header with the experiment id, a hash of the resolved
configuration, and the column units.  Identical configurations produce
byte-identical files; the only randomness (entropy test sweeps) is
seeded and the seed is recorded.

Configuration precedence is defaults < command line flags < JSON config
file, so a config file pins a run completely even when stray flags are
present.  A flag and a config entry of one name are read alike, and a
value that does not read is refused by a ``DomainError`` naming it.
``EXPERIMENTS`` names the settings each experiment reads, with their
defaults and ranges, and is the only place a value is checked; a setting
it does not read must keep its ``RunConfig`` default, so no flag is
silently ignored.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .charsol import asymptotic_profile, solution_grid
from .design import MAX_RAYS, _standing_traces, design_report, footprint, \
    profile_from_solution, ray_fan
from .entropy import entropy_sweep, from_snapshots, reversed_shock_solution
from .errors import DomainError, HetclawError, NotFound
from .flow import integrate
from .fvm import DEFAULT_CFL, Grid1D, detect_shock_formation, evolve, \
    step_datum
from .model import MODELS, HamiltonianModel
from .period import period_quadrature, shock_time, turning_point
from .svgplot import write_svg


# ===== Configuration =====

@dataclass(frozen=True)
class RunConfig:
    """Resolved knobs for one experiment run."""

    experiment: str
    model: str = "quartic"
    out: str = "out"
    n: int | None = None
    cfl: float = DEFAULT_CFL
    t_max: float | None = None
    times: tuple | None = None
    seed: int = 0
    tol: float | None = None


# Each experiment setting's flag (and config key) and its RunConfig field.
_FIELDS = {"n": "n", "cfl": "cfl", "tmax": "t_max", "times": "times",
           "seed": "seed", "tol": "tol"}


def config_hash(config: RunConfig) -> str:
    """Short stable digest of everything that shapes the outputs.

    The output directory is deliberately excluded: it says where files
    go, not what they contain.
    """
    payload = asdict(config)
    payload.pop("out")
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read(key: str, raw, kind=float):
    """``kind(raw)``, or a DomainError naming the setting.

    A float must be finite and an int exact (2.7 or true is not a count).
    """
    try:
        value = kind(raw)
        if kind is int and (isinstance(raw, bool) or float(raw) != value):
            value = math.nan
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"--{key} must be a finite {kind.__name__}, "
                          f"got {raw!r}")
    return value


def _parse_times(raw) -> tuple:
    if isinstance(raw, str):
        raw = [piece for piece in raw.split(",") if piece.strip()]
    if not isinstance(raw, (list, tuple)):
        raise DomainError(f"--times must be a list, got {raw!r}")
    if not 1 <= len(raw) <= MAX_TIMES:
        raise DomainError(f"--times must list 1 to {MAX_TIMES} times, "
                          f"got {len(raw)}")
    return tuple(_read("times", v) for v in raw)


def _value(key: str, raw):
    """One given flag or config entry, read."""
    if key == "times":
        return _parse_times(raw)
    if key in _FIELDS:
        return _read(key, raw, int if key in ("n", "seed") else float)
    if key == "out" and not isinstance(raw, str):
        raise DomainError(f"--out must be a path string, got {raw!r}")
    # list membership: an unhashable value fails here, not with TypeError
    names = {"experiment": sorted(EXPERIMENTS), "model": sorted(MODELS)}
    if key in names and raw not in names[key]:
        raise DomainError(f"unknown {key} {raw!r}; choose from {names[key]}")
    return raw


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags with an optional JSON config file (file wins), read
    each given value, then check that a setting the experiment does not
    read holds its default and one it reads lies in its range."""
    given = {key: getattr(args, key) for key in _HELP
             if getattr(args, key) is not None}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            try:
                overrides = json.load(fh)
            except ValueError as exc:
                raise DomainError(f"config file {args.config!r} is not "
                                  f"UTF-8 JSON: {exc}") from exc
        if not isinstance(overrides, dict):
            raise DomainError("config file must hold one JSON object")
        unknown = sorted(overrides.keys() - _HELP.keys())
        if unknown:
            raise DomainError(f"unknown config keys {unknown}; "
                              f"expected a subset of {sorted(_HELP)}")
        given.update(overrides)
    if "experiment" not in given:
        raise DomainError("no experiment selected; pass --experiment "
                          "or put \"experiment\" in the config file")
    config = RunConfig(**{_FIELDS.get(key, key): _value(key, raw)
                          for key, raw in given.items()})
    reads = EXPERIMENTS[config.experiment].reads
    unset = RunConfig(config.experiment)
    for key, name in _FIELDS.items():
        if key not in reads and getattr(config, name) != getattr(unset, name):
            raise DomainError(
                f"experiment {config.experiment!r} does not read {key!r}; "
                f"it reads {sorted(reads)}")
    filled = _filled(config)
    for key, flag in reads.items():
        for v in np.atleast_1d(getattr(filled, _FIELDS[key])):
            if not flag.holds(v):
                raise DomainError(f"experiment {config.experiment!r} needs "
                                  f"--{key} {flag.span()}, got {v}")
    return config


def _filled(config: RunConfig) -> RunConfig:
    """The runner's config: defaults filled in, times distinct and sorted."""
    filled = replace(config, **{
        _FIELDS[key]: flag.default
        for key, flag in EXPERIMENTS[config.experiment].reads.items()
        if getattr(config, _FIELDS[key]) is None})
    return replace(filled, times=filled.times and tuple(sorted(set(
        filled.times))))


# ===== Output =====

class _Writer:
    """Writes one run's files into its output directory, stamps each with
    the experiment, the config hash and the file's units, and keeps the
    paths in the order written.  The directory is made with the first
    file, so a run refused before it writes leaves nothing behind."""

    def __init__(self, config: RunConfig):
        self.out = config.out
        self.stamp = {"experiment": config.experiment,
                      "config": config_hash(config)}
        self.paths = []

    def _path(self, name: str) -> str:
        os.makedirs(self.out, exist_ok=True)
        self.paths.append(os.path.join(self.out, name))
        return self.paths[-1]

    def _header(self, units: str) -> list:
        return [f"{key}={value}" for key, value in
                {**self.stamp, "units": units}.items()]

    def csv(self, name: str, units: str, rows) -> None:
        """The column line names the columns of ``units``, in order."""
        with open(self._path(name), "w") as fh:
            for line in self._header(units):
                fh.write(f"# {line}\n")
            fh.write(",".join(column.partition(":")[0]
                              for column in units.split(",")) + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) if isinstance(v, float)
                                  else str(v) for v in row) + "\n")

    def json(self, name: str, units: str, payload: dict) -> None:
        with open(self._path(name), "w") as fh:
            json.dump({**self.stamp, "units": units, **payload}, fh,
                      indent=2, sort_keys=True)
            fh.write("\n")

    def svg(self, name: str, units: str, curves, title: str) -> None:
        write_svg(self._path(name), curves, title=title,
                  header_comment=" ".join(self._header(units)))


# ===== Experiments =====

def _run_phase_portrait(model: HamiltonianModel, config: RunConfig,
                        write: _Writer) -> None:
    t_max = config.t_max
    p_sep = model.separatrix_momentum
    launches = [0.4, 0.8, 1.2, 1.39, p_sep, 1.6, 2.0]
    units = "orbit:index,class:label,p0:momentum,t:time,q:position,p:momentum"

    rows = []
    curves = []
    classes = []
    for k, p0 in enumerate(launches):
        if p0 <= 0.0:
            continue
        if p0 < p_sep:
            label = "periodic"
        elif p0 == p_sep:
            label = "separatrix"
        else:
            label = "escaping"
        traj = integrate(model, 0.0, p0, t_max, record_every=20)
        classes.append({"orbit": k, "p0": p0, "class": label,
                        "energy_drift": traj.drift})
        curves.append((traj.q, traj.p, f"p0={p0:g}"))
        rows += [(k, label, p0, *tqp)
                 for tqp in zip(traj.times, traj.q, traj.p)]

    write.csv("phase_portrait.csv", units, rows)
    write.json("phase_portrait.json", units,
               {"orbits": classes, "t_max": t_max})
    write.svg("phase_portrait.svg", "x:position,y:momentum", curves,
              "phase portrait")


def _run_simulate(model: HamiltonianModel, config: RunConfig,
                  write: _Writer) -> None:
    times = config.times
    grid = Grid1D(-4.0, 4.0, config.n)
    x = grid.centers()

    result = evolve(model, step_datum(grid), times[-1], config.cfl, times)
    overlay = asymptotic_profile(model, x)
    units = "t:time,x:position,u:velocity,asymptote:velocity"
    curves = [(x, values, f"t={t:g}") for t, values in result.snapshots]
    curves.append((x, overlay, "asymptote"))

    try:
        t_star = detect_shock_formation(model, step_datum(grid),
                                        min(2.0, times[-1]), cfl=config.cfl)
    except NotFound:
        t_star = None

    write.csv("simulate.csv", units,
              ((t, *xua) for t, values in result.snapshots
               for xua in zip(x, values, overlay)))
    write.json("simulate.json", units, {
        "domain": [grid.x_min, grid.x_max],
        "n": config.n,
        "cfl": config.cfl,
        "snapshot_times": times,
        "steps": result.steps,
        "shock_formation_time": t_star,
    })
    write.svg("simulate.svg", units, curves, "finite volume snapshots")


def _run_exact(model: HamiltonianModel, config: RunConfig,
               write: _Writer) -> None:
    xs = Grid1D(-4.0, 4.0, config.n).centers()
    U = solution_grid(model, config.times, xs)

    units = "t:time,x:position,u:velocity"
    write.csv("exact.csv", units, ((t, *xu) for t, u in zip(config.times, U)
                                   for xu in zip(xs, u)))
    curves = [(xs, u, f"t={t:g}") for t, u in zip(config.times, U)]
    write.svg("exact.svg", units, curves, "semi-analytic profiles")


def _run_period(model: HamiltonianModel, config: RunConfig,
                write: _Writer) -> None:
    if model.separatrix_momentum <= 0.0:
        raise DomainError("period table needs a trapping well; "
                          f"model {config.model!r} has none")
    p_hi = model.separatrix_momentum - 1e-3
    p0s = [0.01, *np.linspace(0.02, p_hi, config.n - 1).tolist()]
    periods = [period_quadrature(model, p0) for p0 in p0s]
    units = "p0:momentum,period:time,q_max:position"

    write.csv("period.csv", units,
              [(p0, period, turning_point(model, p0))
               for p0, period in zip(p0s, periods)])
    write.json("period.json", units, {
        "shock_formation_time": shock_time(model),
        "half_period_small_amplitude": periods[0] / 2.0,
        "rows": len(p0s),
    })
    write.svg("period.svg", units, [(p0s, periods, "period")],
              "period against launch momentum")


def _run_inverse(model: HamiltonianModel, config: RunConfig,
                 write: _Writer) -> None:
    t = config.t_max
    half = max(3.0, 2.0 * t + 1.0)
    xs = Grid1D(-half, half, config.n).centers()
    w = profile_from_solution(model, t, xs)

    fm = footprint(model, t, w)
    report = design_report(fm, w, (-half, half), config.cfl)
    fm_units = "x:position,w:velocity,foot:position,p0:momentum"

    write.csv("inverse_footprint.csv", fm_units,
              zip(fm.xs, fm.ws, fm.feet, fm.p0))
    write.json("inverse.json", fm_units, {
        "horizon": t,
        "window": [-half, half],
        "report": report.as_dict(),
        "jump_tags": [(j.x, j.w_minus, j.w_plus) for j in w.jumps],
    })
    curves = [(xs, w.ws, "target")]
    if report.reconstructed is not None:
        curves.append((xs, report.reconstructed.sample(xs), "reconstructed"))
    write.svg("inverse.svg", "x:position,w:velocity", curves,
              "target and reconstructed datum")


def _run_rays(model: HamiltonianModel, config: RunConfig,
              write: _Writer) -> None:
    t = config.t_max
    p_left, p_right = _standing_traces(model, t) or (-2.0, 2.0)
    report = ray_fan(model, t, 0.0, p_left, p_right, config.n,
                     tol=config.tol)
    units = "ray:index,t:time,q:position"

    write.csv("rays.csv", units,
              ((k, s, q) for k in range(report.momenta.size)
               for s, q in zip(report.times, report.positions[:, k])))
    write.json("rays.json", units, report.as_dict())
    curves = [(report.positions[:, k], report.times, f"ray {k}")
              for k in range(report.momenta.size)]
    write.svg("rays.svg", "x:position,y:time", curves, "backward ray fan")


def _run_entropy_check(model: HamiltonianModel, config: RunConfig,
                       write: _Writer) -> None:
    t_max = config.t_max
    grid = Grid1D(-3.0, 3.0, config.n)
    marks = np.linspace(0.0, t_max, 101)
    result = evolve(model, step_datum(grid), t_max, config.cfl, marks)
    solution = from_snapshots(model, grid.centers(), result.snapshots)
    report = entropy_sweep(solution, 50, seed=config.seed)

    control_sol = reversed_shock_solution(
        model, np.linspace(0.0, t_max, 41), Grid1D(-2.0, 2.0, 256).centers())
    control = entropy_sweep(control_sol, 50, seed=config.seed)

    write.json("entropy_check.json", "k:velocity,residual:flux,floor:flux", {
        "primary": report.as_dict(),
        "reversed_control": control.as_dict(),
        "primary_ok": report.ok,
        "control_flagged": not control.ok,
    })


def _run_asymptotics(model: HamiltonianModel, config: RunConfig,
                     write: _Writer) -> None:
    times = config.times
    grid = Grid1D(-6.0, 6.0, config.n)
    x = grid.centers()
    window = np.abs(x) <= 2.5
    xw = x[window]
    core = np.abs(xw) <= 0.95
    result = evolve(model, step_datum(grid), times[-1], config.cfl, times)

    exact = solution_grid(model, times, xw, n_orbits=8192)
    overlay = asymptotic_profile(model, xw)
    units = ("t:time,x:position,u_fvm:velocity,u_exact:velocity,"
             "asymptote:velocity")
    paired = list(zip(result.snapshots, exact))
    summary = [{"t": t,
                "fvm_vs_asymptote": np.max(np.abs(u[window] - overlay)[core]),
                "exact_vs_asymptote": np.max(np.abs(ue - overlay)[core])}
               for (t, u), ue in paired]

    write.csv("asymptotics.csv", units,
              ((t, *row) for (t, u), ue in paired
               for row in zip(xw, u[window], ue, overlay)))
    write.json("asymptotics.json", units,
               {"deviations_core_window": summary, "core_half_width": 0.95})
    t_last, u_last = result.snapshots[-1]
    write.svg("asymptotics.svg", units,
              [(xw, u_last[window], f"fvm t={t_last:g}"),
               (xw, exact[-1], f"exact t={t_last:g}"),
               (xw, overlay, "asymptote")], "long-time profiles")


class Flag(NamedTuple):
    """A setting's default and its range, from ``low`` to ``high``
    (``above`` leaves ``low`` out, ``even`` every odd value);
    ``--times`` ranges each time."""

    default: object
    low: float
    high: float
    above: bool = False
    even: bool = False

    def holds(self, value) -> bool:
        return (self.low < value if self.above else self.low <= value) \
            and value <= self.high and not (self.even and value % 2)

    def span(self) -> str:
        return ("even, " if self.even else "") + \
            f"{'above' if self.above else 'from'} {self.low} to {self.high}"


class Experiment(NamedTuple):
    """A runner and the settings it reads, keyed by flag."""

    run: Callable
    reads: dict


# Upper ends, measured on a 2-core host: an experiment's largest values,
# taken together, run in about 30 s or are refused by flow's step budget.
# An even --n keeps the shock x = 0 off the centres; asymptotics needs 8
# to have one in its core window |x| <= 0.95.
MAX_TIMES = 20
_CFL = Flag(DEFAULT_CFL, 0, 1, True)
EXPERIMENTS = {
    "phase-portrait": Experiment(_run_phase_portrait,
                                 {"tmax": Flag(8.0, 0, 1000, True)}),
    "simulate": Experiment(_run_simulate, {
        "n": Flag(2000, 4, 20000), "cfl": _CFL,
        "times": Flag((0.5, 1.0, 1.2, 2.5), 0, 100)}),
    "exact": Experiment(_run_exact, {
        "n": Flag(800, 4, 100000, even=True),
        "times": Flag((0.5, 1.0, 1.2, 2.5), 0, 100)}),
    "period": Experiment(_run_period, {"n": Flag(60, 3, 3000)}),
    "inverse": Experiment(_run_inverse, {
        "n": Flag(800, 4, 10000, even=True), "cfl": _CFL,
        "tmax": Flag(2.0, 0, 100, True)}),
    "rays": Experiment(_run_rays, {
        "n": Flag(9, 2, MAX_RAYS), "tmax": Flag(2.0, 0, 4, True),
        "tol": Flag(1e-6, 0, 0.1, True)}),
    "entropy-check": Experiment(_run_entropy_check, {
        "n": Flag(600, 4, 20000), "cfl": _CFL, "tmax": Flag(2.5, 0.01, 100),
        "seed": Flag(0, 0, 2**32 - 1)}),
    "asymptotics": Experiment(_run_asymptotics, {
        "n": Flag(2000, 8, 8000, even=True), "cfl": _CFL,
        "times": Flag((5.0, 10.0, 20.0, 30.0), 0, 60)}),
}
# Every flag and config key but --config, with its help text.
_HELP = {"experiment": f"one of {', '.join(EXPERIMENTS)}",
         "model": f"potential model, one of {', '.join(MODELS)}",
         "out": "output directory", "seed": "seed of randomized sweeps",
         "n": "cells, samples, table rows or rays, per experiment",
         "cfl": "CFL number of finite volume marches",
         "tmax": "final time or design horizon",
         "times": "comma separated output times",
         "tol": "the rays' exit and crossing tolerance"}


# ===== Entry point =====

def build_parser() -> argparse.ArgumentParser:
    """A parser that only collects each flag's text."""
    parser = argparse.ArgumentParser(
        prog="hetclaw",
        description="Deterministic experiment runner for the "
                    "space-dependent conservation law toolkit.")
    for key, text in _HELP.items():
        parser.add_argument(f"--{key}", help=text)
    parser.add_argument("--config",
                        help="JSON file whose entries override flags")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    context = ""
    try:
        config = resolve_config(args)
        # the headers hash the config as given; the runner sees it filled
        write = _Writer(config)
        filled = _filled(config)
        # a runner's refusal (the step budget's, say) names the settings
        context = f"experiment {config.experiment!r} with " + " ".join(
            f"--{key} " + ",".join(map(str, np.atleast_1d(
                getattr(filled, _FIELDS[key]))))
            for key in EXPERIMENTS[config.experiment].reads) + ": "
        EXPERIMENTS[config.experiment].run(MODELS[config.model](), filled,
                                           write)
    except (HetclawError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": context + str(exc)}))
        return 1
    print(json.dumps({"experiment": config.experiment,
                      "config": write.stamp["config"],
                      "outputs": write.paths}))
    return 0
