"""Command line front end running named experiments deterministically.

Every experiment writes CSV/JSON/SVG files into the output directory,
each carrying a header with the experiment id, a hash of the resolved
configuration, and the column units.  Identical configurations produce
byte-identical files; the only randomness (entropy test sweeps) is
seeded and the seed is recorded.

Configuration precedence is defaults < command line flags < JSON config
file, so a config file pins a run completely even when stray flags are
present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .charsol import asymptotic_profile, solution_grid
from .design import design_report, footprint, profile_from_solution, ray_fan
from .entropy import entropy_sweep, from_snapshots, reversed_shock_solution
from .errors import DomainError, HetclawError
from .flow import integrate
from .fvm import DEFAULT_CFL, Grid1D, detect_shock_formation, evolve, \
    step_datum
from .model import MODELS
from .period import invert_half_period, period_table, shock_time
from .shooting import DEFAULT_SHOOT_TOL
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


def config_hash(config: RunConfig) -> str:
    """Short stable digest of everything that shapes the outputs.

    The output directory is deliberately excluded: it says where files
    go, not what they contain.
    """
    payload = asdict(config)
    payload.pop("out")
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read(key: str, raw, kind=float, positive: bool = False):
    """``kind(raw)``, or a DomainError naming the config key.

    A float must be finite and an int exact (2.7 or true is not a
    count); ``positive`` also demands a value above 0.
    """
    try:
        value = kind(raw)
        if kind is int and (isinstance(raw, bool) or float(raw) != value):
            value = math.nan
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value) or (positive and value <= 0):
        raise DomainError(f"config {key!r} must be a finite"
                          f"{' positive' if positive else ''} "
                          f"{kind.__name__}, got {raw!r}")
    return value


def _parse_times(raw) -> tuple:
    if isinstance(raw, str):
        raw = [piece for piece in raw.split(",") if piece.strip()]
    if not isinstance(raw, (list, tuple)):
        raise DomainError(f"config 'times' must be a list, got {raw!r}")
    if not raw:
        raise DomainError("config 'times' must list at least one time")
    return tuple(_read("times", v) for v in raw)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags with an optional JSON config file (file wins)."""
    merged = {
        "experiment": args.experiment,
        "model": args.model,
        "out": args.out,
        "n": args.n,
        "cfl": args.cfl,
        "tmax": args.tmax,
        "times": args.times,
        "seed": args.seed,
        "tol": args.tol,
    }
    if args.config is not None:
        with open(args.config) as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise DomainError("config file must hold one JSON object")
        unknown = set(overrides) - set(merged)
        if unknown:
            raise DomainError(
                f"unknown config keys {sorted(unknown)}; "
                f"expected a subset of {sorted(merged)}")
        merged.update(overrides)
    if merged["experiment"] is None:
        raise DomainError("no experiment selected; pass --experiment "
                          "or put \"experiment\" in the config file")
    # list membership: an unhashable value fails here, not with TypeError
    if merged["experiment"] not in sorted(EXPERIMENTS):
        raise DomainError(f"unknown experiment {merged['experiment']!r}; "
                          f"choose from {sorted(EXPERIMENTS)}")
    if merged["model"] not in sorted(MODELS):
        raise DomainError(f"unknown model {merged['model']!r}; "
                          f"choose from {sorted(MODELS)}")
    if not isinstance(merged["out"], str):
        raise DomainError(f"config 'out' must be a path string, "
                          f"got {merged['out']!r}")

    def optional(key, kind=float, positive=False):
        raw = merged[key]
        return None if raw is None else _read(key, raw, kind, positive)

    return RunConfig(
        experiment=merged["experiment"],
        model=merged["model"],
        out=merged["out"],
        n=optional("n", int, positive=True),
        cfl=_read("cfl", merged["cfl"]),
        t_max=optional("tmax"),
        times=None if merged["times"] is None
        else _parse_times(merged["times"]),
        seed=_read("seed", merged["seed"], int),
        tol=optional("tol", positive=True),
    )


# ===== Output helpers =====

def _header_lines(config: RunConfig, units: str) -> tuple:
    return (f"experiment={config.experiment}",
            f"config={config_hash(config)}",
            f"units={units}")


def _write_json(path, config: RunConfig, units: str, payload: dict) -> None:
    doc = {"experiment": config.experiment,
           "config": config_hash(config),
           "units": units}
    doc.update(payload)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _svg_comment(config: RunConfig, units: str) -> str:
    return " ".join(_header_lines(config, units))


def _csv_rows(path, config: RunConfig, units: str, columns: str,
              rows) -> None:
    with open(path, "w") as fh:
        for line in _header_lines(config, units):
            fh.write(f"# {line}\n")
        fh.write(columns + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row) + "\n")


# ===== Experiments =====

def _run_phase_portrait(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    t_max = config.t_max if config.t_max is not None else 8.0
    if not t_max > 0.0:
        raise DomainError(f"phase portrait needs a positive horizon, "
                          f"got {t_max}")
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
        for t, q, p in zip(traj.times, traj.q, traj.p):
            rows.append((k, label, float(p0), float(t), float(q), float(p)))

    csv_path = os.path.join(out_dir, "phase_portrait.csv")
    _csv_rows(csv_path, config, units, "orbit,class,p0,t,q,p", rows)
    json_path = os.path.join(out_dir, "phase_portrait.json")
    _write_json(json_path, config, units,
                {"orbits": classes, "t_max": t_max})
    svg_path = os.path.join(out_dir, "phase_portrait.svg")
    write_svg(svg_path, curves, title="phase portrait",
              header_comment=_svg_comment(config, "x:position,y:momentum"))
    return [csv_path, json_path, svg_path]


def _run_simulate(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    n = config.n if config.n is not None else 2000
    t_max = config.t_max if config.t_max is not None else 2.5
    snaps = config.times if config.times is not None else \
        (0.5, 1.0, 1.2, 2.5)
    snaps = tuple(s for s in snaps if 0.0 <= s <= t_max) or (t_max,)
    grid = Grid1D(-4.0, 4.0, n)
    x = grid.centers()

    result = evolve(model, step_datum(grid), t_max, config.cfl, snaps)
    overlay = asymptotic_profile(model, x)
    units = "t:time,x:position,u:velocity,asymptote:velocity"
    rows = []
    curves = []
    for t, values in result.snapshots:
        curves.append((x, values, f"t={t:g}"))
        for xv, uv, av in zip(x, values, overlay):
            rows.append((float(t), float(xv), float(uv), float(av)))
    curves.append((x, overlay, "asymptote"))

    try:
        t_star = detect_shock_formation(model, step_datum(grid),
                                        min(2.0, t_max), cfl=config.cfl)
    except HetclawError:
        t_star = None

    csv_path = os.path.join(out_dir, "simulate.csv")
    _csv_rows(csv_path, config, units, "t,x,u,asymptote", rows)
    json_path = os.path.join(out_dir, "simulate.json")
    _write_json(json_path, config, units, {
        "domain": [grid.x_min, grid.x_max],
        "n": n,
        "cfl": config.cfl,
        "snapshot_times": list(snaps),
        "steps": result.steps,
        "shock_formation_time": t_star,
    })
    svg_path = os.path.join(out_dir, "simulate.svg")
    write_svg(svg_path, curves, title="finite volume snapshots",
              header_comment=_svg_comment(config, units))
    return [csv_path, json_path, svg_path]


def _run_exact(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    n = config.n if config.n is not None else 800
    n += n % 2
    times = config.times if config.times is not None else \
        (0.5, 1.0, 1.2, 2.5)
    times = tuple(sorted(times))
    xs = Grid1D(-4.0, 4.0, n).centers()
    U = solution_grid(model, times, xs)

    units = "t:time,x:position,u:velocity"
    rows = [(float(t), float(xv), float(uv))
            for i, t in enumerate(times)
            for xv, uv in zip(xs, U[i])]
    curves = [(xs, U[i], f"t={t:g}") for i, t in enumerate(times)]

    csv_path = os.path.join(out_dir, "exact.csv")
    _csv_rows(csv_path, config, units, "t,x,u", rows)
    svg_path = os.path.join(out_dir, "exact.svg")
    write_svg(svg_path, curves, title="semi-analytic profiles",
              header_comment=_svg_comment(config, units))
    return [csv_path, svg_path]


def _run_period(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    if model.separatrix_momentum <= 0.0:
        raise DomainError("period table needs a trapping well; "
                          f"model {config.model!r} has none")
    n = config.n if config.n is not None else 60
    p_hi = model.separatrix_momentum - 1e-3
    p0_values = np.unique(np.concatenate(
        [[0.01], np.linspace(0.02, p_hi, max(n - 1, 2))]))
    units = "p0:momentum,period:time,q_max:position"

    table = period_table(model, p0_values)
    small = next(row for row in table if row.p0 == 0.01)

    csv_path = os.path.join(out_dir, "period.csv")
    _csv_rows(csv_path, config, units, "p0,period,q_max",
              [(row.p0, row.period, row.q_max) for row in table])
    json_path = os.path.join(out_dir, "period.json")
    _write_json(json_path, config, units, {
        "shock_formation_time": shock_time(model),
        "half_period_small_amplitude": small.period / 2.0,
        "rows": int(p0_values.size),
    })
    svg_path = os.path.join(out_dir, "period.svg")
    write_svg(svg_path, [([s.p0 for s in table],
                          [s.period for s in table], "period")],
              title="period against launch momentum",
              header_comment=_svg_comment(config, units))
    return [csv_path, json_path, svg_path]


def _run_inverse(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    t = config.t_max if config.t_max is not None else 2.0
    n = config.n if config.n is not None else 800
    n += n % 2
    shoot_tol = config.tol if config.tol is not None else DEFAULT_SHOOT_TOL
    half = max(3.0, 2.0 * t + 1.0)
    xs = Grid1D(-half, half, n).centers()
    w = profile_from_solution(model, t, xs, shoot_tol)

    fm = footprint(model, t, w)
    report = design_report(fm, w, (-half, half), config.cfl)
    fm_units = "x:position,w:velocity,foot:position,p0:momentum"

    csv_path = os.path.join(out_dir, "inverse_footprint.csv")
    _csv_rows(csv_path, config, fm_units, "x,w,foot,p0",
              zip(fm.xs, fm.ws, fm.feet, fm.p0))
    json_path = os.path.join(out_dir, "inverse.json")
    _write_json(json_path, config, fm_units, {
        "horizon": t,
        "window": [-half, half],
        "report": report.as_dict(),
        "jump_tags": [(j.x, j.w_minus, j.w_plus) for j in w.jumps],
    })
    curves = [(xs, w.ws, "target")]
    if report.reconstructed is not None:
        curves.append((xs, report.reconstructed.sample(xs), "reconstructed"))
    svg_path = os.path.join(out_dir, "inverse.svg")
    write_svg(svg_path, curves, title="target and reconstructed datum",
              header_comment=_svg_comment(config, "x:position,w:velocity"))
    return [csv_path, json_path, svg_path]


def _run_rays(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    t = config.t_max if config.t_max is not None else 2.0
    n_rays = config.n if config.n is not None else 9
    kwargs = {}
    if config.tol is not None:
        kwargs = {"exit_tol": config.tol, "cross_tol": config.tol}
    if model.separatrix_momentum > 0.0 and t > shock_time(model):
        trace = invert_half_period(model, t)
        p_left, p_right = trace, -trace
    else:
        p_left, p_right = -2.0, 2.0
    report = ray_fan(model, t, 0.0, p_left, p_right, n_rays, **kwargs)
    units = "ray:index,t:time,q:position"

    csv_path = os.path.join(out_dir, "rays.csv")
    _csv_rows(csv_path, config, units, "ray,t,q",
              ((k, s, q) for k in range(report.momenta.size)
               for s, q in zip(report.times, report.positions[:, k])))
    json_path = os.path.join(out_dir, "rays.json")
    _write_json(json_path, config, units, report.as_dict())
    curves = [(report.positions[:, k], report.times, f"ray {k}")
              for k in range(report.momenta.size)]
    svg_path = os.path.join(out_dir, "rays.svg")
    write_svg(svg_path, curves, title="backward ray fan",
              header_comment=_svg_comment(config, "x:position,y:time"))
    return [csv_path, json_path, svg_path]


def _run_entropy_check(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    n = config.n if config.n is not None else 600
    t_max = config.t_max if config.t_max is not None else 2.5
    grid = Grid1D(-3.0, 3.0, n)
    marks = np.linspace(0.0, t_max, 101)
    result = evolve(model, step_datum(grid), t_max, config.cfl, marks)
    solution = from_snapshots(model, grid.centers(), result.snapshots)
    report = entropy_sweep(solution, 50, seed=config.seed)

    control_sol = reversed_shock_solution(
        model, np.linspace(0.0, t_max, 41), Grid1D(-2.0, 2.0, 256).centers())
    control = entropy_sweep(control_sol, 50, seed=config.seed)

    units = "k:velocity,residual:flux,floor:flux"
    json_path = os.path.join(out_dir, "entropy_check.json")
    _write_json(json_path, config, units, {
        "primary": report.as_dict(),
        "reversed_control": control.as_dict(),
        "primary_ok": report.ok,
        "control_flagged": not control.ok,
    })
    return [json_path]


def _run_asymptotics(config: RunConfig, out_dir: str) -> list:
    model = MODELS[config.model]()
    n = config.n if config.n is not None else 2000
    times = config.times if config.times is not None else \
        (5.0, 10.0, 20.0, 30.0)
    times = tuple(sorted(times))
    grid = Grid1D(-6.0, 6.0, n)
    x = grid.centers()
    result = evolve(model, step_datum(grid), times[-1], config.cfl, times)

    window = np.abs(x) <= 2.5
    xw = x[window]
    exact = solution_grid(model, times, xw, n_orbits=8192)
    overlay = asymptotic_profile(model, xw)
    units = ("t:time,x:position,u_fvm:velocity,u_exact:velocity,"
             "asymptote:velocity")
    rows = []
    summary = []
    core = np.abs(xw) <= 0.95
    for i, (t, values) in enumerate(result.snapshots):
        uw = values[window]
        for xv, uf, ue, av in zip(xw, uw, exact[i], overlay):
            rows.append((float(t), float(xv), float(uf), float(ue),
                         float(av)))
        summary.append({
            "t": float(t),
            "fvm_vs_asymptote": float(np.max(np.abs(uw - overlay)[core])),
            "exact_vs_asymptote": float(
                np.max(np.abs(exact[i] - overlay)[core])),
        })

    csv_path = os.path.join(out_dir, "asymptotics.csv")
    _csv_rows(csv_path, config, units, "t,x,u_fvm,u_exact,asymptote", rows)
    json_path = os.path.join(out_dir, "asymptotics.json")
    _write_json(json_path, config, units,
                {"deviations_core_window": summary, "core_half_width": 0.95})
    t_last, u_last = result.snapshots[-1]
    svg_path = os.path.join(out_dir, "asymptotics.svg")
    write_svg(svg_path, [(xw, u_last[window], f"fvm t={t_last:g}"),
                         (xw, exact[-1], f"exact t={t_last:g}"),
                         (xw, overlay, "asymptote")],
              title="long-time profiles",
              header_comment=_svg_comment(config, units))
    return [csv_path, json_path, svg_path]


EXPERIMENTS = {
    "phase-portrait": _run_phase_portrait,
    "simulate": _run_simulate,
    "exact": _run_exact,
    "period": _run_period,
    "inverse": _run_inverse,
    "rays": _run_rays,
    "entropy-check": _run_entropy_check,
    "asymptotics": _run_asymptotics,
}


# ===== Entry point =====

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetclaw",
        description="Deterministic experiment runner for the "
                    "space-dependent conservation law toolkit.")
    parser.add_argument("--experiment", choices=sorted(EXPERIMENTS),
                        help="which experiment to run")
    parser.add_argument("--model", default="quartic",
                        choices=sorted(MODELS), help="potential model")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--n", type=int, help="resolution knob "
                        "(cells, samples, or rays, per experiment)")
    parser.add_argument("--cfl", type=float, default=DEFAULT_CFL,
                        help="CFL number for finite volume marches")
    parser.add_argument("--tmax", type=float,
                        help="final time or design horizon")
    parser.add_argument("--times", help="comma separated output times")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sweeps")
    parser.add_argument("--tol", type=float,
                        help="shooting tolerance of inverse, exit and "
                        "crossing tolerance of rays")
    parser.add_argument("--config",
                        help="JSON file whose entries override flags")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        os.makedirs(config.out, exist_ok=True)
        outputs = EXPERIMENTS[config.experiment](config, config.out)
    except (HetclawError, OSError, ValueError, KeyError) as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc)}))
        return 1
    print(json.dumps({"experiment": config.experiment,
                      "config": config_hash(config),
                      "outputs": outputs}))
    return 0
