"""Benchmark runner for hetclaw.

    python3 perfbench/run.py --workload point-late --seed 1 --seconds 20 --trace 0

Runs rounds of one workload (see workloads.py) until ``--seconds`` have
passed, checks every round's outputs, and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` rounds alternate traced and
untraced and the metrics are the per-layer ones.  ``--workload all`` runs
every workload in turn in one process and prefixes each metric with its
workload's name; ``peak_rss_mb`` then includes the earlier workloads.  Lines
before the last are a human-readable summary and the environment stamp.
The runner first re-executes itself with a fixed process layout (address
randomization off, ``PYTHONHASHSEED=0``); see README.md.
The full record, including spans, goes to ``.perfbench/`` at the
repository root.
"""

from __future__ import annotations

import ctypes
import os
import sys

# Pinned before numpy loads, here and in the set-up subprocesses.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

# The address-space layout of a process can slow the library's scalar loops
# by ~25% for that whole process while the speed probe runs as fast as ever,
# so the runner fixes the layout: it re-executes itself once with address
# randomization off and a fixed hash seed, which then also marks the
# re-executed process.  Both carry over to the set-up subprocesses.
ADDR_NO_RANDOMIZE = 0x0040000


def _personality() -> int:
    """This process's execution domain flags; -1 where they are unknown."""
    return ctypes.CDLL(None).personality(0xFFFFFFFF)


def _fix_layout() -> None:
    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    os.environ["PYTHONHASHSEED"] = "0"
    persona = _personality()
    if persona != -1:
        ctypes.CDLL(None).personality(persona | ADDR_NO_RANDOMIZE)
    os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    _fix_layout()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import SpeedClock, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

# Import plus first-call lazy set-up: the Gauss-Legendre nodes and the bump
# norm are built at import, the cached shock time on the first shot.  numpy
# is imported before the timer starts, so its import time is left out.  The
# speed probe runs right after, as the median of three passes.
SETUP_CODE = """
import sys, time
import numpy
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import hetclaw
hetclaw.delta(hetclaw.quartic_well(), 0.01, 0.5)
setup = time.perf_counter() - t0
sys.path.insert(0, {here!r})
from probe import SpeedProbe
probe = SpeedProbe()
print(setup, sorted(probe() for _ in range(3))[1])
"""


def _load_library():
    if not (SRC / "hetclaw" / "__init__.py").is_file():
        sys.exit(f"error: no hetclaw sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hetclaw
    if Path(hetclaw.__file__).resolve().parent != SRC / "hetclaw":
        sys.exit(f"error: imported hetclaw from {hetclaw.__file__}, "
                 f"not from {SRC}")
    return hetclaw


def measure_setup() -> list:
    """(set-up seconds, probe seconds) of SETUP_REPEATS fresh interpreters."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=os.environ.copy(), capture_output=True,
                             text=True, timeout=SETUP_TIMEOUT_S, check=True)
        setup, probe = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(probe)))
    return samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    persona = _personality()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_ENV,
        "aslr_off": persona != -1 and bool(persona & ADDR_NO_RANDOMIZE),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(os.getloadavg()),
    }


def run_round(workload, model, items, call, clock):
    """Run one round; returns (latencies, normalized latencies, outputs,
    errors) per item, both latencies read off ``clock``."""
    latencies, norm, outputs, errors = [], [], [], []
    for item in items:
        with clock:
            try:
                outputs.append(workload.item(model, item, call))
                errors.append(None)
            except Exception:
                # a raising item is a failed item; the round goes on
                outputs.append(None)
                errors.append(traceback.format_exc(limit=3))
        latencies.append(clock.raw)
        norm.append(clock.norm)
    return latencies, norm, outputs, errors


def bench(workload, model, seed: int, seconds: float, traced: bool,
          setup: list, clock: SpeedClock) -> dict:
    """Rounds of one workload for ``seconds``; returns metrics and record."""
    # both import hetclaw, so they load after _load_library
    import tracing
    from workloads import round_rng

    # traced rounds probe only between items, so no probe lands in a span
    edges = SpeedClock(clock.probe, period=0.0)
    min_rounds = 2 if traced else 1
    rounds = []
    begin = time.perf_counter()
    while True:
        r = len(rounds)
        items = workload.inputs(round_rng(seed, r))
        # traced runs alternate, starting untraced: round 0 of a process
        # pays for its first large allocations, which is not tracing cost
        tracer = tracing.Tracer() if traced and r % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            lat, norm, outputs, errors = run_round(
                workload, model, items,
                tracing.direct if tracer is None else tracer.call,
                clock if tracer is None else edges)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if r == 0:
            # before any gate runs: the gates allocate for themselves
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reasons = workload.check(model, items, outputs)
        rounds.append({
            "round": r, "traced": tracer is not None, "wall_s": sum(lat),
            "wall_norm_s": sum(norm), "latency_s": lat,
            "latency_norm_s": norm, "items": [repr(i) for i in items],
            "failures": [e or why for e, why in zip(errors, reasons)],
            "layers": None if tracer is None
            else tracing.layer_metrics(tracer.spans),
            "trace_overhead_s": None if tracer is None else tracer.overhead,
            "spans": None if tracer is None else tracer.dump(),
        })
        if (len(rounds) >= min_rounds
                and time.perf_counter() - begin >= seconds):
            break

    untraced = [rnd for rnd in rounds if not rnd["traced"]]
    latencies = [x for rnd in untraced for x in rnd["latency_s"]]
    raw = {"setup_s": statistics.median(t for t, _ in setup),
           "wall_s": statistics.median(rnd["wall_s"] for rnd in untraced),
           "query_p50_ms": 1e3 * statistics.median(latencies)}
    if traced:
        layers = [rnd["layers"] for rnd in rounds if rnd["traced"]]
        # counts from round 1 (identical on reruns), times as medians
        metrics = {name: layers[0][name] if name in tracing.COUNT_METRICS
                   else statistics.median(lay[name] for lay in layers)
                   for name in layers[0]}
        traced_rounds = [rnd for rnd in rounds if rnd["traced"]]
        metrics["trace.wall_s"] = statistics.median(
            rnd["wall_s"] for rnd in traced_rounds)
        metrics["trace.overhead_s"] = statistics.median(
            rnd["trace_overhead_s"] for rnd in traced_rounds)
        units = {name: tracing.unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(
                t * SpeedProbe.NOMINAL_S / p for t, p in setup),
            "wall_norm_s": statistics.median(
                rnd["wall_norm_s"] for rnd in untraced),
            "query_p50_norm_ms": 1e3 * statistics.median(
                x for rnd in untraced for x in rnd["latency_norm_s"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_norm_s": "s",
                 "query_p50_norm_ms": "ms", "peak_rss_mb": "MB"}
    failures = [f for rnd in rounds for f in rnd["failures"]]
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "attempted": len(failures),
            "failed": sum(f is not None for f in failures),
            "samples": len(latencies), "metrics": metrics, "units": units,
            "raw": raw, "setup_s": setup, "rounds": rounds}


def report(result: dict, trace: int) -> None:
    """Summary lines, then the full record under OUT_DIR."""
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / (f"{result['workload']}-seed{result['seed']}"
                        f"-trace{trace}.json")
    with open(record, "w") as fh:
        json.dump(result, fh)
    failed, attempted = result["failed"], result["attempted"]
    print(f"# {result['workload']} seed={result['seed']} trace={trace}: "
          f"{len(result['rounds'])} rounds, failed_ratio {failed}/"
          f"{attempted} = {failed / attempted:.4g}; query_p50 over "
          f"{result['samples']} untraced items; record "
          f"{record.relative_to(ROOT)}")
    for name, value in result["raw"].items():
        print(f"# {result['workload']} {name} = {value:.6g} "
              f"(raw, not speed-normalized)")
    for rnd in result["rounds"]:
        for item, why in zip(rnd["items"], rnd["failures"]):
            if why is not None:
                print(f"# FAILED round {rnd['round']} {item}: "
                      f"{why.strip().splitlines()[-1]}")
    for name, value in result["metrics"].items():
        print(f"# {result['workload']} {name} = {value:.6g} "
              f"{result['units'][name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload "
                             "in one process (metrics then carry the "
                             "workload name as a prefix)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    hc = _load_library()
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be 'all' or one of {list(WORKLOADS)}")
    env = environment()
    model = hc.quartic_well()
    hc.delta(model, 0.01, 0.5)
    setup = measure_setup()
    clock = SpeedClock(SpeedProbe())

    results = []
    for name in names:
        result = bench(WORKLOADS[name], model, args.seed, args.seconds,
                       bool(args.trace), setup, clock)
        env["loadavg_end"] = list(os.getloadavg())
        result["env"] = dict(env)
        report(result, args.trace)
        results.append(result)
    print(f"# env {json.dumps(env)}")

    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{name}" if prefix else name):
                    {"value": value, "unit": r["units"][name]}
                    for r in results for name, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
