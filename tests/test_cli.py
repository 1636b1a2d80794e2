"""Command-line driver: determinism, precedence, headers and errors."""
from __future__ import annotations

import ast
import filecmp
import glob
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hetclaw
from hetclaw.cli import _FIELDS, EXPERIMENTS, MAX_TIMES, RunConfig, \
    build_parser, config_hash, main, resolve_config
from hetclaw.charsol import _arc_batch
from hetclaw.errors import DomainError
from hetclaw.flow import _MAX_RECORD

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
# A value other than the RunConfig default for each experiment setting.
OFF_DEFAULT = {"n": "5", "cfl": "0.3", "tmax": "1.5", "times": "1.0",
               "seed": "3", "tol": "1e-3"}


def run_ok(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def refused(capsys, tmp_path, *argv):
    """The message of a run that ``main`` refuses: exit code 1, a
    DomainError, and no output directory."""
    out = tmp_path / "o"
    code = main([*argv, "--out", str(out)])
    err = json.loads(capsys.readouterr().out)
    assert code == 1
    assert err["error"] == "DomainError"
    assert not out.exists()
    return err["message"]


def read_csv_body(path):
    lines = path.read_text().splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return head, body


def assert_numeric_rows(body):
    """Every field of every data row parses as a number."""
    for ln in body[1:]:
        for tok in ln.split(","):
            float(tok)


# ===== Determinism =====

def test_reruns_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_ok(capsys, "--experiment", "period", "--n", "10", "--out", str(a))
    run_ok(capsys, "--experiment", "period", "--n", "10", "--out", str(b))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


def test_config_hash_ignores_the_output_directory():
    base = RunConfig(experiment="period", n=10, out="somewhere")
    moved = RunConfig(experiment="period", n=10, out="elsewhere")
    other = RunConfig(experiment="period", n=12, out="somewhere")
    assert config_hash(base) == config_hash(moved)
    assert config_hash(base) != config_hash(other)


# ===== Precedence =====

def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    out = tmp_path / "via_config"
    cfg.write_text(json.dumps({"experiment": "period", "n": 8,
                               "out": str(out)}))
    payload = run_ok(capsys, "--experiment", "simulate", "--n", "999",
                     "--config", str(cfg))
    assert payload["experiment"] == "period"
    assert (out / "period.csv").exists()
    assert not (out / "simulate.csv").exists()


@pytest.mark.parametrize("override", [
    {"times": 5}, {"seed": None}, {"n": [3]}, {"cfl": None}, {"out": 5},
    {"n": 2.7}, {"tmax": float("inf")}, {"times": [0.5, float("nan")]},
    {"model": ["quartic"]},
])
def test_bad_config_values_fail_with_json(capsys, tmp_path, override):
    """Each value used to raise a raw TypeError, run with a silently
    substituted row count, or fail deep inside the quadrature."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "period", "n": 4, **override}))
    message = refused(capsys, tmp_path, "--config", str(cfg))
    assert re.search(rf"\b{next(iter(override))}\b", message)


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-3"],
                                   ["--tol", "0"], ["--tol", "nan"]])
def test_bad_flag_values_fail_with_json(capsys, tmp_path, flags):
    message = refused(capsys, tmp_path, "--experiment", "period", *flags)
    assert re.search(rf"\b{flags[0][2:]}\b", message)


@pytest.mark.parametrize("flag, value", [
    ("experiment", "nonsense"), ("model", "nonsense"), ("n", "abc"),
    ("n", "2.7"), ("cfl", "x"), ("tmax", "x"), ("times", "1,x"),
    ("seed", "1.5"), ("tol", "x")])
def test_unreadable_flag_values_fail_with_json(capsys, tmp_path, flag,
                                               value):
    """Each flag but --times used to print argparse's usage and exit 2,
    while the same value in a config file gave the JSON DomainError."""
    message = refused(capsys, tmp_path, "--experiment", "period",
                      f"--{flag}", value)
    assert re.search(rf"\b{flag}\b", message)


def test_valid_config_values_resolve_as_before(capsys, tmp_path):
    """Integral floats, numeric strings and lists still read as before."""
    cfg = tmp_path / "run.json"
    for doc, expected in [
            ({"experiment": "rays", "n": 4.0, "tol": "1e-6"},
             RunConfig(experiment="rays", n=4, tol=1e-6)),
            ({"experiment": "exact", "n": 4.0, "times": [1, 2.5]},
             RunConfig(experiment="exact", n=4, times=(1.0, 2.5)))]:
        cfg.write_text(json.dumps({**doc, "out": str(tmp_path / "o")}))
        payload = run_ok(capsys, "--config", str(cfg))
        assert payload["config"] == config_hash(expected)


@pytest.mark.parametrize("experiment, flag", [
    (name, flag) for name, spec in sorted(EXPERIMENTS.items())
    for flag in OFF_DEFAULT if flag not in spec.reads])
def test_ignored_settings_are_refused(capsys, tmp_path, experiment, flag):
    """Every experiment used to accept every flag, so a setting it never
    read changed the config hash in its headers and nothing else."""
    assert f"does not read {flag!r}" in refused(
        capsys, tmp_path, "--experiment", experiment, f"--{flag}",
        OFF_DEFAULT[flag])


def test_default_values_of_unread_settings_are_accepted(capsys, tmp_path):
    payload = run_ok(capsys, "--experiment", "period", "--n", "3",
                     "--cfl", "0.45", "--seed", "0", "--out", str(tmp_path))
    assert payload["config"] == config_hash(RunConfig("period", n=3))


def test_readme_lists_the_settings_each_experiment_reads():
    with open(README) as fh:
        lines = {m.group(1): m.group(2) for m in re.finditer(
            r"^- `([a-z-]+)`: (.*)$", fh.read(), re.MULTILINE)}
    assert sorted(lines) == sorted(EXPERIMENTS)
    for name, spec in EXPERIMENTS.items():
        listed = {flag: (default, span) for flag, default, span in
                  re.findall(r"`--([a-z]+)` \(([^;)]*); ([^)]*)\)",
                             lines[name])}
        assert sorted(listed) == sorted(spec.reads), name
        for flag, setting in spec.reads.items():
            default, span = listed[flag]
            assert [float(v) for v in default.split(",")] == \
                [float(v) for v in np.atleast_1d(setting.default)], \
                (name, flag)
            assert span == setting.span(), (name, flag)


_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.floats().map(repr), st.integers(-10, 10**6).map(str),
    st.text(max_size=8),
    st.lists(st.one_of(st.floats(), st.integers(-10, 200),
                       st.text(max_size=4)), max_size=MAX_TIMES + 2))


@settings(deadline=1000, max_examples=400)
@given(st.sampled_from(sorted(EXPERIMENTS)), st.sampled_from(sorted(_FIELDS)),
       _VALUES)
def test_config_values_resolve_in_range_or_are_refused_by_name(
        experiment, key, value):
    """Any value a config file can hold either resolves inside the
    experiment's table, or is refused by a DomainError naming its key."""
    args = build_parser().parse_args(["--experiment", experiment])
    setattr(args, key, value)
    try:
        config = resolve_config(args)
    except DomainError as exc:
        assert re.search(rf"\b{key}\b", str(exc)), str(exc)
        return
    reads = EXPERIMENTS[experiment].reads
    for flag, field in _FIELDS.items():
        given_value = getattr(config, field)
        if flag not in reads:
            assert given_value == getattr(RunConfig(experiment), field)
        elif given_value is not None:
            entries = given_value if flag == "times" else (given_value,)
            assert all(reads[flag].holds(v) for v in entries), (flag, config)


@pytest.mark.parametrize("argv, doc, message", [
    ([], [{"experiment": "period"}], "one JSON object"),
    ([], {"n": 4}, "no experiment selected"),
    (["--n", "4"], None, "no experiment selected")])
def test_runs_without_one_experiment_are_refused(capsys, tmp_path, argv,
                                                 doc, message):
    if doc is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    assert message in refused(capsys, tmp_path, *argv)


def test_unknown_config_keys_are_rejected(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "period", "bogus": 1}))
    assert "unknown config keys ['bogus']" in refused(
        capsys, tmp_path, "--config", str(cfg))


@pytest.mark.parametrize("content", [b"{", b"\xff"])
def test_config_files_that_are_not_utf8_json_are_refused(capsys, tmp_path,
                                                         content):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(content)
    assert str(cfg) in refused(capsys, tmp_path, "--config", str(cfg))


# ===== Machine-readable failure =====

def test_domain_errors_exit_nonzero_with_json(capsys, tmp_path):
    assert "well" in refused(capsys, tmp_path, "--experiment", "period",
                             "--model", "homogeneous")


def test_infinite_horizon_orbits_fail_with_json(capsys, tmp_path):
    assert "--tmax must be a finite float" in refused(
        capsys, tmp_path, "--experiment", "phase-portrait", "--tmax", "inf")


@pytest.mark.parametrize("flags", [["--times", "inf"], ["--cfl", "0"],
                                   ["--cfl", "1.5"], ["--cfl", "inf"],
                                   ["--times", "1e6"]])
def test_unbounded_simulations_fail_fast_with_json(tmp_path, flags):
    """An infinite horizon and --cfl 0 used to hang the finite-volume
    march, --cfl 1.5 and inf wrote a blown-up field, and a horizon of 1e6
    took 5.6e7 steps; run in a child process so a regression fails on the
    timeout instead of hanging."""
    src = os.path.dirname(os.path.dirname(hetclaw.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hetclaw", "--experiment", "simulate",
         "--n", "100", "--out", str(tmp_path / "o"), *flags],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == "DomainError"


@pytest.mark.parametrize("tmax", ["-1", "0"])
def test_phase_portrait_rejects_a_nonpositive_horizon(capsys, tmp_path,
                                                      tmax):
    """A negative horizon used to write orbits integrated backward as if
    they were the forward portrait."""
    assert "needs --tmax above 0 to 1000" in refused(
        capsys, tmp_path, "--experiment", "phase-portrait", "--tmax", tmax)


@pytest.mark.parametrize("experiment", ["exact", "asymptotics"])
def test_empty_time_lists_fail_before_writing(capsys, tmp_path, experiment):
    """``--times ,`` used to leave a header-only exact.csv behind with a
    bare ValueError, and to crash asymptotics with an IndexError."""
    assert "times" in refused(capsys, tmp_path, "--experiment", experiment,
                              "--times", ",", "--n", "16")


@pytest.mark.parametrize("experiment, flag, value", [
    ("exact", "--n", "1"), ("exact", "--n", "2"), ("inverse", "--n", "1"),
    ("asymptotics", "--n", "4"), ("asymptotics", "--n", "6"),
    ("asymptotics", "--n", "7"), ("asymptotics", "--n", "2001"),
    ("entropy-check", "--seed", "-1"), ("simulate", "--n", "1"),
    ("entropy-check", "--n", "1"), ("exact", "--n", "801"),
    ("inverse", "--n", "801"),
])
def test_unusable_flag_values_are_refused_by_name(capsys, tmp_path,
                                                  experiment, flag, value):
    """exact and inverse --n 1 used to name the derived cell count 2,
    asymptotics --n 4 to fail as a ValueError on a core window with no
    cell centre and an odd --n, after its march, on a centre at the
    shock, --seed -1 as numpy's ValueError, simulate and entropy-check
    --n 1 to name neither the flag nor the experiment, and exact and
    inverse --n 801 to write 802 samples under a header hashing 801."""
    message = refused(capsys, tmp_path, "--experiment", experiment, flag,
                      value)
    assert flag in message
    assert message.endswith(f"got {value}")
    if flag == "--n":
        assert repr(experiment) in message


def _past_each_upper_end():
    for name, spec in sorted(EXPERIMENTS.items()):
        for flag, setting in sorted(spec.reads.items()):
            yield name, f"--{flag}", str(setting.high + 1)
    yield "exact", "--times", ",".join(["1"] * (MAX_TIMES + 1))


@pytest.mark.parametrize("experiment, flag, value", [
    ("period", "--n", "100000000"), ("exact", "--n", "100000000"),
    ("entropy-check", "--n", "1000000000"), ("rays", "--n", "1001"),
    ("inverse", "--tmax", "-1"), ("entropy-check", "--tmax", "0"),
    ("exact", "--times", "-1"), ("simulate", "--times", "1000"),
    *_past_each_upper_end()])
def test_out_of_range_values_are_refused_at_once_by_name(
        capsys, tmp_path, experiment, flag, value):
    """period --n 1e8 used to run for days, exact --n 1e7 to end in a raw
    MemoryError, inverse --tmax -1 and entropy-check --tmax 0 to be refused
    without naming the flag."""
    start = time.perf_counter()
    message = refused(capsys, tmp_path, "--experiment", experiment, flag,
                      value)
    assert time.perf_counter() - start < 1.0
    assert flag in message


@pytest.mark.parametrize("cfl", ["1e-300", "1e-310", "5e-324"])
def test_step_budget_refusal_is_short_and_names_the_limit(capsys, tmp_path,
                                                          cfl):
    """--cfl 1e-300 used to print the 300-digit step count; at 1e-310 the
    count overflowed a float and at 5e-324 the step underflowed to 0,
    each a raw traceback."""
    message = refused(capsys, tmp_path, "--experiment", "simulate", "--n",
                      "100", "--cfl", cfl)
    assert "exceeds 10000000 steps" in message
    assert len(message) < 200


def test_step_budget_refusal_names_the_run(capsys, tmp_path):
    """Each value is in range, but together they ask the footprint march
    for 1.1e9 orbit-steps; the refusal used to name no flag."""
    message = refused(capsys, tmp_path, "--experiment", "inverse", "--n",
                      "10000", "--tmax", "100")
    assert message.startswith(
        "experiment 'inverse' with --n 10000 --cfl 0.45 --tmax 100.0: ")
    assert "orbit-steps" in message


def test_the_record_ceiling_admits_every_setting(quartic):
    """The largest records the flags allow stay under flow's ceiling on
    recorded values: entropy-check's 101 snapshots of --n cells, the
    --times snapshots of simulate and asymptotics, and the rasters of
    exact and asymptotics, a row of orbits and positions per time."""
    largest = {name: exp.reads["n"].high for name, exp in EXPERIMENTS.items()
               if "n" in exp.reads}
    rows = MAX_TIMES + 1
    orbits = {n: _arc_batch(quartic, 6.0, n)[0].size for n in (4096, 8192)}
    records = [101 * largest["entropy-check"],
               MAX_TIMES * largest["simulate"],
               MAX_TIMES * largest["asymptotics"],
               rows * (orbits[4096] + largest["exact"]),
               rows * (orbits[8192] + largest["asymptotics"])]
    assert max(records) <= _MAX_RECORD


def test_parser_rejects_unknown_experiments(capsys, tmp_path):
    """The flag used to exit 2 with argparse's usage; it now gives the
    config entry's refusal, word for word."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"experiment": "nonsense"}))
    refusals = [refused(capsys, tmp_path, *argv) for argv in
                (["--experiment", "nonsense"], ["--config", str(cfg)])]
    assert refusals[0] == refusals[1]
    assert "unknown experiment 'nonsense'" in refusals[0]


# ===== Headers on every artifact =====

def test_every_output_is_stamped(capsys, tmp_path):
    out = tmp_path / "stamped"
    payload = run_ok(capsys, "--experiment", "period", "--n", "10",
                     "--out", str(out))
    assert payload["outputs"]
    for path in payload["outputs"]:
        text = open(path).read()
        if path.endswith(".csv"):
            assert text.startswith("# experiment=period")
            assert "# config=" in text and "# units=" in text
        elif path.endswith(".json"):
            doc = json.loads(text)
            assert doc["experiment"] == "period"
            assert doc["config"] == payload["config"]
            assert "units" in doc
        elif path.endswith(".svg"):
            assert text.startswith("<!--")
            assert "experiment=period" in text


# Small settings of each experiment that writes a CSV.
_SMALL = {"phase-portrait": ["--tmax", "1"], "period": ["--n", "3"],
          "simulate": ["--n", "20", "--times", "0.5,0.2"],
          "exact": ["--n", "8", "--times", "1,0.5"],
          "inverse": ["--n", "20", "--tmax", "0.5"], "rays": ["--n", "3"],
          "asymptotics": ["--n", "8", "--times", "1,0.5"]}


def test_csv_columns_are_the_names_of_the_units_line(capsys, tmp_path):
    """A CSV's column line is written from its units line, so the two
    cannot disagree, and each data row has one field per column."""
    for name, flags in _SMALL.items():
        payload = run_ok(capsys, "--experiment", name, *flags,
                         "--out", str(tmp_path / name))
        paths = [p for p in payload["outputs"] if p.endswith(".csv")]
        assert paths, name
        for path in paths:
            head, body = read_csv_body(tmp_path / name / os.path.basename(path))
            units = [ln for ln in head if ln.startswith("# units=")]
            columns = re.findall(r"([^=,:]+):[^,]+", units[0])
            assert body[0] == ",".join(columns), path
            assert len(body) > 1, path
            assert all(len(row.split(",")) == len(columns)
                       for row in body[1:]), path


# ===== Experiment content =====

def test_period_table_small_amplitude_row(capsys, tmp_path):
    out = tmp_path / "period"
    run_ok(capsys, "--experiment", "period", "--n", "10", "--out", str(out))
    _, body = read_csv_body(out / "period.csv")
    assert body[0] == "p0,period,q_max"
    first = [float(tok) for tok in body[1].split(",")]
    assert first[0] == 0.01
    assert abs(first[1] / 2.0 - 1.110721) <= 1e-3
    doc = json.loads((out / "period.json").read_text())
    assert abs(doc["half_period_small_amplitude"] - 1.110721) <= 1e-3
    assert doc["shock_formation_time"] == pytest.approx(
        np.pi / (2.0 * np.sqrt(2.0)), abs=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_period_refuses_fewer_than_three_rows(capsys, tmp_path, n):
    """--n 1, 2 and 3 used to write the same 3-row table."""
    assert "--n" in refused(capsys, tmp_path, "--experiment", "period",
                            "--n", str(n))


@pytest.mark.parametrize("n", [3, 4])
def test_period_table_has_n_rows(capsys, tmp_path, n):
    run_ok(capsys, "--experiment", "period", "--n", str(n),
           "--out", str(tmp_path))
    _, body = read_csv_body(tmp_path / "period.csv")
    assert len(body) - 1 == n
    assert json.loads((tmp_path / "period.json").read_text())["rows"] == n


def test_phase_portrait_covers_all_classes(capsys, tmp_path):
    out = tmp_path / "orbits"
    run_ok(capsys, "--experiment", "phase-portrait", "--out", str(out))
    doc = json.loads((out / "phase_portrait.json").read_text())
    labels = {row["class"] for row in doc["orbits"]}
    assert labels == {"periodic", "separatrix", "escaping"}
    _, body = read_csv_body(out / "phase_portrait.csv")
    assert body[0] == "orbit,class,p0,t,q,p"
    qs = {}
    for ln in body[1:]:
        orbit, label, p0, t, q, p = ln.split(",")
        qs.setdefault(label, []).append(abs(float(q)))
    assert max(qs["periodic"]) < 1.0
    assert max(qs["separatrix"]) < 1.0
    assert max(qs["escaping"]) > 5.0


def test_free_phase_portrait_skips_the_missing_separatrix(capsys, tmp_path):
    """Without a well the separatrix launch is p0 = 0, which is dropped."""
    run_ok(capsys, "--experiment", "phase-portrait", "--model", "homogeneous",
           "--out", str(tmp_path))
    doc = json.loads((tmp_path / "phase_portrait.json").read_text())
    assert [row["orbit"] for row in doc["orbits"]] == [0, 1, 2, 3, 5, 6]
    assert {row["class"] for row in doc["orbits"]} == {"escaping"}


def test_simulate_marches_to_its_last_time(capsys, tmp_path):
    """simulate used to stop at --tmax, refusing a later time and clipping
    its default times to it."""
    run_ok(capsys, "--experiment", "simulate", "--n", "100", "--times",
           "3,0.5", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["snapshot_times"] == [0.5, 3.0]
    _, body = read_csv_body(tmp_path / "simulate.csv")
    assert {float(ln.split(",")[0]) for ln in body[1:]} == {0.5, 3.0}


def test_simulate_reports_the_formation_time(capsys, tmp_path):
    out = tmp_path / "sim"
    run_ok(capsys, "--experiment", "simulate", "--n", "400", "--out", str(out))
    doc = json.loads((out / "simulate.json").read_text())
    t_star = doc["shock_formation_time"]
    assert t_star is not None
    assert 1.0 <= t_star <= 1.25
    assert doc["snapshot_times"] == [0.5, 1.0, 1.2, 2.5]
    _, body = read_csv_body(out / "simulate.csv")
    assert body[0] == "t,x,u,asymptote"


def test_simulate_before_the_shock_reports_no_formation_time(capsys,
                                                            tmp_path):
    """A run that ends at t = 0.5 stops short of the shock, so detection
    finds no jump and the JSON writes null."""
    run_ok(capsys, "--experiment", "simulate", "--times", "0.5", "--n",
           "200", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "simulate.json").read_text())
    assert doc["shock_formation_time"] is None
    assert '"shock_formation_time": null' in (
        tmp_path / "simulate.json").read_text()


def test_exact_rows_cover_requested_times(capsys, tmp_path):
    out = tmp_path / "exact"
    run_ok(capsys, "--experiment", "exact", "--n", "16",
           "--times", "0.5,1.5", "--out", str(out))
    _, body = read_csv_body(out / "exact.csv")
    assert body[0] == "t,x,u"
    times = {float(ln.split(",")[0]) for ln in body[1:]}
    assert times == {0.5, 1.5}
    assert len(body) - 1 == 2 * 16


def test_exact_writes_each_distinct_time_once(capsys, tmp_path):
    """A repeated time used to be marched and written twice: --n 8
    --times 1,1 gave 16 rows at t = 1 and two identical curves."""
    bodies, curves = [], []
    for times in ("1,0.5,1", "0.5,1"):
        out = tmp_path / times
        run_ok(capsys, "--experiment", "exact", "--n", "8", "--times", times,
               "--out", str(out))
        bodies.append(read_csv_body(out / "exact.csv")[1])
        curves.append((out / "exact.svg").read_text().count("<polyline"))
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) - 1 == 2 * 8
    assert curves == [2, 2]


def test_asymptotics_exact_route_reaches_the_limit(capsys, tmp_path):
    """The exact column used to carry the raster's interpolation error
    (4.3e-2 at t = 30) rather than the solution's distance to the limit
    profile."""
    out = tmp_path / "asym"
    run_ok(capsys, "--experiment", "asymptotics", "--n", "400",
           "--times", "30", "--out", str(out))
    doc = json.loads((out / "asymptotics.json").read_text())
    last = doc["deviations_core_window"][-1]
    assert last["t"] == 30.0
    assert last["exact_vs_asymptote"] < 1e-4


def test_asymptotics_pairs_each_distinct_time_once(capsys, tmp_path):
    """A repeated time used to shift the exact rows against the FVM's
    deduplicated snapshots, reporting t = 1's exact row as t = 2's."""
    docs = []
    for times in ("2,1,1", "1,2"):
        out = tmp_path / times
        run_ok(capsys, "--experiment", "asymptotics", "--n", "40",
               "--times", times, "--out", str(out))
        docs.append(json.loads((out / "asymptotics.json").read_text()))
    assert docs[0]["deviations_core_window"] == \
        docs[1]["deviations_core_window"]


def test_inverse_reports_a_monotone_footprint(capsys, tmp_path):
    out = tmp_path / "inv"
    run_ok(capsys, "--experiment", "inverse", "--n", "400", "--out", str(out))
    doc = json.loads((out / "inverse.json").read_text())
    report = doc["report"]
    assert report["monotone"]
    assert report["round_trip_l1"] < 0.08
    assert doc["jump_tags"]
    _, body = read_csv_body(out / "inverse_footprint.csv")
    assert_numeric_rows(body)


def test_rays_report_interior_collisions(capsys, tmp_path):
    out = tmp_path / "rays"
    run_ok(capsys, "--experiment", "rays", "--n", "7", "--out", str(out))
    doc = json.loads((out / "rays.json").read_text())
    assert doc["crossings"] or doc["exits"]
    _, body = read_csv_body(out / "rays.csv")
    assert body[0] == "ray,t,q"
    assert_numeric_rows(body)


@pytest.mark.parametrize("tmax", ["-1", "0"])
def test_rays_reject_a_nonpositive_horizon(capsys, tmp_path, tmax):
    """A non-positive horizon used to write a fan that runs forward or
    does not move."""
    assert "needs --tmax above 0 to 4" in refused(
        capsys, tmp_path, "--experiment", "rays", "--tmax", tmax, "--n", "3")


@pytest.mark.parametrize("n", ["1001", "100000000"])
def test_rays_refuse_large_fans_at_once(capsys, tmp_path, n):
    """The crossing scan is quadratic in the ray count: 1,600 rays took
    33 s on a 2-core machine, and the step budget alone admitted 500,000."""
    start = time.perf_counter()
    message = refused(capsys, tmp_path, "--experiment", "rays", "--n", n)
    assert time.perf_counter() - start < 1.0
    assert message.endswith(f"got {n}")


def test_homogeneous_rays_fill_without_collisions(capsys, tmp_path):
    out = tmp_path / "hrays"
    run_ok(capsys, "--experiment", "rays", "--model", "homogeneous",
           "--n", "7", "--out", str(out))
    doc = json.loads((out / "rays.json").read_text())
    assert not doc["crossings"]
    assert not doc["exits"]
    assert doc["fill_ratio"] == pytest.approx(1.0, abs=0.05)


# ===== Output ownership =====

def test_only_the_cli_and_svg_writer_open_files():
    """Library modules compute; file formats live in the CLI (and the SVG
    writer it calls), so no other module may call open()."""
    src = os.path.dirname(hetclaw.__file__)
    openers = set()
    for path in glob.glob(os.path.join(src, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open" for node in ast.walk(tree)):
            openers.add(os.path.basename(path))
    assert openers == {"cli.py", "svgplot.py"}
