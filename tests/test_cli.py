import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hflow
from hflow import classify, cli, fields, flow, functionals, grid, nehari
from hflow.cli import (
    EXIT_CONFIG,
    EXIT_LEMMA,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    NonFiniteError,
    build_initial_condition,
    load_config,
    main,
    trajectory_columns,
    write_json,
    write_trajectory_csv,
)
from hflow.functionals import energy_E, isoperimetric_gap
from hflow.grid import l2_norm_sq, make_grid
from hflow.nehari import bubble_family, fiber_peak_energy, fibering_coeffs, lambda_star, project_nehari_delta


def write_config(path, **overrides):
    cfg = {
        "grid": {"n": 31},
        "physics": {"H": 1.0},
        "ic": {
            "type": "scaled-direction",
            "params": {
                "direction": {"type": "bubble", "center": [0.5, 0.5], "eps": 0.25},
                "lambda_multiple": 0.05,
            },
        },
        "time": {"dt0": 1e-3, "t_end": 0.05, "dt_min": 1e-10},
        "monitors": {"delta_list": [0.25, 0.75, 1.25], "record_every": 5},
        "well": {"eps_count": 8},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_missing_and_invalid_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == EXIT_CONFIG
    no_ic = tmp_path / "noic.json"
    no_ic.write_text(json.dumps({"grid": {"n": 31}}), encoding="utf-8")
    assert main(["simulate", "--config", str(no_ic)]) == EXIT_CONFIG


def test_usage_error_exit_code():
    assert main(["simulate"]) == EXIT_CONFIG  # missing --config
    assert main(["frobnicate", "--config", "x"]) == EXIT_CONFIG


def test_bad_parameter_values(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"n": 2})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    cfg = write_config(tmp_path / "c2.json", physics={"H": -1.0})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


@pytest.mark.parametrize("n", [3, 10])
def test_grid_too_coarse_for_bubble_family(tmp_path, capsys, n):
    cfg = write_config(tmp_path / "c.json", grid={"n": n})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"error: well.eps_min / well.eps_max: grid n = {n} is too coarse" in err
    assert "4h" in err and "eps_max = 0.35" in err and "n >= 11" in err
    assert not (tmp_path / "o" / "verdict.json").exists()


def test_load_config_checks_the_family_range_without_its_scales(tmp_path, monkeypatch):
    # the check needs only the family's floor: a first np.geomspace at load grew each forked sweep worker
    def geomspace(*args, **kwargs):
        raise AssertionError("load_config built the bubble family's scales")

    monkeypatch.setattr(np, "geomspace", geomspace)
    assert load_config(write_config(tmp_path / "good.json"))["grid"]["n"] == 31
    with pytest.raises(ConfigError, match="well.eps_min / well.eps_max: grid n = 7 is too coarse"):
        load_config(write_config(tmp_path / "coarse.json", grid={"n": 7}))


def test_grid_at_bubble_family_minimum_runs(tmp_path):
    cfg = write_config(tmp_path / "c.json", grid={"n": 11})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "verdict.json").exists()


@pytest.mark.parametrize("n", [63, 127])
def test_default_well_is_the_library_family(tmp_path, n):
    # with no well block the command's well is estimate_d's default family, row for row and bit for bit
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"grid": {"n": n}, "physics": {"H": 1.7}}), encoding="utf-8")
    g = make_grid(n)
    wp, lib = cli._well_parameters(load_config(path), g, 1.7), nehari.estimate_d(1.7, g)
    # repr, and so json, writes each float's shortest round-trip digits: equal text is equal bits
    assert json.dumps(dataclasses.asdict(wp)) == json.dumps(dataclasses.asdict(lib))
    assert len(wp.family_table) == 12


def test_solve_residual_miss_exits_numeric(tmp_path, capsys, monkeypatch):
    # no solve meets a residual bound of 1e-17: a numeric fault, never blow-up evidence
    monkeypatch.setattr(flow, "SOLVE_RESIDUAL_BOUND", 1e-17)
    cfg = write_config(
        tmp_path / "c.json",
        grid={"n": 15},
        ic={"type": "eigenmode", "params": {"kx": 1, "ky": 1}},
    )
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert "solve residual" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("cg_tol", [1e-10, 1e-17])
def test_config_cg_tol_is_ignored(tmp_path, cg_tol):
    # the solve's residual bound is fixed; a config that still sets time.cg_tol runs as one without it
    outputs = []
    for name, time in (("plain", {}), ("tol", {"cg_tol": cg_tol})):
        out = tmp_path / name
        cfg = write_config(tmp_path / f"{name}.json", time=time)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outputs.append([(out / f).read_bytes() for f in ("trajectory.csv", "verdict.json")])
    assert outputs[0] == outputs[1]


def test_loaded_configs_share_no_default_block():
    # the preset has no well block: every well key of the loaded config comes from the defaults
    cfg = load_config("presets/t21.json")
    cfg["well"]["center"][0] = 0.3
    cfg["well"]["eps_count"] = 3
    later = load_config("presets/t21.json")["well"]
    assert later["center"] == [0.5, 0.5] and later["eps_count"] == 12


def test_tiny_energy_verdict_reads_the_asymptotic_roots(tmp_path):
    # e/d = 5.4e-19: both roots lie outside the bisection brackets, under the floor 1e-9 and
    # within 1e-9 of 3/2, and come from the cubic's asymptotes, not from the bracket ends
    ic = {"type": "eigenmode", "params": {"amplitude": 1e-9}}
    cfg = write_config(tmp_path / "c.json", grid={"n": 63}, ic=ic)
    out = tmp_path / "o"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    details = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["verdict"]["details"]
    r = details["energy"] / details["d"]
    assert r < 1e-18
    assert details["delta1"] == pytest.approx(math.sqrt(r / 3.0), rel=1e-6)
    assert details["delta2"] == 1.5 - 2.0 * r / 9.0


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_non_finite_initial_datum_exits_numeric(tmp_path, capsys, command):
    # |u0|^2 overflows: a numeric fault before any integration, never blow-up evidence
    cfg = write_config(
        tmp_path / "c.json",
        grid={"n": 15},
        ic={
            "type": "scaled-direction",
            "params": {
                "direction": {"type": "bubble", "center": [0.5, 0.5], "eps": 0.25},
                "lambda_multiple": 1e160,
            },
        },
    )
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "non-finite" in err and "l2_sq = inf" in err and "dirichlet = inf" in err
    assert not (out / "verdict.json").exists()
    assert not (out / "trajectory.csv").exists()


# what fails first as a bubble datum at n = 15 is scaled up (None: the run stays finite).  The datum's
# functionals are finite below about 1e102, but 1.5 l2_sq^2 (about |u|^4) overflows from about 1e77: the
# concavity series is then non-finite from row 0, a numeric failure rather than blow-up evidence
_OVERFLOW_LADDER = {
    1e60: None,
    1e76: None,
    1e78: "trajectory has non-finite series",
    1e90: "trajectory has non-finite series",
    1e101: "trajectory has non-finite series",
    1e103: "initial datum has non-finite functionals",
    1e154: "initial datum has non-finite functionals",
    1e200: "initial datum has non-finite functionals",
}


@pytest.mark.parametrize("lambda_multiple", sorted(_OVERFLOW_LADDER))
def test_non_finite_trajectory_exits_numeric(tmp_path, capsys, lambda_multiple):
    cfg = write_config(
        tmp_path / "c.json",
        grid={"n": 15},
        ic={
            "type": "scaled-direction",
            "params": {
                "direction": {"type": "bubble", "center": [0.5, 0.5], "eps": 0.25},
                "lambda_multiple": lambda_multiple,
            },
        },
    )
    out = tmp_path / "o"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    failure = _OVERFLOW_LADDER[lambda_multiple]
    if failure is None:
        assert code == EXIT_OK
        assert np.all(np.isfinite(read_csv(out / "trajectory.csv")[1]))
    else:
        assert code == EXIT_NUMERIC
        assert failure in err
        assert not out.exists()  # neither artifact is written, so --out is never made
    if lambda_multiple == 1e101:
        assert "non-finite" in err and "concavity from t = 0" in err


def test_flow_overflow_is_one_line_on_stderr(tmp_path, capsys):
    # the flow's overflowing candidates raise no numpy warning (the suite makes them errors): the
    # command's one numerical-failure line is all of stderr
    cfg = {
        "grid": {"n": 15},
        "physics": {"H": 1.0},
        "ic": {
            "type": "scaled-direction",
            "params": {"direction": {"type": "bubble", "eps": 0.25}, "lambda_multiple": 1e101},
        },
        "time": {"dt0": 1e-3, "t_end": 0.05},
        "monitors": {"record_every": 5},
    }
    path = tmp_path / "flow-overflow.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "flow-overflow"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: trajectory has non-finite series") and err.count("\n") == 1, err
    assert not out.exists()


def test_negative_tol_d_exits_config(tmp_path, capsys):
    # a negative band would empty the critical regime: t31's datum (E - d = +4e-14) would read as t21
    cfg = json.loads(Path("presets/t31.json").read_text(encoding="utf-8"))
    cfg["monitors"]["tol_d"] = -1e-3
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "monitors.tol_d must be >= 0, got -0.001" in capsys.readouterr().err
    assert not (out / "verdict.json").exists()


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return counted


def test_classify_t52_samples_no_bounds(tmp_path, monkeypatch):
    # the e54 inequality settles t52, so the lambda/Lambda bounds are never read
    calls = []
    counted = _counting(calls, "sample_lambda_Lambda", nehari.sample_lambda_Lambda)
    monkeypatch.setattr(nehari, "sample_lambda_Lambda", counted)
    monkeypatch.setattr("hflow.classify.sample_lambda_Lambda", counted)
    out = tmp_path / "o"
    assert main(["classify", "--config", "presets/t52.json", "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "verdict.json").read_text(encoding="utf-8"))["verdict"]["applicable_theorem"] == "t52"
    assert calls == []


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_datum_is_measured_once(tmp_path, monkeypatch, command):
    calls = []
    monkeypatch.setattr(functionals, "report", _counting(calls, "report", functionals.report))
    cfg = write_config(tmp_path / "c.json")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert calls == ["report"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
def test_write_json_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "a.json"
    with pytest.raises(NonFiniteError):
        write_json(path, {"rows": [{"x": 1.0}, {"x": bad}]})
    assert not path.exists()


def test_non_finite_artifact_value_exits_numeric(tmp_path, monkeypatch, capsys):
    # a number bound for an artifact that is NaN is a numeric failure, never a bare NaN token
    cfg = write_config(tmp_path / "c.json")
    monkeypatch.setattr("hflow.functionals.a_of_delta", lambda delta: math.nan)
    out = tmp_path / "o"
    assert main(["compute-well-depth", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    assert "non-finite" in capsys.readouterr().err
    assert not (out / "well_depth.json").exists()


def _no_constants(token):
    raise ValueError(f"non-standard JSON constant {token}")


# the outcome the README presets table promises for each preset: (status, stop reason)
PRESET_OUTCOMES = {
    "t21": ("decayed-to-zero", None),
    "t31": ("decayed-to-zero", None),
    "t22": ("blowup-suspected", "gradient-threshold"),
    "t32": ("blowup-suspected", "gradient-threshold"),
    "t52": ("blowup-suspected", "gradient-threshold"),
    "t51_2": ("blowup-suspected", "gradient-threshold"),
}


@pytest.mark.parametrize("path", sorted(Path("presets").glob("t*.json")), ids=lambda p: p.stem)
def test_preset_artifacts_are_strict_and_finite(tmp_path, path):
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"), parse_constant=_no_constants)
    assert (verdict["run"]["status"], verdict["run"]["stop_reason"]) == PRESET_OUTCOMES[path.stem]
    header, rows = read_csv(out / "trajectory.csv")
    assert np.all(np.isfinite(rows))
    # the flow's state pass is the functionals' pass, so row 0 carries the verdict's bits
    first, details = dict(zip(header, rows[0])), verdict["verdict"]["details"]
    assert first["D"] == details["nehari"]
    assert first["h1_sq"] == details["dirichlet"]


def test_t22_stop_time_falls_as_dt0_halves(tmp_path):
    # the blow-up stop time is not converged in dt: each halving of dt0 keeps t22's verdict, status and
    # stop reason and stops strictly earlier (3.461, 3.083, 2.705 ms when measured; no time is pinned)
    cfg = json.loads(Path("presets/t22.json").read_text(encoding="utf-8"))
    cfg["monitors"]["record_every"] = 1
    t_last = []
    for dt0 in (5e-4, 2.5e-4, 1.25e-4):
        cfg["time"]["dt0"] = dt0
        path, out = tmp_path / f"{dt0:g}.json", tmp_path / f"{dt0:g}"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
        got = (verdict["verdict"]["applicable_theorem"], verdict["run"]["status"], verdict["run"]["stop_reason"])
        assert got == ("t22", *PRESET_OUTCOMES["t22"])
        t_last.append(verdict["run"]["t_last"])
    assert t_last[0] > t_last[1] > t_last[2]


def test_import_leaves_process_pool_unloaded():
    src = str(Path(hflow.__file__).resolve().parents[1])
    code = "import sys, hflow.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize(
    "section, key, literal", [("physics", "H", "NaN"), ("time", "dt0", "Infinity"), ("physics", "H", "1e999")]
)
def test_non_finite_config_values(tmp_path, section, key, literal):
    cfg = write_config(tmp_path / "c.json", **{section: {key: 12345.5}})
    cfg.write_text(cfg.read_text(encoding="utf-8").replace("12345.5", literal), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    with pytest.raises(ConfigError, match="finite"):
        load_config(cfg)


_INTEGER_FIELDS = [  # (field, command, config overrides that put the value in the field)
    ("corpus.count", "verify-lemmas", lambda v: {"corpus": {"count": v}, "seed": 1}),
    ("corpus.kmax", "verify-lemmas", lambda v: {"corpus": {"count": 2, "kmax": v}, "seed": 1}),
    ("seed", "verify-lemmas", lambda v: {"corpus": {"count": 2}, "seed": v}),
    ("well.eps_count", "compute-well-depth", lambda v: {"well": {"eps_count": v}}),
    ("ic.params.kx", "classify", lambda v: {"ic": {"type": "eigenmode", "params": {"kx": v}}}),
    ("ic.params.ky", "classify", lambda v: {"ic": {"type": "eigenmode", "params": {"ky": v}}}),
    ("ic.params.component", "classify", lambda v: {"ic": {"type": "eigenmode", "params": {"component": v}}}),
    ("ic.params.kmax", "classify", lambda v: {"ic": {"type": "random-bandlimited", "params": {"kmax": v}}, "seed": 3}),
    ("seed", "classify", lambda v: {"ic": {"type": "random-bandlimited", "params": {}}, "seed": v}),
    ("seed", "classify", lambda v: {"seed": v}),  # checked at load, also where the command draws nothing from it
    ("monitors.record_every", "simulate", lambda v: {"monitors": {"record_every": v}}),
    ("sweep.max_workers", "sweep", lambda v: {"sweep": {"lambda_multiples": [0.2], "max_workers": v}}),
]


@pytest.mark.parametrize("value", [3.5, True, "3"])
@pytest.mark.parametrize("field, command, overrides", _INTEGER_FIELDS)
def test_integer_config_fields_reject_non_integers(tmp_path, capsys, field, command, overrides, value):
    # int() would truncate 3.5 to 3 and read true as 1; the config error names the field instead
    cfg = write_config(tmp_path / "c.json", **overrides(value))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{field} must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()  # rejected when the config loads, before the output directory is made


_DIRECTION = {"type": "bubble", "eps": 0.25}


def _scaled(params):
    """Overrides that give the scaled-direction ic these params."""
    return {"ic": {"type": "scaled-direction", "params": params}}


_REAL_FIELDS = [  # (field, command, config overrides that put the value in the field)
    ("physics.H", "classify", lambda v: {"physics": {"H": v}}),  # checked when the config loads
    ("time.dt0", "simulate", lambda v: {"time": {"dt0": v}}),
    ("time.t_end", "simulate", lambda v: {"time": {"t_end": v}}),
    ("time.dt_min", "simulate", lambda v: {"time": {"dt_min": v}}),
    ("monitors.blowup_gradient_factor", "simulate", lambda v: {"monitors": {"blowup_gradient_factor": v}}),
    ("monitors.decay_l2_floor", "simulate", lambda v: {"monitors": {"decay_l2_floor": v}}),
    ("monitors.tol_d", "classify", lambda v: {"monitors": {"tol_d": v}}),
    ("well.eps_min", "compute-well-depth", lambda v: {"well": {"eps_min": v}}),
    ("well.eps_max", "compute-well-depth", lambda v: {"well": {"eps_max": v}}),
    ("ic.params.amplitude", "classify", lambda v: {"ic": {"type": "eigenmode", "params": {"amplitude": v}}}),
    ("ic.params.eps", "classify", lambda v: {"ic": {"type": "bubble", "params": {"eps": v}}}),
    ("ic.params.amplitude", "classify", lambda v: {"ic": {"type": "bubble", "params": {"amplitude": v}}}),
    (
        "ic.params.h1_norm",
        "classify",
        lambda v: {"ic": {"type": "random-bandlimited", "params": {"h1_norm": v}}, "seed": 3},
    ),
    ("ic.params.direction.eps", "classify", lambda v: _scaled({"direction": {"eps": v}, "lambda_multiple": 1})),
    ("ic.params.lambda_multiple", "classify", lambda v: _scaled({"direction": _DIRECTION, "lambda_multiple": v})),
    ("ic.params.energy_level", "classify", lambda v: _scaled({"direction": _DIRECTION, "energy_level": v})),
    ("ic.params.e54_margin", "classify", lambda v: _scaled({"direction": _DIRECTION, "e54_margin": v})),
    ("sweep.lambda_multiples", "sweep", lambda v: {"sweep": {"lambda_multiples": [0.2, v]}}),
]


@pytest.mark.parametrize(
    "field, command, overrides, value",
    [
        (*case, value)
        for case in _REAL_FIELDS
        for value in (True, "1.6", None)
        if not (case[0] == "ic.params.h1_norm" and value is None)  # a null h1_norm is its default: no rescaling
    ],
)
def test_real_config_fields_reject_non_numbers(tmp_path, capsys, field, command, overrides, value):
    # float() would read true as 1.0 and "1.6" as 1.6; the config error names the field instead
    cfg = write_config(tmp_path / "c.json", **overrides(value))
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"{field} must be a number, got {value!r}" in capsys.readouterr().err
    assert not any(out.glob("*"))


_SWEEP = {"sweep": {"lambda_multiples": [0.2, 1.6], "max_workers": 1}}  # a two-cell sweep block
_REJECTED = [  # (command, config overrides, error): before the schema, each exited 0 or named no field
    ("simulate", {"monitors": {"record_evry": 1}}, "unknown config key monitors.record_evry"),
    ("classify", {"grd": {"n": 15}}, "unknown config key grd"),
    (
        "classify",
        _scaled({"direction": _DIRECTION, "lambda_multpl": 1.0}),
        "unknown config key ic.params.lambda_multpl",
    ),
    ("sweep", {"sweep": {"lambda_multiples": [0.2], "max_wrkers": 1}}, "unknown config key sweep.max_wrkers"),
    (
        "verify-lemmas",
        {"corpus": {"count": 2, "saturation_probe": "no"}, "seed": 1},
        "corpus.saturation_probe must be true or false, got 'no'",
    ),
    (
        "classify",
        _scaled({"direction": {"center": [2, 3, 4]}, "lambda_multiple": 1.0}),
        "ic.params.direction.center must be a list of two numbers, got [2, 3, 4]",
    ),
    ("classify", {"well": {"center": [0.5]}}, "well.center must be a list of two numbers, got [0.5]"),
    ("classify", {"well": {"center": "ab"}}, "well.center must be a list of two numbers, got 'ab'"),
    # a center outside the unit square: well.center [3, 3] estimated d = 3,037,305 at n = 31, and a
    # lambda_multiple 1.2 datum classified as t22, low energy, where the default well gives t51.2
    ("classify", {"well": {"center": [3.0, 3.0]}}, "each of well.center must be < 1, got 3.0"),
    (
        "classify",
        {"ic": {"type": "bubble", "params": {"center": [0.5, 0.0]}}},
        "each of ic.params.center must be > 0, got 0.0",
    ),
    (
        "classify",
        _scaled({"direction": {"center": [-0.2, 0.5]}, "lambda_multiple": 1.0}),
        "each of ic.params.direction.center must be > 0, got -0.2",
    ),
    ("simulate", {"monitors": {"delta_list": "0.5"}}, "monitors.delta_list must be a list of numbers, got '0.5'"),
    ("simulate", {"monitors": {"delta_list": 0.5}}, "monitors.delta_list must be a list of numbers, got 0.5"),
    ("simulate", {"monitors": {"delta_list": [2.0]}}, "each of monitors.delta_list must be < 1.5, got 2.0"),
    # two deltas that share a trajectory column wrote a CSV with a duplicated header
    (
        "simulate",
        {"monitors": {"delta_list": [0.25, 0.2500001]}},
        "monitors.delta_list: two deltas of [0.25, 0.2500001] share a D_delta column",
    ),
    (
        "simulate",
        {"monitors": {"delta_list": [0.25, 0.25]}},
        "monitors.delta_list: two deltas of [0.25, 0.25] share a D_delta column",
    ),
    # fields the command does not read are checked too: the config is checked once, as a whole
    ("classify", {"seed": None}, "seed must be an integer, got None"),
    ("classify", {"time": {"dt0": -1e-3}}, "time.dt0 must be > 0, got -0.001"),
    ("simulate", {"sweep": {"max_workers": 2}}, "sweep.lambda_multiples is required"),
    (
        "compute-well-depth",
        {"ic": {"type": "sphere"}},
        "ic.type must be one of 'zero', 'eigenmode', 'bubble', 'random-bandlimited', 'scaled-direction', "
        "got 'sphere'",
    ),
    # a negative seed: before its bound, classify ran on it when nothing drew from it, and a draw failed
    # naming no field, after the output directory was made
    ("classify", {"seed": -1}, "seed must be >= 0, got -1"),
    ("verify-lemmas", {"corpus": {"count": 2, "seed": -1}}, "corpus.seed must be >= 0, got -1"),
    # a negative count ran no member and reported all_passed: true
    ("verify-lemmas", {"corpus": {"count": -3}, "seed": 1}, "corpus.count must be >= 0, got -3"),
    (
        "classify",
        {"ic": {"type": "random-bandlimited", "params": {"seed": -5}}},
        "ic.params.seed must be >= 0, got -5",
    ),
    ("verify-lemmas --seed -1", {"corpus": {"count": 2}}, "--seed must be >= 0, got -1"),
    # a negative max_workers ran the cells one after another
    ("sweep", {"sweep": {"lambda_multiples": [0.2, 1.6], "max_workers": -1}}, "sweep.max_workers must be >= 0, got -1"),
    # checks between fields: each made the output directory first, and under sweep every cell failed on
    # it, so the sweep exited 2
    ("simulate", {"time": {"dt0": 1e-3, "dt_min": 1e-3}}, "need 0 < dt_min < dt0, got dt_min=0.001, dt0=0.001"),
    ("sweep", {"time": {"dt0": 1e-3, "dt_min": 2e-3}, **_SWEEP}, "need 0 < dt_min < dt0, got dt_min=0.002, dt0=0.001"),
    (
        "simulate",
        {"well": {"eps_min": 0.3, "eps_max": 0.2}},
        "well.eps_min / well.eps_max: eps_min = 0.3 exceeds eps_max = 0.2",
    ),
    (
        "sweep",
        {"well": {"eps_min": 0.25, "eps_max": 0.2}, **_SWEEP},
        "well.eps_min / well.eps_max: eps_min = 0.25 exceeds eps_max = 0.2",
    ),
    (
        "simulate",
        {"grid": {"n": 15}, "well": {"eps_max": 0.2}},
        "well.eps_min / well.eps_max: grid n = 15 is too coarse for the bubble family: its floor 4h = 0.25 "
        "exceeds eps_max = 0.2; this range needs n >= 19",
    ),
    (
        "sweep",
        {"grid": {"n": 15}, "well": {"eps_max": 0.1}, **_SWEEP},
        "well.eps_min / well.eps_max: grid n = 15 is too coarse for the bubble family: its floor 4h = 0.25 "
        "exceeds eps_max = 0.1; this range needs n >= 39",
    ),
    # an empty bubble family: it exited 2 once the well was estimated, and under sweep every cell failed on it
    ("compute-well-depth", {"well": {"eps_count": 0}}, "well.eps_count must be >= 1, got 0"),
    ("sweep", {"well": {"eps_count": 0}, **_SWEEP}, "well.eps_count must be >= 1, got 0"),
    ("classify", {"well": {"eps_count": -2}}, "well.eps_count must be >= 1, got -2"),
    # an eigenmode index outside 1..n: kx 0 built the zero datum, and kx 16 at n = 15 a round-off field
    # classified as a real datum; an index above n is refused as the datum is built, once the well is known
    ("classify", {"ic": {"type": "eigenmode", "params": {"kx": 0}}}, "ic.params.kx must be >= 1, got 0"),
    ("classify", {"ic": {"type": "eigenmode", "params": {"ky": -2}}}, "ic.params.ky must be >= 1, got -2"),
    (
        "classify",
        {"grid": {"n": 15}, "ic": {"type": "eigenmode", "params": {"kx": 16}}},
        "eigenmode kx and ky must be 1 to n = 15, got kx = 16, ky = 1",
    ),
    # a negative h1_norm was taken as its absolute value
    (
        "classify",
        {"ic": {"type": "random-bandlimited", "params": {"h1_norm": -4}}, "seed": 3},
        "ic.params.h1_norm must be > 0, got -4",
    ),
    (
        "classify",
        {"ic": {"type": "random-bandlimited", "params": {"h1_norm": 0.0}}, "seed": 3},
        "ic.params.h1_norm must be > 0, got 0.0",
    ),
    # two multiples that print alike: one cell ran, cell_lm_0.123457, while index.json listed both
    (
        "sweep",
        {"sweep": {"lambda_multiples": [0.1234567, 0.1234568], "max_workers": 1}},
        "sweep.lambda_multiples: 0.1234567 and 0.1234568 share the cell name 0.123457",
    ),
    # a block that is not an object, a scaled-direction datum with no amplitude (refused as it is built,
    # once the well is known) and a sweep with no sweep block
    ("classify", {"grid": 5}, "grid must be a JSON object, got 5"),
    (
        "simulate",
        {"ic": {"params": {"direction": {"eps": 0.25}}}},
        "scaled-direction needs lambda_multiple, energy_level or e54_margin",
    ),
    ("sweep", {}, "sweep config needs sweep.lambda_multiples"),
]


@pytest.mark.parametrize("command, overrides, error", _REJECTED, ids=[error for _, _, error in _REJECTED])
def test_config_schema_rejects_when_the_config_loads(tmp_path, capsys, command, overrides, error):
    # an unknown key, a wrong kind or shape, or a value out of bounds: exit 1 naming the field, before any work
    cfg = write_config(tmp_path / "c.json", **overrides)
    out = tmp_path / "o"
    assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert f"error: {error}\n" in capsys.readouterr().err
    assert not out.exists()


def _bench_workloads(monkeypatch):
    """bench/workloads.py, imported by its path and left as it is."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks its module up while it loads
    spec.loader.exec_module(module)
    return module


def _assert_loaded_as_given(raw: dict, loaded: dict, name: str = "") -> None:
    for key, value in raw.items():
        if isinstance(value, dict):
            _assert_loaded_as_given(value, loaded[key], f"{name}{key}.")
        else:
            assert loaded[key] == value, f"{name}{key}"


@pytest.mark.parametrize("seed", [1, 2718, 31337])
@pytest.mark.parametrize("workload", ["decay", "blowup", "lemmas", "sweep"])
def test_bench_configs_load_as_given(tmp_path, monkeypatch, workload, seed):
    # the schema accepts every config the benchmark sends (time.cg_tol included), with the values it sent
    workloads = _bench_workloads(monkeypatch)
    for item in workloads.items_for(workload, seed, 2):
        path = tmp_path / f"{item.name}.json"
        path.write_text(json.dumps(item.config), encoding="utf-8")
        _assert_loaded_as_given(item.config, load_config(path))


def test_integer_values_are_valid_real_config_fields(tmp_path):
    overrides = _scaled({"direction": _DIRECTION, "energy_level": 1, "branch": "below-peak"})
    cfg = write_config(tmp_path / "c.json", physics={"H": 1}, **overrides)
    out = tmp_path / "o"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert verdict["ic"]["energy_level"] == 1.0 and verdict["verdict"]["applicable_theorem"] == "t31"


def test_integral_float_config_fields_are_read_as_integers(tmp_path):
    cfg = write_config(tmp_path / "c.json", corpus={"count": 2.0, "kmax": 5.0}, seed=6.0)
    out = tmp_path / "o"
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "lemma_report.json").read_text(encoding="utf-8"))["corpus_size"] == 2
    cfg = write_config(tmp_path / "e.json", ic={"type": "eigenmode", "params": {"kx": 2.0, "component": 1.0}})
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    ic = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["ic"]
    assert (ic["kx"], ic["component"]) == (2, 1) and type(ic["kx"]) is int


def test_random_ic_requires_seed(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        ic={"type": "random-bandlimited", "params": {"kmax": 4}},
    )
    out = tmp_path / "o"
    assert main(["classify", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    # a --seed override supplies it
    assert main(["classify", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == EXIT_OK


def _classify_verdict(out, cfg, *args):
    assert main(["classify", "--config", str(cfg), "--out", str(out), *args]) == EXIT_OK
    return (out / "verdict.json").read_text(encoding="utf-8")


def test_seed_override_changes_random_ic(tmp_path):
    # --seed outranks ic.params.seed: verdict.json's ic.seed is the override, and the datum is the one
    # that ic.params.seed = override gives
    ic = {"type": "random-bandlimited", "params": {"kmax": 4, "seed": 5}}
    cfg = write_config(tmp_path / "c.json", ic=ic)
    own = json.loads(_classify_verdict(tmp_path / "own", cfg))
    text = _classify_verdict(tmp_path / "o2", cfg, "--seed", "2")
    overridden = json.loads(text)
    assert own["ic"]["seed"] == 5 and overridden["ic"]["seed"] == 2
    assert own["verdict"]["details"] != overridden["verdict"]["details"]
    ic["params"]["seed"] = 2
    assert _classify_verdict(tmp_path / "p2", write_config(tmp_path / "p.json", ic=ic)) == text


def test_commands_table_drives_the_parser_and_the_dispatch(tmp_path, monkeypatch, capsys):
    # each subcommand is a COMMANDS entry, called as (cfg, out) through its module binding
    cfg = write_config(tmp_path / "c.json")
    assert main(["--help"]) == EXIT_OK
    assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().out
    for name, command in cli.COMMANDS.items():
        calls = []
        monkeypatch.setattr(cli, command.__name__, lambda cfg, out: calls.append(out) or 7)
        assert main([name, "--config", str(cfg), "--out", str(tmp_path / name)]) == 7
        assert calls == [tmp_path / name]
    assert main(["frobnicate", "--config", str(cfg)]) == EXIT_CONFIG


def test_compute_well_depth_artifact(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "o"
    assert main(["compute-well-depth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    art = json.loads((out / "well_depth.json").read_text(encoding="utf-8"))
    limit = 4.0 * math.pi / 3.0
    assert art["lower_bound"] == pytest.approx(limit, rel=1e-12)
    assert art["d"] >= 0.98 * limit
    assert art["d_of_delta"]["1"] == art["d"]
    assert art["d_of_delta"]["1.45"] == pytest.approx((3 - 2.9) * 1.45**2 * art["d"], rel=1e-12)
    assert len(art["family"]) == 8
    assert "bubbles" in art["provenance"]


def test_well_depth_scales_with_H(tmp_path):
    cfg = write_config(tmp_path / "c.json", physics={"H": 2.0})
    out = tmp_path / "o"
    assert main(["compute-well-depth", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    art = json.loads((out / "well_depth.json").read_text(encoding="utf-8"))
    assert art["lower_bound"] == pytest.approx(math.pi / 3.0, rel=1e-12)
    assert art["d"] >= 0.98 * math.pi / 3.0


def test_simulate_zero_ic(tmp_path):
    cfg = write_config(tmp_path / "c.json", ic={"type": "zero", "params": {}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "trajectory.csv")
    assert header == trajectory_columns([0.25, 0.75, 1.25])
    # all state columns vanish identically
    assert not rows[:, 2:].any()
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert verdict["verdict"]["well"] == "W"
    assert verdict["run"]["status"] == "reached-horizon"


def test_simulate_decay_preset_artifacts(tmp_path):
    cfg = write_config(tmp_path / "c.json", time={"t_end": 0.2})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "trajectory.csv")
    cols = {name: rows[:, i] for i, name in enumerate(header)}
    assert np.all(np.diff(cols["t"]) > 0)
    assert np.all(np.diff(cols["E"]) <= 1e-12)  # monotone energy on the decay run
    assert np.all(cols["D"] > 0)
    assert np.array_equal(cols["fprime"], cols["l2_sq"])
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))
    assert verdict["verdict"]["applicable_theorem"] == "t21"
    assert verdict["verdict"]["expected_outcome"] == "global-decay"


def test_simulate_determinism_and_roundtrip(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == EXIT_OK
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "verdict.json").read_bytes() == (out2 / "verdict.json").read_bytes()
    # artifact -> parse -> serialize is byte stable
    text = (out1 / "verdict.json").read_text(encoding="utf-8")
    again = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert again == text


def test_verify_lemmas_passes(tmp_path):
    cfg = write_config(tmp_path / "c.json", corpus={"count": 12, "kmax": 5}, seed=11)
    out = tmp_path / "o"
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    art = json.loads((out / "lemma_report.json").read_text(encoding="utf-8"))
    assert art["all_passed"] is True
    for name in (
        "isoperimetric",
        "nehari_sign_small_norm",
        "nehari_sign_negative_implies_large",
        "nehari_zero_norm_bound",
        "well_depth_curve",
        "fiber_map",
        "projected_norm_cap",
        "energy_split_identity",
    ):
        assert art["checks"][name]["passed"] is True, name
    assert art["checks"]["well_depth_curve"]["maximum_at_delta_1"] is True


def test_verify_lemmas_requires_seed(tmp_path):
    cfg = write_config(tmp_path / "c.json", corpus={"count": 4, "kmax": 4})
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_verify_lemmas_empty_corpus_warns(tmp_path):
    cfg = write_config(tmp_path / "c.json", corpus={"count": 0}, seed=3)
    out = tmp_path / "o"
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    art = json.loads((out / "lemma_report.json").read_text(encoding="utf-8"))
    assert "warning" in art and art["corpus_size"] == 0


def test_verify_lemmas_saturation_probe_fails_on_fine_grid(tmp_path):
    # the near-extremal bubble at the resolution floor exposes the discrete
    # isoperimetric slack once the grid is fine enough to nearly saturate it
    cfg = write_config(
        tmp_path / "c.json",
        grid={"n": 127},
        corpus={"count": 3, "kmax": 4, "saturation_probe": True},
        seed=5,
    )
    out = tmp_path / "o"
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(out)]) == EXIT_LEMMA
    art = json.loads((out / "lemma_report.json").read_text(encoding="utf-8"))
    assert art["all_passed"] is False
    assert art["checks"]["isoperimetric"]["passed"] is False
    assert art["checks"]["isoperimetric"]["violations"]


def _not_called(*args, **kwargs):
    raise AssertionError("verify-lemmas makes this pass already")


def test_verify_lemmas_reuses_its_passes_with_the_same_bits(tmp_path, monkeypatch):
    # the isoperimetric gaps come from the members' (dirichlet, volume) pass and the depth
    # curve's bubble from the family table; both read as the separate passes did
    H = 1.7
    path = write_config(
        tmp_path / "c.json", physics={"H": H}, corpus={"count": 6, "kmax": 5, "saturation_probe": True}, seed=4
    )
    out = tmp_path / "o"
    monkeypatch.setattr("hflow.functionals.isoperimetric_gap", _not_called)
    monkeypatch.setattr("hflow.nehari.optimal_bubble", _not_called)
    assert main(["verify-lemmas", "--config", str(path), "--out", str(out)]) in (EXIT_OK, EXIT_LEMMA)
    monkeypatch.undo()
    checks = json.loads((out / "lemma_report.json").read_text(encoding="utf-8"))["checks"]

    cfg = load_config(path)
    g = make_grid(31)
    wp = cli._well_parameters(cfg, g, H)
    family = list(bubble_family(g, H, [row["eps"] for row in wp.family_table], wp.center))
    probe = [u for _, u in family]
    gaps = [isoperimetric_gap(u) / fibering_coeffs(u, H).A for u in list(cli._corpus(cfg, g)) + probe]
    assert checks["isoperimetric"]["worst_gap_over_dirichlet"] == min(gaps)
    eps, best = min(family, key=lambda item: fiber_peak_energy(fibering_coeffs(item[1], H)))
    assert checks["well_depth_curve"]["best_eps"] == eps
    cbest = fibering_coeffs(best, H)
    for row in checks["well_depth_curve"]["rows"]:
        lam = project_nehari_delta(cbest, row["delta"])
        assert row["measured"] == energy_E(best.scaled(lam), H)


def test_verify_lemmas_takes_one_pass_per_member_and_scale(tmp_path, monkeypatch):
    # a direction's coefficients come from its member's by the sign flip, so fibering_coeffs runs
    # only inside estimate_d; each fiber-map direction reads E and D at its five scales off one
    # (dirichlet, volume) pass each, and no report; the Nehari sign checks read D_delta off the
    # direction's pair and make no pass
    inside = {"estimate_d": 0, "search": 0}
    calls = {"fibering_coeffs": [], "report": 0, "energy_E": 0, "nehari_D": 0, "derivs": 0}

    def scope(name, real):
        def f(*args, **kwargs):
            inside[name] += 1
            try:
                return real(*args, **kwargs)
            finally:
                inside[name] -= 1

        return f

    def counting(name, real):
        def f(*args, **kwargs):
            if name == "fibering_coeffs":
                calls[name].append(inside["estimate_d"] > 0)
            elif not inside["search"]:
                calls[name] += 1
            return real(*args, **kwargs)

        return f

    monkeypatch.setattr(nehari, "estimate_d", scope("estimate_d", nehari.estimate_d))
    monkeypatch.setattr(nehari, "golden_section_peak", scope("search", nehari.golden_section_peak))
    monkeypatch.setattr(nehari, "fibering_coeffs", counting("fibering_coeffs", nehari.fibering_coeffs))
    for name in ("report", "energy_E", "nehari_D"):
        monkeypatch.setattr(functionals, name, counting(name, getattr(functionals, name)))
    monkeypatch.setattr(grid, "derivs", counting("derivs", grid.derivs))  # the kernel of the one central pass
    count = 8
    cfg = write_config(tmp_path / "c.json", grid={"n": 15}, corpus={"count": count, "kmax": 5}, seed=7)
    assert main(["verify-lemmas", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    art = json.loads((tmp_path / "o" / "lemma_report.json").read_text(encoding="utf-8"))
    directions = art["checks"]["fiber_map"]["directions"]
    assert directions > 0
    eps_count = load_config(cfg)["well"]["eps_count"]
    assert calls["fibering_coeffs"] == [True] * eps_count
    # outside the search: no report (the fiber map and the split identity read the pairs of their
    # own passes), and the energies of the well-depth curve rows
    assert calls["report"] == 0
    assert calls["energy_E"] == len(cli.DELTA_TABLE)
    assert calls["nehari_D"] == 0
    # derivative passes outside the search: one per member, the fiber map's five scales, the family of
    # estimate_d and the depth-curve rows
    assert calls["derivs"] == count + 5 * directions + eps_count + len(cli.DELTA_TABLE)


@pytest.mark.parametrize("radius_factor, code", [(1.0, EXIT_OK), (20.0, EXIT_LEMMA)])
def test_nehari_sign_blocks_match_the_grid(tmp_path, monkeypatch, radius_factor, code):
    # the sign checks read D_delta off each direction's pair; D_delta of the scaled field on the grid,
    # at the blocks' own scales, gives the same verdicts: both pass as configured, and both fail once
    # r(delta) is 20 times too large (the corpus holds members of both signs of B)
    real_r = functionals.r_of_delta
    monkeypatch.setattr(functionals, "r_of_delta", lambda delta, H: radius_factor * real_r(delta, H))
    H = 1.0
    path = write_config(tmp_path / "c.json", corpus={"count": 6, "kmax": 5}, seed=6)
    assert main(["verify-lemmas", "--config", str(path), "--out", str(tmp_path / "o")]) == code
    checks = json.loads((tmp_path / "o" / "lemma_report.json").read_text(encoding="utf-8"))["checks"]

    small_norm = negative_implies_large = True
    signs = set()
    for u in cli._corpus(load_config(path), make_grid(31)):
        negative = fibering_coeffs(u, H).B < 0.0
        signs.add(negative)
        w = u if negative else u.scaled(-1.0)
        cw = fibering_coeffs(w, H)
        for delta in cli.NEHARI_DELTAS:
            r = functionals.r_of_delta(delta, H)
            s = 0.9 * r / math.sqrt(cw.A)
            small_norm &= functionals.nehari_D(w.scaled(s), H, delta) > 0.0
            c_neg = 1.5 * project_nehari_delta(cw, delta)
            if functionals.nehari_D(w.scaled(c_neg), H, delta) < 0.0:
                negative_implies_large &= c_neg * math.sqrt(cw.A) > r
    assert signs == {True, False}
    assert small_norm == negative_implies_large == (code == EXIT_OK)
    assert checks["nehari_sign_small_norm"]["passed"] == small_norm
    assert checks["nehari_sign_negative_implies_large"]["passed"] == negative_implies_large


def _one_alive_at_a_time(monkeypatch, module, name):
    """Wrap module.name so that each call asserts that at most one earlier result is still alive."""
    real = getattr(module, name)
    made = []

    def f(*args, **kwargs):
        alive = sum(ref() is not None for ref in made)
        assert alive <= 1, f"{name}: {alive} earlier results alive at call {len(made)}"
        out = real(*args, **kwargs)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(module, name, f)
    return made


def test_verify_lemmas_holds_one_member_at_a_time(tmp_path, monkeypatch):
    # corpus members, the bubble family of estimate_d and the saturation probe are streams:
    # each member is dropped before the one after the next is made
    members = _one_alive_at_a_time(monkeypatch, fields, "random_bandlimited")
    bubbles = _one_alive_at_a_time(monkeypatch, nehari, "bubble_direction")
    count = 6
    path = write_config(
        tmp_path / "c.json", grid={"n": 15}, corpus={"count": count, "kmax": 5, "saturation_probe": True}, seed=2
    )
    assert main(["verify-lemmas", "--config", str(path), "--out", str(tmp_path / "o")]) in (EXIT_OK, EXIT_LEMMA)
    art = json.loads((tmp_path / "o" / "lemma_report.json").read_text(encoding="utf-8"))
    assert len(members) == art["corpus_size"] == count
    eps_count = load_config(path)["well"]["eps_count"]
    # estimate_d's family, the depth curve's best bubble, then the probe
    assert len(bubbles) == eps_count + 1 + art["probe_size"] and art["probe_size"] == eps_count


def test_saturation_probe_is_the_wells_family(tmp_path, monkeypatch):
    # the probe bubbles, like estimate_d's family and the depth curve's bubble, sit at well.center
    centers = []
    real = nehari.bubble_direction

    def recording(g, H, center, eps):
        centers.append(tuple(center))
        return real(g, H, center, eps)

    monkeypatch.setattr(nehari, "bubble_direction", recording)
    path = write_config(
        tmp_path / "c.json",
        grid={"n": 15},
        well={"center": [0.4, 0.55]},
        corpus={"count": 2, "kmax": 4, "saturation_probe": True},
        seed=3,
    )
    assert main(["verify-lemmas", "--config", str(path), "--out", str(tmp_path / "o")]) in (EXIT_OK, EXIT_LEMMA)
    art = json.loads((tmp_path / "o" / "lemma_report.json").read_text(encoding="utf-8"))
    assert art["probe_size"] == load_config(path)["well"]["eps_count"]
    assert len(centers) == 2 * art["probe_size"] + 1 and set(centers) == {(0.4, 0.55)}


def test_trajectory_csv_fields_are_17_significant_digits(tmp_path):
    values = np.array([0.1, 1.0 / 3.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 2.0**-1074 * 3])
    delta_list = (0.25, 1.25)
    cols = [np.roll(values, j) for j in range(len(trajectory_columns(delta_list)))]
    tr = flow.TrajectoryRecord(
        params=flow.FlowParams(H=1.0, dt0=1e-3, t_end=1.0),
        delta_list=delta_list,
        t=cols[0],
        dt=cols[1],
        l2_sq=cols[2],
        h1_sq=cols[3],
        E=cols[4],
        D=cols[5],
        D_delta=np.stack(cols[6:8], axis=1),
        f=cols[8],
        fprime=cols[9],
        fsecond=cols[10],
        concavity=cols[11],
        energy_residual=cols[12],
        status="reached-horizon",
    )
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, tr)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0].split(",") == trajectory_columns(delta_list) and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == len(values)
    for k, row in enumerate(rows):
        assert len(row) == len(cols)
        for col, token in zip(cols, row):
            v = float(col[k])
            assert token == format(v, ".17g")
            if math.isfinite(v):
                back = float(token)
                assert back == v and math.copysign(1.0, back) == math.copysign(1.0, v)


def test_sweep_transition_and_consistency(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        sweep={"lambda_multiples": [0.2, 1.6], "max_workers": 2},
        time={"dt0": 1e-3, "t_end": 0.3},
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    index = json.loads((out / "index.json").read_text(encoding="utf-8"))
    cells = index["cells"]
    assert set(cells) == {"lambda_multiple=0.2", "lambda_multiple=1.6"}
    assert cells["lambda_multiple=0.2"]["expected_outcome"] == "global-decay"
    assert cells["lambda_multiple=1.6"]["expected_outcome"] == "blowup"
    assert cells["lambda_multiple=1.6"]["status"] == "blowup-suspected"
    # single-cell sweep reproduces a plain simulate run byte for byte
    cfg_single = write_config(
        tmp_path / "c1.json",
        sweep={"lambda_multiples": [0.2], "max_workers": 1},
        time={"dt0": 1e-3, "t_end": 0.3},
    )
    out_single = tmp_path / "o1"
    assert main(["sweep", "--config", str(cfg_single), "--out", str(out_single)]) == EXIT_OK
    cfg_sim = write_config(
        tmp_path / "c2.json",
        ic={
            "type": "scaled-direction",
            "params": {
                "direction": {"type": "bubble", "center": [0.5, 0.5], "eps": 0.25},
                "lambda_multiple": 0.2,
            },
        },
        time={"dt0": 1e-3, "t_end": 0.3},
    )
    out_sim = tmp_path / "o2"
    assert main(["simulate", "--config", str(cfg_sim), "--out", str(out_sim)]) == EXIT_OK
    assert (out_single / "cell_lm_0.2" / "trajectory.csv").read_bytes() == (
        out_sim / "trajectory.csv"
    ).read_bytes()


def test_sweep_duplicate_cells_deduplicated(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        sweep={"lambda_multiples": [0.2, 0.2], "max_workers": 2},
        time={"dt0": 1e-3, "t_end": 0.05},
    )
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    index = json.loads((out / "index.json").read_text(encoding="utf-8"))
    assert list(index["cells"]) == ["lambda_multiple=0.2"]
    assert index["values"] == [0.2, 0.2]
    assert (out / "cell_lm_0.2" / "trajectory.csv").exists()


def test_sweep_failed_cells_exit_numeric(tmp_path):
    cfg = write_config(tmp_path / "c.json", sweep={"lambda_multiples": [1e160, 1e161], "max_workers": 1})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    cells = json.loads((out / "index.json").read_text(encoding="utf-8"))["cells"]
    assert set(cells) == {"lambda_multiple=1e+160", "lambda_multiple=1e+161"}
    for cell in cells.values():
        assert cell["error"].startswith("NonFiniteError: initial datum has non-finite functionals")


def test_sweep_solve_residual_miss_records_error(tmp_path, monkeypatch):
    monkeypatch.setattr(flow, "SOLVE_RESIDUAL_BOUND", 1e-17)  # one worker: the cell runs in this process
    cfg = write_config(tmp_path / "c.json", sweep={"lambda_multiples": [0.2], "max_workers": 1})
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_NUMERIC
    cell = json.loads((out / "index.json").read_text(encoding="utf-8"))["cells"]["lambda_multiple=0.2"]
    assert cell["error"].startswith("SolverError: solve residual")
    assert "status" not in cell


def test_simulate_bytes_independent_of_blas_threads(tmp_path):
    # neither the solve nor the band-limited synthesis of the lemma corpus may route
    # through BLAS, whose threaded kernels change bits at n >= 127
    lemmas = write_config(tmp_path / "l.json", grid={"n": 127}, corpus={"count": 8, "kmax": 6}, seed=17)
    cfg = write_config(
        tmp_path / "c.json",
        grid={"n": 127},
        ic={
            "type": "scaled-direction",
            "params": {
                "direction": {"type": "bubble", "center": [0.5, 0.5], "eps": 0.25},
                "lambda_multiple": 0.5,
            },
        },
        time={"dt0": 5e-4, "t_end": 0.01},
        monitors={"record_every": 1},
    )
    src = str(Path(hflow.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads}"
        for command, config in (("simulate", cfg), ("verify-lemmas", lemmas)):
            proc = subprocess.run(
                [sys.executable, "-m", "hflow.cli", command, "--config", str(config), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
        names = ("trajectory.csv", "verdict.json", "lemma_report.json")
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of each process pool a sweep asks for; the pool runs the cells here, so no process starts."""
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    return asked


def test_sweep_pool_capped_at_cell_count(tmp_path, pool_sizes):
    cfg = write_config(tmp_path / "c.json", sweep={"lambda_multiples": [0.2, 1.6], "max_workers": 4})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert pool_sizes == [2]


@pytest.mark.parametrize(
    "affinity, cpu_count, pools",
    [
        ({0, 1, 2}, 64, [3]),  # the CPUs this process may run on, not all the machine's
        ({0, 1, 2, 3, 4, 5}, 6, [4]),  # capped at the cell count
        (None, 3, [3]),  # no affinity mask: the machine's CPUs
        (None, None, []),  # an unknown CPU count: one worker, so no pool
    ],
)
def test_sweep_zero_workers_counts_the_cpus(tmp_path, monkeypatch, pool_sizes, affinity, cpu_count, pools):
    # max_workers 0 took 4 workers whatever the CPUs
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    cfg = write_config(tmp_path / "c.json", sweep={"lambda_multiples": [0.1, 0.2, 0.3, 0.4], "max_workers": 0})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert pool_sizes == pools


def test_unreadable_config_and_unmakeable_out_exit_config(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for argv, path in (
        (["classify", "--config", str(tmp_path), "--out", str(tmp_path / "o")], tmp_path),
        (["classify", "--config", str(cfg), "--out", str(taken)], taken),
    ):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err, err
        assert "Traceback" not in err


_EVERY_COMMAND = {  # each command's config overrides at n = 15, beside write_config's base
    "simulate": {},
    "classify": {},
    "compute-well-depth": {},
    "verify-lemmas": {"corpus": {"count": 2}, "seed": 1},
    "sweep": {"sweep": {"lambda_multiples": [0.2], "max_workers": 1}},
}


@pytest.mark.parametrize("command", _EVERY_COMMAND)
def test_out_below_a_file_is_one_error_line_and_makes_nothing(tmp_path, capsys, command):
    # the first artifact's write finds --out unmakeable: exit 1, one error: line naming --out, no traceback
    cfg = write_config(tmp_path / "c.json", grid={"n": 15}, **_EVERY_COMMAND[command])
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    out = taken / "sub"
    before = sorted(tmp_path.rglob("*"))
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err, err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", _EVERY_COMMAND)
def test_out_below_a_file_runs_no_work(tmp_path, capsys, monkeypatch, command):
    # every command's work starts with the well estimate; main's check of --out comes before it
    estimated = []
    monkeypatch.setattr(cli, "_well_parameters", lambda *args: estimated.append(args))
    cfg = write_config(tmp_path / "c.json", grid={"n": 15}, **_EVERY_COMMAND[command])
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--out", str(taken / "sub")]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")
    assert estimated == []


def test_sweep_below_a_file_runs_no_cell(tmp_path, capsys, monkeypatch):
    # the check of --out's nearest existing ancestor comes before the first cell's classification and flow
    ran = []
    monkeypatch.setattr(cli, "_simulate_into", lambda cfg, out: ran.append(out))
    cfg = write_config(tmp_path / "c.json", grid={"n": 15}, **_EVERY_COMMAND["sweep"])
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out in (taken, taken / "sub", taken / "sub" / "deeper"):
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err, err
    assert ran == []


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="Python 3.10 keeps a call's arguments on the caller's stack until it returns"
)
def test_simulate_lets_the_datum_go(tmp_path, monkeypatch):
    # once the run's first state retires, neither run nor _simulate_into holds the datum built by
    # build_initial_condition: it is dead at every later derivative pass of the run.  From Python 3.11 an
    # inlined call moves its arguments into the callee's frame; 3.10 keeps _simulate_into's datum.pop() alive
    refs, alive = [], []
    build, passes = cli.build_initial_condition, flow.dirichlet_and_volume

    def building(*args, **kwargs):
        u0, desc = build(*args, **kwargs)
        refs.append(weakref.ref(u0))
        return u0, desc

    def counting(u, wedge=None):
        alive.extend(ref() is not None for ref in refs)
        return passes(u, wedge)

    monkeypatch.setattr(cli, "build_initial_condition", building)
    monkeypatch.setattr(flow, "dirichlet_and_volume", counting)
    path = write_config(tmp_path / "c.json", grid={"n": 15}, time={"dt0": 1e-3, "t_end": 0.01})
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    # ten accepted steps at dt0 (no halving at this amplitude), so the run's last eleven passes are its states';
    # the first and second state's see the datum, and no later one does
    assert alive[-11:] == [True, True] + [False] * 9


def test_two_worker_sweep_makes_an_absent_nested_out(tmp_path):
    # each of the two workers makes its cell's missing parents, racing the other on the shared ones
    cfg = write_config(tmp_path / "c.json", grid={"n": 15}, sweep={"lambda_multiples": [0.2, 1.6], "max_workers": 2})
    out = tmp_path / "a" / "b" / "sweep"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    cells = json.loads((out / "index.json").read_text(encoding="utf-8"))["cells"]
    assert sorted(Path(cell["artifacts"]).name for cell in cells.values()) == ["cell_lm_0.2", "cell_lm_1.6"]
    for name in ("cell_lm_0.2", "cell_lm_1.6"):
        assert (out / name / "trajectory.csv").is_file() and (out / name / "verdict.json").is_file()


def test_sweep_requires_scaled_direction(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        ic={"type": "zero", "params": {}},
        sweep={"lambda_multiples": [0.5]},
    )
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


def test_scaled_direction_optimal_eps(tmp_path):
    cfg = load_config(
        write_config(
            tmp_path / "c.json",
            ic={
                "type": "scaled-direction",
                "params": {
                    "direction": {"type": "bubble", "eps": "optimal"},
                    "lambda_multiple": 1.0,
                },
            },
        )
    )
    g = make_grid(31)
    u0, desc = build_initial_condition(cfg, g, 1.0)
    assert desc["direction"]["eps"] == pytest.approx(4.0 * g.h)
    assert desc["amplitude"] == pytest.approx(desc["lambda_star"])


def test_optimal_eps_follows_the_configured_well(tmp_path):
    # "optimal" is the minimizer's scale in the command's own family, not in nehari's default grid
    ic = {
        "type": "scaled-direction",
        "params": {"direction": {"type": "bubble", "eps": "optimal"}, "lambda_multiple": 1.0},
    }
    well = {"eps_min": 0.08, "eps_max": 0.3, "eps_count": 7}
    cfg = load_config(write_config(tmp_path / "c.json", grid={"n": 63}, ic=ic, well=well))
    g = make_grid(63)
    _, desc = build_initial_condition(cfg, g, 1.0)
    assert desc["direction"]["eps"] == 0.08
    assert build_initial_condition(cfg, g, 1.0, wp=cli._well_parameters(cfg, g, 1.0))[1] == desc


def test_energy_level_without_wp_reads_the_configured_well(tmp_path):
    # the t31 preset's datum under an off-center well: the IC's own estimate is the command's
    cfg = json.loads(Path("presets/t31.json").read_text(encoding="utf-8"))
    cfg["well"] = {"center": [0.3, 0.6]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    cfg = load_config(path)
    g = make_grid(63)
    u0, desc = build_initial_condition(cfg, g, 1.0)
    u0_cmd, desc_cmd = build_initial_condition(cfg, g, 1.0, wp=cli._well_parameters(cfg, g, 1.0))
    assert desc == desc_cmd and np.array_equal(u0.values, u0_cmd.values)
    assert desc["amplitude"] == pytest.approx(1.1098, abs=1e-4)


def test_lambda_sampler_ends_on_the_configured_well(tmp_path):
    # d and the high-energy bounds read one family: under an off-center well classify records the projected
    # norms of that well's bubbles, not of nehari's default family
    overrides = _scaled({"direction": _DIRECTION, "lambda_multiple": 1.1})
    path = write_config(tmp_path / "c.json", well={"center": [0.3, 0.6]}, **overrides)
    cfg, g = load_config(path), make_grid(31)
    wp = cli._well_parameters(cfg, g, 1.0)
    verdict = json.loads(_classify_verdict(tmp_path / "o", path))["verdict"]
    details = verdict["details"]
    kept = []
    for e, u in bubble_family(g, 1.0, [row["eps"] for row in wp.family_table], (0.3, 0.6)):
        c = fibering_coeffs(u, 1.0)
        if c.B < 0.0 and fiber_peak_energy(c) < details["energy"]:
            kept.append((lambda_star(c) * math.sqrt(l2_norm_sq(u)), e))
    assert verdict["applicable_theorem"] == "t51.2"
    assert (details["lambda_hat"], details["lambda_hat_eps"]) == min(kept)
    assert (details["Lambda_hat"], details["Lambda_hat_eps"]) == max(kept)
    centered = nehari.sample_lambda_Lambda(details["energy"], nehari.estimate_d(1.0, g))
    assert (details["lambda_hat"], details["Lambda_hat"]) != (centered[0][0], centered[1][0])


def test_classify_leaves_numpy_random_unloaded():
    # the high-energy bounds are read off the well's rows, so a t51.2 verdict draws no random field
    src = str(Path(hflow.__file__).resolve().parents[1])
    code = (
        "import sys, tempfile, hflow.cli\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    assert hflow.cli.main(['classify', '--config', 'presets/t51_2.json', '--out', out]) == 0\n"
        "sys.exit('numpy.random' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_optimal_energy_level_on_the_peak_above_it_classifies_t32(tmp_path):
    # the optimal direction's fiber peak is d itself, so the level sits on the peak; the
    # above-peak amplitude still leaves D < 0
    cfg = json.loads(Path("presets/t32.json").read_text(encoding="utf-8"))
    cfg["ic"]["params"]["direction"]["eps"] = "optimal"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["verdict"]
    assert verdict["applicable_theorem"] == "t32"
    assert verdict["details"]["nehari"] < 0.0


def test_preset_configs_parse():
    for name in ("t21", "t22", "t31", "t32", "t52", "t51_2"):
        cfg = load_config(f"presets/{name}.json")
        assert cfg["ic"]["type"] == "scaled-direction"
        assert cfg["grid"]["n"] == 63


@pytest.mark.parametrize("path", sorted(Path("presets").glob("t*.json")), ids=lambda p: p.stem)
def test_preset_classifies_to_its_theorem(tmp_path, path):
    out = tmp_path / "o"
    assert main(["classify", "--config", str(path), "--out", str(out)]) == EXIT_OK
    verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["verdict"]
    assert verdict["applicable_theorem"] == path.stem.replace("_", ".")


def test_energy_level_ic_mode(tmp_path, capsys):
    # the amplitude solver pins E(u0) at the requested level on either branch
    from hflow.classify import classify_initial
    from hflow.functionals import energy_E, nehari_D
    from hflow.nehari import estimate_d

    g = make_grid(31)
    H = 1.0
    wp = estimate_d(H, g)
    base = {
        "type": "scaled-direction",
        "params": {
            "direction": {"type": "bubble", "eps": 0.2},
            "energy_level": 1.0,
            "branch": "below-peak",
        },
    }
    cfg = load_config(write_config(tmp_path / "c.json", ic=base))
    u_lo, desc = build_initial_condition(cfg, g, H, wp=wp)
    assert energy_E(u_lo, H) == pytest.approx(wp.d, rel=1e-10)
    assert nehari_D(u_lo, H) > 0.0
    assert classify_initial(u_lo, wp).applicable_theorem == "t31"
    cfg["ic"]["params"]["branch"] = "above-peak"
    u_hi, _ = build_initial_condition(cfg, g, H, wp=wp)
    assert energy_E(u_hi, H) == pytest.approx(wp.d, rel=1e-10)
    assert nehari_D(u_hi, H) < 0.0
    assert classify_initial(u_hi, wp).applicable_theorem == "t32"
    # an energy level above the fiber peak is unreachable; the error names the multiple and the peak in units of d
    cfg["ic"]["params"]["energy_level"] = 100.0
    with pytest.raises(ValueError, match="unreachable") as err:
        build_initial_condition(cfg, g, H, wp=wp)
    assert str(err.value) == "ic.params.energy_level = 100 is unreachable on this fiber: its peak is 1.43·d"
    # through main it exits 1 once the well is known, before the first artifact: --out is never made,
    # while an --out that was there before stays as it was
    t31 = json.loads(Path("presets/t31.json").read_text(encoding="utf-8"))
    t31["grid"]["n"] = 15
    t31["ic"]["params"]["energy_level"] = 5.0
    path = tmp_path / "t31.json"
    path.write_text(json.dumps(t31), encoding="utf-8")
    kept = tmp_path / "kept"
    kept.mkdir()
    for out in (tmp_path / "a" / "b", kept):
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: ic.params.energy_level = 5 is unreachable on this fiber: its peak is 0.448·d\n"
    assert not (tmp_path / "a").exists()
    assert kept.is_dir() and not any(kept.iterdir())


@pytest.mark.parametrize("H", [1.0, 8.0])
def test_e54_margin_datum_is_low_energy_t22(tmp_path, H):
    # the e54_margin amplitude c exceeds 1.5 lambda*, so E(c w) = c^2 (A/2 + 2 c B/3) < 0 and D(c w) < 0 at
    # every H: the datum meets the high-energy blow-up inequality, and classify reads it as low-energy t22
    for margin in (1.1, 2.0, 5.0):
        ic = {"type": "scaled-direction", "params": {"direction": {"eps": 0.25}, "e54_margin": margin}}
        cfg = load_config(write_config(tmp_path / "c.json", physics={"H": H}, ic=ic))
        u0, desc, wp, verdict = cli._classified_datum(cfg)  # the datum from build_initial_condition
        assert desc["e54_margin"] == margin
        energy = energy_E(u0, H)
        assert energy <= 0.0 and verdict.details["energy"] == energy
        ok, meas = classify.check_e54(u0, H)
        assert ok and meas["energy"] == energy
        assert (verdict.energy_regime, verdict.applicable_theorem) == ("low", "t22")


def test_bubble_ic_at_the_scaled_direction_amplitude_runs_the_same(tmp_path):
    # a bubble ic whose amplitude is the ic.amplitude a scaled-direction run wrote is the same datum: the
    # same trajectory bytes, verdict and run block
    scaled = write_config(tmp_path / "scaled.json", ic={"params": {"direction": {"eps": 0.25}, "lambda_multiple": 1.6}})
    assert main(["simulate", "--config", str(scaled), "--out", str(tmp_path / "scaled")]) == EXIT_OK
    art = json.loads((tmp_path / "scaled" / "verdict.json").read_text(encoding="utf-8"))
    ic = {"type": "bubble", "params": {"center": [0.5, 0.5], "eps": 0.25, "amplitude": art["ic"]["amplitude"]}}
    bubble = write_config(tmp_path / "bubble.json", ic=ic)
    assert main(["simulate", "--config", str(bubble), "--out", str(tmp_path / "bubble")]) == EXIT_OK
    got = json.loads((tmp_path / "bubble" / "verdict.json").read_text(encoding="utf-8"))
    assert got["ic"]["type"] == "bubble" and art["run"]["status"] == "blowup-suspected"
    assert (got["verdict"], got["run"]) == (art["verdict"], art["run"])
    csv = [(tmp_path / side / "trajectory.csv").read_bytes() for side in ("scaled", "bubble")]
    assert csv[0] == csv[1]


@pytest.mark.parametrize("fault", [TypeError, KeyError])
def test_a_fault_inside_a_command_propagates_out_of_main(tmp_path, monkeypatch, fault):
    # only a ConfigError, ValueError or OSError is a config error; a programming fault is not passed off as one
    def failing(cfg, out):
        raise fault("a fault in the command")

    monkeypatch.setattr(cli, "cmd_classify", failing)
    cfg = write_config(tmp_path / "c.json")
    with pytest.raises(fault, match="a fault in the command"):
        main(["classify", "--config", str(cfg), "--out", str(tmp_path / "out")])
