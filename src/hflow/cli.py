"""Command-line driver: experiment configs, initial-condition library, artifacts.

Subcommands (all take --config <path>, optional --out <dir> and --seed):

    simulate            classify + integrate, write trajectory.csv + verdict.json
    classify            verdict for the initial datum only
    compute-well-depth  estimate d, tabulate the depth curve, write JSON
    verify-lemmas       run the structural checkers over a seeded corpus
    sweep               grid of scaled-direction amplitudes, one run per cell

Exit codes: 0 success, 1 config/usage error, 2 numerical hard failure,
3 lemma-verification failure.  Artifacts are UTF-8: CSV with a fixed column
order and 17-significant-digit floats, JSON with sorted keys; identical
configs run into the same --out produce byte-identical outputs (a sweep's
index.json records each cell's directory under --out as given).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import classify, fields, flow, functionals, nehari
from .flow import trajectory_columns  # noqa: F401 -- the CSV header, part of the CLI's interface
from .functionals import NonFiniteError
from .grid import GridSpec, VectorField, dirichlet_and_volume, l2_norm_sq, make_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_LEMMA = 3

DELTA_TABLE = (0.25, 0.5, 0.75, 1.0, 1.25, 1.45)
NEHARI_DELTAS = (0.5, 1.0, 1.25)  # the deltas of verify-lemmas' Nehari sign checks


class ConfigError(ValueError):
    pass


# the two failure families: main exits 1 or 2 on them, and a sweep cell records either; anything else is a fault
CONFIG_FAILURES = (ValueError, OSError)  # ValueError covers ConfigError
NUMERIC_FAILURES = (flow.SolverError, nehari.EstimationError, NonFiniteError)


# ---------------------------------------------------------------------------
# config schema: every field's kind, default and bounds, checked once when the config loads

REQUIRED = object()  # no default: a config that leaves the field out is an error
OPTIONAL = object()  # no default: a field left out stays out of the loaded config

# kinds, each as a config error names it
INTEGER, NUMBER, FLAG, TEXT, OBJECT = "an integer", "a number", "true or false", "a string", "a JSON object"
NUMBERS, SOME_NUMBERS, PAIR = "a list of numbers", "a non-empty list of numbers", "a list of two numbers"
_LENGTHS = {NUMBERS: range(sys.maxsize), SOME_NUMBERS: range(1, sys.maxsize), PAIR: range(2, 3)}
_BOUNDS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


@dataclasses.dataclass(frozen=True)
class Field:
    """A config field: its kind (a block of fields, or None to take only `words`), its default, the
    bounds of its number or of each number of its list ("> 0, < 1.5"), and words taken as they are."""

    kind: object
    default: object = OPTIONAL
    bounds: str = ""
    words: tuple = ()


_CENTER = Field(PAIR, [0.5, 0.5], "> 0, < 1")  # a point of the unit square

IC_PARAMS = {  # ic.params of each ic.type
    "zero": {},
    "eigenmode": {"kx": Field(INTEGER, 1, ">= 1"), "ky": Field(INTEGER, 1, ">= 1"),  # <= n: checked as it is built
                  "amplitude": Field(NUMBER, 1.0), "component": Field(INTEGER, 0, ">= 0, <= 2")},
    "bubble": {"center": _CENTER, "eps": Field(NUMBER, 0.25, "> 0"), "amplitude": Field(NUMBER, 1.0)},
    "random-bandlimited": {"seed": Field(INTEGER, bounds=">= 0"), "kmax": Field(INTEGER, 6, ">= 1"),
                           "h1_norm": Field(NUMBER, None, "> 0", words=(None,))},  # null: no rescaling
    "scaled-direction": {
        "direction": {"type": Field(None, "bubble", words=("bubble",)), "center": _CENTER,
                      "eps": Field(NUMBER, 0.25, "> 0", words=("optimal",))},
        # the amplitude: the first of these three that is given (a sweep gives lambda_multiple)
        "lambda_multiple": Field(NUMBER),
        "energy_level": Field(NUMBER, bounds="> 0"),
        "e54_margin": Field(NUMBER, bounds="> 1"),
        "branch": Field(None, "below-peak", words=("below-peak", "above-peak")),
    },
}

CONFIG_SCHEMA = {
    "seed": Field(INTEGER, bounds=">= 0"),
    "grid": {"n": Field(INTEGER, 63, ">= 3")},
    "physics": {"H": Field(NUMBER, 1.0, "> 0")},
    "ic": Field({"type": Field(None, REQUIRED, words=tuple(IC_PARAMS)), "params": Field(OBJECT, {})}),
    # cg_tol is ignored: every solve checks the fixed flow.SOLVE_RESIDUAL_BOUND
    "time": {"dt0": Field(NUMBER, 5e-4, "> 0"), "t_end": Field(NUMBER, 1.0, "> 0"),
             "dt_min": Field(NUMBER, 1e-10, "> 0"), "cg_tol": Field(NUMBER)},
    "monitors": {
        "delta_list": Field(NUMBERS, [0.25, 0.75, 1.25], f"> 0, < {functionals.DELTA_MAX:g}"),
        "record_every": Field(INTEGER, 5, ">= 1"),
        "blowup_gradient_factor": Field(NUMBER, 1e4, "> 0"),
        "decay_l2_floor": Field(NUMBER, 1e-16, "> 0"),
        "tol_d": Field(NUMBER, 1e-3, ">= 0"),
    },
    "well": {"eps_min": Field(NUMBER, "4h", "> 0", words=("4h",)), "eps_max": Field(NUMBER, 0.35, "> 0"),
             "eps_count": Field(INTEGER, 12, ">= 1"), "center": _CENTER},
    "corpus": {"count": Field(INTEGER, 50, ">= 0"), "kmax": Field(INTEGER, 6, ">= 1"),
               "seed": Field(INTEGER, bounds=">= 0"), "saturation_probe": Field(FLAG, False)},
    "output": {"path": Field(TEXT, "out")},
    "sweep": Field({"lambda_multiples": Field(SOME_NUMBERS, REQUIRED), "max_workers": Field(INTEGER, 0, ">= 0")}),
}


def _number(value, name: str, kind: str, bounds: str):
    """A finite number of the kind (NUMBER or INTEGER) within bounds, as a float or an int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # a NaN, an infinity, or an integer past every float
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if kind == INTEGER and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")  # not truncated
    for bound in filter(None, bounds.split(", ")):
        op, limit = bound.split()
        if not _BOUNDS[op](value, float(limit)):
            raise ConfigError(f"{name} must be {bound}, got {value!r}")
    return int(value) if kind == INTEGER else float(value)


def _typed(value, spec, name: str):
    """value checked against spec, a Field or a block of fields: its typed form, with each field that
    a block leaves out at its default; a config error names the field."""
    if isinstance(spec, dict):
        spec = Field(spec)
    if value in spec.words:
        return value
    if isinstance(spec.kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name or 'config root'} must be a JSON object, got {value!r}")
        prefix = f"{name}." if name else ""
        unknown = sorted(value.keys() - spec.kind.keys())
        if unknown:
            raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
        block = {}
        for key, field in spec.kind.items():
            given = value.get(key, field.default if isinstance(field, Field) else {})
            if given is REQUIRED:
                raise ConfigError(f"{prefix}{key} is required")
            if given is not OPTIONAL:
                block[key] = _typed(given, field, prefix + key)
        return block
    if spec.kind is None:
        raise ConfigError(f"{name} must be one of {', '.join(map(repr, spec.words))}, got {value!r}")
    if spec.kind in (NUMBER, INTEGER):
        return _number(value, name, spec.kind, spec.bounds)
    if spec.kind in _LENGTHS:
        if not isinstance(value, list) or len(value) not in _LENGTHS[spec.kind]:
            raise ConfigError(f"{name} must be {spec.kind}, got {value!r}")
        return [_number(v, f"each of {name}", NUMBER, spec.bounds) for v in value]
    if not isinstance(value, {FLAG: bool, TEXT: str, OBJECT: dict}[spec.kind]):
        raise ConfigError(f"{name} must be {spec.kind}, got {value!r}")
    return value


def load_config(path) -> dict:
    """The config at path, checked against CONFIG_SCHEMA, its ic.params against IC_PARAMS of its type, and
    between its fields: the D_delta columns, the bubble family's range, the flow parameters, the sweep's cells."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = _typed(raw, CONFIG_SCHEMA, "")
    try:
        flow.trajectory_columns(cfg["monitors"]["delta_list"])
    except ValueError as exc:
        raise ConfigError(f"monitors.delta_list: {exc}") from exc
    if "ic" in cfg:
        cfg["ic"]["params"] = _typed(cfg["ic"]["params"], IC_PARAMS[cfg["ic"]["type"]], "ic.params")
    well = cfg["well"]
    try:
        nehari.family_floor(make_grid(cfg["grid"]["n"]), well["eps_min"], well["eps_max"])
    except ValueError as exc:
        raise ConfigError(f"well.eps_min / well.eps_max: {exc}") from exc
    _flow_params(cfg)
    if "sweep" in cfg:
        _sweep_cells(cfg["sweep"]["lambda_multiples"])
    return cfg


def _flow_params(cfg: dict) -> flow.FlowParams:
    """The run's flow parameters from the config's physics, time and monitors blocks; checks dt_min < dt0."""
    tcfg, mon = cfg["time"], cfg["monitors"]
    return flow.FlowParams(
        H=cfg["physics"]["H"], dt0=tcfg["dt0"], t_end=tcfg["t_end"], dt_min=tcfg["dt_min"],
        record_every=mon["record_every"], blowup_gradient_factor=mon["blowup_gradient_factor"],
        decay_l2_floor=mon["decay_l2_floor"],
    )


# ---------------------------------------------------------------------------
# serialization


def write_json(path: Path, obj) -> None:
    """Strict JSON, its directory made as needed; a NaN or an infinity raises NonFiniteError, making nothing."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{path.name} would hold a non-finite number: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def write_trajectory_csv(path: Path, tr: flow.TrajectoryRecord) -> None:
    """The header, then one row per sample of every recorded series, nan and inf included, each float in
    the bytes of format(v, ".17g"); np.savetxt formats row by row.  The directory is made as needed."""
    columns, cols = zip(*tr.series())
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, np.column_stack(cols), fmt="%.17g", delimiter=",", header=",".join(columns), comments="")


# ---------------------------------------------------------------------------
# initial-condition library


def _amplitude_for_energy_level(coeffs, level: float, d: float, branch: str) -> float:
    """Scale m * lambda* so that E(m lambda* w) = (3 - 2m) m^2 * peak equals level * d.

    below-peak takes m in (0, 1], where D >= 0; above-peak takes m in (1, 3/2), where D < 0.
    """
    peak = nehari.fiber_peak_energy(coeffs)
    ratio = level * d / peak
    if not (0.0 < ratio <= 1.0):
        raise ConfigError(
            f"ic.params.energy_level = {level:g} is unreachable on this fiber: its peak is {peak / d:.3g}·d"
        )
    below, above = nehari.delta_roots(ratio, 1.0)
    # on the fiber D(m lambda* w) = (1 - m) dirichlet, and classify reads |D| <= SIGN_TOL_FACTOR dirichlet as
    # zero: on the peak (ratio 1, both roots 1) the above-peak datum sits 10 times that far above it, so D < 0
    m = max(above, 1.0 + 10.0 * classify.SIGN_TOL_FACTOR) if branch == "above-peak" else below
    return m * nehari.lambda_star(coeffs)


def build_initial_condition(cfg: dict, g: GridSpec, H: float, wp=None):
    """Construct u0 from the config's ic block; returns (field, description).

    `wp` is the command's well; without it a scaled-direction IC estimates the config's well.
    """
    if "ic" not in cfg:
        raise ConfigError("config needs an ic block with a type")
    kind, params = cfg["ic"]["type"], cfg["ic"]["params"]
    if kind == "zero":
        return VectorField.zeros(g), {"type": "zero"}
    if kind == "eigenmode":
        u0 = fields.eigenmode(g, params["kx"], params["ky"], params["component"], params["amplitude"])
        return u0, {"type": kind, **params}
    if kind == "bubble":
        u0 = nehari.bubble_direction(g, H, params["center"], params["eps"]).scaled(params["amplitude"])
        return u0, {"type": kind, **params}
    if kind == "random-bandlimited":
        seed = params.get("seed", cfg.get("seed"))
        if seed is None:
            raise ConfigError("random ICs need a seed (ic.params.seed, top-level seed, or --seed)")
        u0 = fields.random_bandlimited(g, seed, params["kmax"], params["h1_norm"])
        return u0, {"type": kind, **params, "seed": seed}
    # scaled-direction: an eps of "optimal" is the scale of the minimizer of the well's family
    wp = _well_parameters(cfg, g, H) if wp is None else wp
    direction = dict(params["direction"])
    if direction["eps"] == "optimal":
        direction["eps"] = nehari.family_minimizer(wp)[0]
    w = nehari.bubble_direction(g, H, direction["center"], direction["eps"])
    coeffs = nehari.fibering_coeffs(w, H)
    lam = nehari.lambda_star(coeffs)
    if "lambda_multiple" in params:
        amp = params["lambda_multiple"] * lam
        desc = {"lambda_multiple": params["lambda_multiple"]}
    elif "energy_level" in params:
        amp = _amplitude_for_energy_level(coeffs, params["energy_level"], wp.d, params["branch"])
        desc = {"energy_level": params["energy_level"], "branch": params["branch"]}
    elif "e54_margin" in params:
        # |c w|_2 < -(c^3/3) B needs c^2 > 3 |w|_2 / (-B); E(c w) <= 0 needs c >= 1.5 lambda*.  The
        # margin makes c > 1.5 lambda*, so E(c w) = c^2 (A/2 + 2 c B/3) < 0 and D(c w) < 0 at every H: classify
        # reads the datum as low-energy t22, and never reaches the high-energy t52 check
        c_vol = math.sqrt(3.0 * math.sqrt(l2_norm_sq(w)) / (-coeffs.B))
        amp = params["e54_margin"] * max(1.5 * lam, c_vol)
        desc = {"e54_margin": params["e54_margin"]}
    else:
        raise ConfigError("scaled-direction needs lambda_multiple, energy_level or e54_margin")
    desc.update({"type": kind, "direction": direction, "amplitude": amp, "lambda_star": lam})
    return w.scaled(amp), desc


# ---------------------------------------------------------------------------
# commands


def _well_parameters(cfg, g: GridSpec, H: float) -> nehari.WellParameters:
    well = cfg["well"]
    eps_grid = nehari.family_scales(g, well["eps_min"], well["eps_max"], well["eps_count"])
    return nehari.estimate_d(H, g, eps_grid=eps_grid, center=tuple(well["center"]))


def cmd_compute_well_depth(cfg: dict, out: Path) -> int:
    g, H = make_grid(cfg["grid"]["n"]), cfg["physics"]["H"]
    wp = _well_parameters(cfg, g, H)
    r1 = functionals.r_of_delta(1.0, H)
    artifact = {
        "H": H,
        "n": g.n,
        "d": wp.d,
        "lower_bound": functionals.a_of_delta(1.0) * r1 * r1,
        "family": wp.family_table,
        "d_of_delta": {f"{d:g}": nehari.d_of_delta(d, wp.d) for d in DELTA_TABLE},
        "provenance": wp.provenance,
    }
    write_json(out / "well_depth.json", artifact)
    return EXIT_OK


def _classified_datum(cfg: dict):
    """(u0, ic description, the command's one well estimate, verdict) of the config's initial datum.

    classify measures the datum and decides its regime; a high-energy verdict reads its lambda/Lambda
    bounds off the same well's family.
    """
    g, H = make_grid(cfg["grid"]["n"]), cfg["physics"]["H"]
    wp = _well_parameters(cfg, g, H)
    u0, ic_desc = build_initial_condition(cfg, g, H, wp)
    return u0, ic_desc, wp, classify.classify_initial(u0, wp, cfg["monitors"]["tol_d"])


def _verdict_artifact(verdict, ic_desc, wp) -> dict:
    return {
        "verdict": dataclasses.asdict(verdict),
        "ic": ic_desc,
        "well_depth": {"d": wp.d, "provenance": wp.provenance},
    }


def _simulate_into(cfg: dict, out: Path) -> dict:
    """Classify, integrate, then write trajectory.csv and verdict.json; a non-finite series writes neither."""
    # the datum reaches run out of a one-item list, so no name here keeps it once run's first state owns it;
    # Python 3.10 keeps a call's arguments on the caller's stack until it returns, so there it lives all run
    *datum, ic_desc, wp, verdict = _classified_datum(cfg)
    tr = flow.run(datum.pop(), _flow_params(cfg), cfg["monitors"]["delta_list"])
    finite = [(name, np.isfinite(series)) for name, series in tr.series()]
    bad = [f"{name} from t = {tr.t[~ok][0]:.17g}" for name, ok in finite if not ok.all()]
    if bad:
        raise NonFiniteError(f"trajectory has non-finite series: {', '.join(bad)}")
    write_trajectory_csv(out / "trajectory.csv", tr)

    report = classify.blowup_report(tr)
    art = _verdict_artifact(verdict, ic_desc, wp)
    art["run"] = {
        "status": tr.status,
        "stop_reason": tr.stop_reason,
        "t_last": report.t_last,
        "samples": len(tr),
        "gradient_max": report.gradient_max,
        "concavity_positive_from": report.concavity_positive_from,
    }
    write_json(out / "verdict.json", art)
    return art


def cmd_simulate(cfg: dict, out: Path) -> int:
    _simulate_into(cfg, out)
    return EXIT_OK


def cmd_classify(cfg: dict, out: Path) -> int:
    u0, ic_desc, wp, verdict = _classified_datum(cfg)
    write_json(out / "verdict.json", _verdict_artifact(verdict, ic_desc, wp))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma verification: the corpus is a stream, each member made, checked and dropped in turn;
# each check folds one member into its own block of lemma_report.json


def _corpus(cfg, g: GridSpec):
    """The corpus members, a lazy stream of fields."""
    cc = cfg["corpus"]
    seed = cfg.get("seed", cc.get("seed"))
    if seed is None:
        raise ConfigError("verify-lemmas needs a corpus seed (top-level seed or corpus.seed)")
    return (fields.random_bandlimited(g, seed + i, cc["kmax"]) for i in range(cc["count"]))


def _check_isoperimetric(block: dict, i: int, a: float, v: float) -> None:
    """Isoperimetric inequality with discretization slack, from member i's (dirichlet, volume)."""
    gap = functionals.isoperimetric_gap_of(a, v)
    rel = gap / a if a > 0 else 0.0
    block["worst_gap_over_dirichlet"] = min(block["worst_gap_over_dirichlet"], rel)
    if gap < -1e-3 * a:
        block["violations"].append({"member": i, "gap_over_dirichlet": rel})
        block["passed"] = False


def _check_projected_norm_cap(block: dict, c: nehari.FiberingCoefficients, d: float) -> None:
    """A member projected with fiber energy at most d stays inside the 6d ball."""
    if c.A > 0.0 and c.B < 0.0 and nehari.fiber_peak_energy(c) <= d:
        lam = nehari.lambda_star(c)
        if lam * lam * c.A > 6.0 * d * (1.0 + 1e-9):
            block["passed"] = False


def _check_energy_split(block: dict, a: float, v: float, H: float) -> None:
    """E + (1/3) H int(...) = D/2 to near machine precision, with E and D as energy_of and nehari_of give them."""
    rel = classify.split_identity_residual(functionals.energy_of(a, v, H), a, functionals.nehari_of(a, v, H))
    block["worst_rel_residual"] = max(block["worst_rel_residual"], rel)
    block["passed"] = block["worst_rel_residual"] <= 1e-12


def _check_nehari_signs(checks: dict, cw: nehari.FiberingCoefficients, H: float) -> None:
    """The three Nehari sign blocks at each delta, off the direction's pair by D_delta(s w) = delta s^2 A + 2 s^3 B:
    a norm of 0.9 r(delta) gives D_delta > 0; D_delta < 0 at 1.5 lambda(delta) comes with a norm above r(delta);
    D_delta = 0, at lambda(delta), pins the norm near r(delta)."""
    small, large, zero = (
        checks["nehari_sign_small_norm"], checks["nehari_sign_negative_implies_large"], checks["nehari_zero_norm_bound"]
    )
    root_a = math.sqrt(cw.A)
    for delta in NEHARI_DELTAS:
        r, lam = functionals.r_of_delta(delta, H), nehari.project_nehari_delta(cw, delta)
        d_small, d_large = (delta * s * s * cw.A + 2.0 * s**3 * cw.B for s in (0.9 * r / root_a, 1.5 * lam))
        if d_small <= 0.0:
            small["passed"] = False
        if d_large < 0.0 and 1.5 * lam * root_a <= r:
            large["passed"] = False
        norm_zero = lam * root_a
        zero["worst_norm_over_radius"] = min(zero["worst_norm_over_radius"], norm_zero / r)
        if norm_zero < r * 0.98:
            zero["passed"] = False


def _check_fiber_map(block: dict, w: VectorField, cw: nehari.FiberingCoefficients, H: float) -> None:
    """Closed-form stationary scale vs direct search (Brent's method), sign change of D across
    lambda*, peak dominance, negative far energy."""
    block["directions"] += 1
    lam = nehari.lambda_star(cw)
    rel = abs(nehari.golden_section_peak(w, H, 0.0, 4.0 * lam, tol=1e-7 * lam) - lam) / lam
    block["worst_lambda_rel_err"] = max(block["worst_lambda_rel_err"], rel)
    # (E, D) at (0.25, 0.5, 1, 2, 4) lambda*, one derivative pass each
    pairs = [dirichlet_and_volume(w.scaled(s * lam)) for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
    energy_at = [functionals.energy_of(a, v, H) for a, v in pairs]
    nehari_at = [functionals.nehari_of(a, v, H) for a, v in pairs]
    if rel > 1e-6 or not (
        nehari_at[1] > 0.0
        and abs(nehari_at[2]) <= 1e-8 * cw.A * lam * lam
        and nehari_at[3] < 0.0
        and energy_at[4] < 0.0
    ) or any(e > energy_at[2] for e in energy_at):
        block["passed"] = False


def _check_well_depth_curve(g: GridSpec, H: float, wp: nehari.WellParameters) -> dict:
    """Well-depth curve shape against the fiber algebra and the radius bound, on the family's best bubble."""
    best_eps, cbest = nehari.family_minimizer(wp)
    best = nehari.bubble_direction(g, H, wp.center, best_eps)
    rows = []
    for delta in DELTA_TABLE:
        lam = nehari.project_nehari_delta(cbest, delta)
        measured = functionals.energy_E(best.scaled(lam), H)
        expected = nehari.d_of_delta(delta, wp.d)
        lower = functionals.a_of_delta(delta) * functionals.r_of_delta(delta, H) ** 2
        ok = abs(measured - expected) <= 0.02 * expected and measured >= lower * 0.98
        rows.append({"delta": delta, "measured": measured, "expected": expected, "lower_bound": lower, "ok": ok})
    peak_at_one = max(rows, key=lambda r: r["measured"])["delta"] == 1.0
    return {
        "passed": all(r["ok"] for r in rows) and peak_at_one,
        "d": wp.d,
        "best_eps": best_eps,
        "rows": rows,
        "maximum_at_delta_1": peak_at_one,
    }


def cmd_verify_lemmas(cfg: dict, out: Path) -> int:
    g, H = make_grid(cfg["grid"]["n"]), cfg["physics"]["H"]
    members = _corpus(cfg, g)
    wp = _well_parameters(cfg, g, H)  # before the stream: the projected-norm cap reads d
    checks = {
        "isoperimetric": {"passed": True, "worst_gap_over_dirichlet": math.inf, "violations": []},
        "nehari_sign_small_norm": {"passed": True},
        "nehari_sign_negative_implies_large": {"passed": True},
        "nehari_zero_norm_bound": {"passed": True, "worst_norm_over_radius": math.inf},
        "well_depth_curve": _check_well_depth_curve(g, H, wp),
        "fiber_map": {"passed": True, "directions": 0, "worst_lambda_rel_err": 0.0},
        "projected_norm_cap": {"passed": True},
        "energy_split_identity": {"passed": True, "worst_rel_residual": 0.0},
    }

    # one derivative pass per member gives its (dirichlet, volume), hence its coefficients, its
    # isoperimetric gap and its split identity; its direction (members with A > 0 and B != 0) is
    # its sign with B < 0: the flip negates B exactly, so the flipped coefficients are (A, -B).
    # The Nehari sign checks read D_delta along the direction's ray off that pair; only the
    # fiber map, which checks the fiber identity against the grid, builds the flipped field
    corpus_size = cfg["corpus"]["count"]
    for i, u in enumerate(members):
        a, v = dirichlet_and_volume(u)
        c = nehari.FiberingCoefficients(A=a, B=H * v)
        _check_isoperimetric(checks["isoperimetric"], i, a, v)
        _check_projected_norm_cap(checks["projected_norm_cap"], c, wp.d)
        _check_energy_split(checks["energy_split_identity"], a, v, H)
        if c.A > 0.0 and c.B != 0.0:
            cw = c if c.B < 0.0 else nehari.FiberingCoefficients(A=c.A, B=-c.B)
            _check_nehari_signs(checks, cw, H)
            if i < 20:
                _check_fiber_map(checks["fiber_map"], u if c.B < 0.0 else u.scaled(-1.0), cw, H)
    # the saturation probe is the well's own family: near-extremal directions that saturate the
    # isoperimetric inequality, whose discrete gap exposes the resolution limit of the grid
    probe = [row["eps"] for row in wp.family_table] if cfg["corpus"]["saturation_probe"] else []
    for j, (_, u) in enumerate(nehari.bubble_family(g, H, probe, wp.center)):
        _check_isoperimetric(checks["isoperimetric"], corpus_size + j, *dirichlet_and_volume(u))
    for block in checks.values():  # a worst value no member reached
        block.update({key: None for key, val in block.items() if val is math.inf})

    all_passed = all(c["passed"] for c in checks.values())
    artifact = {
        "n": g.n,
        "H": H,
        "corpus_size": corpus_size,
        "probe_size": len(probe),
        "checks": checks,
        "all_passed": all_passed,
    }
    if not corpus_size:
        artifact["warning"] = "empty corpus: field checks pass vacuously"
    write_json(out / "lemma_report.json", artifact)
    if not all_passed:
        failed = sorted(name for name, c in checks.items() if not c["passed"])
        print(f"lemma verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_LEMMA
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _sweep_cells(values) -> dict:
    """{cell name: lambda_multiple} of the distinct values in order; two that print alike are a config error."""
    cells = {}
    for v in values:
        name = f"{v:g}"
        if cells.setdefault(name, v) != v:
            raise ConfigError(f"sweep.lambda_multiples: {cells[name]!r} and {v!r} share the cell name {name}")
    return cells


def _sweep_cell(args):
    cfg, out_dir, key = args
    try:
        art = _simulate_into(cfg, Path(out_dir))
        return key, {
            "status": art["run"]["status"],
            "expected_outcome": art["verdict"]["expected_outcome"],
            "artifacts": out_dir,
        }
    except CONFIG_FAILURES + NUMERIC_FAILURES as exc:  # recorded, not fatal
        return key, {"error": f"{type(exc).__name__}: {exc}", "artifacts": out_dir}


def cmd_sweep(cfg: dict, out: Path) -> int:
    if "sweep" not in cfg:
        raise ConfigError("sweep config needs sweep.lambda_multiples")
    if cfg.get("ic", {}).get("type") != "scaled-direction":
        raise ConfigError("sweep requires a scaled-direction ic")
    values = cfg["sweep"]["lambda_multiples"]

    jobs = []
    for name, v in _sweep_cells(values).items():  # one cell per value: duplicates would race on its directory
        cell_cfg = json.loads(json.dumps(cfg))  # deep copy
        cell_cfg["ic"]["params"]["lambda_multiple"] = v
        cell_cfg.pop("sweep", None)
        jobs.append((cell_cfg, str(out / f"cell_lm_{name}"), f"lambda_multiple={name}"))

    # 0 workers: one per CPU this process may run on; a worker beyond the cells would idle
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cfg["sweep"]["max_workers"] or cpus, len(jobs))
    if workers > 1:
        # imported here, so that no other command pays for loading the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_sweep_cell, jobs))
    else:
        results = dict(map(_sweep_cell, jobs))
    write_json(out / "index.json", {"parameter": "lambda_multiple", "values": values, "cells": results})
    failed = sorted(key for key, res in results.items() if "error" in res)
    if failed:
        print(f"sweep cells failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {  # each command's subparser name and function, (cfg, out) -> exit code
    "simulate": cmd_simulate,
    "classify": cmd_classify,
    "compute-well-depth": cmd_compute_well_depth,
    "verify-lemmas": cmd_verify_lemmas,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: config output.path)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
        if args.seed is not None:  # --seed outranks the top-level seed, and a random ic's own
            cfg["seed"] = _number(args.seed, "--seed", INTEGER, ">= 0")
            if cfg.get("ic", {}).get("type") == "random-bandlimited":
                cfg["ic"]["params"]["seed"] = cfg["seed"]
        out = Path(args.out) if args.out else Path(cfg["output"]["path"])
        # a command writes only after its work (a sweep's cells, a run's whole flow), so an --out that cannot
        # be made fails here, before any of it
        base = next(p for p in (out, *out.parents) if p.exists())
        if not base.is_dir():
            raise NotADirectoryError(f"cannot make output directory {out}: {base} is not a directory")
        # called by its name in this module, so that a wrapper bound over it there (a profiler's) sees the call
        return globals()[COMMANDS[args.command].__name__](cfg, out)
    except CONFIG_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NUMERIC_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
