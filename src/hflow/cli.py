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
configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import classify, fields, flow, functionals, nehari
from .functionals import NonFiniteError
from .grid import GridSpec, VectorField, l2_norm_sq, make_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_LEMMA = 3

DELTA_TABLE = (0.25, 0.5, 0.75, 1.0, 1.25, 1.45)
NEHARI_DELTAS = (0.5, 1.0, 1.25)  # the deltas of verify-lemmas' Nehari sign checks


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling


def _merge(defaults: dict, given: dict) -> dict:
    out = dict(defaults)
    for key, val in given.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


CONFIG_DEFAULTS = {
    "grid": {"n": 63},
    "physics": {"H": 1.0},
    "time": {"dt0": 5e-4, "t_end": 1.0, "dt_min": 1e-10},
    "monitors": {
        "delta_list": [0.25, 0.75, 1.25],
        "record_every": 5,
        "blowup_gradient_factor": 1e4,
        "decay_l2_floor": 1e-16,
        "tol_d": 1e-3,
    },
    "well": {"eps_min": "4h", "eps_max": 0.35, "eps_count": 12, "center": [0.5, 0.5]},
    "corpus": {"count": 50, "kmax": 6, "saturation_probe": False},
    "output": {"path": "out"},
}


def _finite_number(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"config numbers must be finite, got {token}")
    return value


def load_config(path) -> dict:
    try:
        raw = json.loads(
            Path(path).read_text(encoding="utf-8"),
            parse_float=_finite_number,
            parse_constant=_finite_number,
        )
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = _merge(copy.deepcopy(CONFIG_DEFAULTS), raw)  # no loaded config shares a block of the defaults
    if cfg["physics"]["H"] <= 0.0:
        raise ConfigError(f"physics.H must be > 0, got {cfg['physics']['H']}")
    return cfg


def _grid_of(cfg) -> GridSpec:
    try:
        return make_grid(cfg["grid"]["n"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _eps_grid(cfg, g: GridSpec) -> np.ndarray:
    well = cfg["well"]
    count = int(well["eps_count"])
    if count < 1:
        raise nehari.EstimationError("empty bubble family (well.eps_count < 1)")
    lo, hi = well["eps_min"], float(well["eps_max"])
    if lo == "4h" and hi > 0.0:
        eps = nehari.default_eps_grid(g, count, hi)
        if eps[0] > hi:
            raise ConfigError(
                f"grid n = {g.nx} is too coarse for the bubble family: eps_min = 4h = {eps[0]:g} exceeds "
                f"well.eps_max = {hi:g}; this range needs n >= {math.ceil(4.0 / hi - 1.0)}, "
                "or set well.eps_min explicitly"
            )
        return eps
    if lo == "4h" or not (0.0 < float(lo) <= hi):
        raise ConfigError(f"bad eps range [{lo}, {hi}]")
    return np.geomspace(float(lo), hi, count)


# ---------------------------------------------------------------------------
# serialization


def write_json(path: Path, obj) -> None:
    """Strict JSON: a NaN or an infinity anywhere raises NonFiniteError and writes nothing."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{path.name} would hold a non-finite number: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def trajectory_columns(delta_list) -> list[str]:
    return (
        ["t", "dt", "l2_sq", "h1_sq", "E", "D"]
        + [f"D_delta_{d:g}" for d in delta_list]
        + ["f", "fprime", "fsecond", "concavity", "energy_residual"]
    )


def trajectory_series(tr: flow.TrajectoryRecord) -> list[tuple[str, np.ndarray]]:
    """(column name, recorded series) pairs in the CSV's column order."""
    cols = (tr.t, tr.dt, tr.l2_sq, tr.h1_sq, tr.E, tr.D, *tr.D_delta.T)
    cols += (tr.f, tr.fprime, tr.fsecond, tr.concavity, tr.energy_residual)
    return list(zip(trajectory_columns(tr.delta_list), cols))


def write_trajectory_csv(path: Path, tr: flow.TrajectoryRecord) -> None:
    """Every recorded series, nan and inf included, as 17-significant-digit rows."""
    columns, cols = zip(*trajectory_series(tr))
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"  # the bytes of format(v, ".17g")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        # blocks of rows, so that a long run's floats never all exist as Python objects at once
        for k in range(0, len(tr), 256):
            fh.writelines(row_format % row for row in zip(*(col[k : k + 256].tolist() for col in cols)))


# ---------------------------------------------------------------------------
# initial-condition library


def _resolve_direction(dir_cfg: dict, g: GridSpec, H: float, well):
    """The direction's bubble; an eps of "optimal" is the scale of the minimizer of `well()`'s family."""
    kind = dir_cfg.get("type", "bubble")
    if kind != "bubble":
        raise ConfigError(f"unsupported direction type {kind!r}")
    center = tuple(dir_cfg.get("center", (0.5, 0.5)))
    eps = dir_cfg.get("eps", 0.25)
    eps = nehari.family_minimizer(well())[0] if eps == "optimal" else float(eps)
    w = nehari.bubble_direction(g, H, center, eps)
    return w, {"type": "bubble", "center": list(center), "eps": eps}


def _amplitude_for_energy_level(coeffs, level_energy: float, branch: str) -> float:
    """Scale m * lambda* so that E(m lambda* w) = (3 - 2m) m^2 * peak equals level_energy.

    below-peak takes m in (0, 1], where D > 0; above-peak takes m in [1, 3/2), where D < 0.
    """
    peak = nehari.fiber_peak_energy(coeffs)
    ratio = level_energy / peak
    if not (0.0 < ratio <= 1.0):
        raise ConfigError(f"energy level {level_energy} unreachable on this fiber (peak {peak})")
    return nehari.fiber_multiple(ratio, branch == "above-peak", tol=1e-13) * nehari.lambda_star(coeffs)


def build_initial_condition(cfg: dict, g: GridSpec, H: float, seed_override=None, wp=None):
    """Construct u0 from the config's ic block; returns (field, description).

    `wp` is the command's well; without it the config's well is estimated, once and only if the IC reads it.
    """

    def well() -> nehari.WellParameters:
        nonlocal wp
        if wp is None:
            wp = _well_parameters(cfg, g, H)
        return wp

    ic = cfg.get("ic")
    if not isinstance(ic, dict) or "type" not in ic:
        raise ConfigError("config needs an ic block with a type")
    kind = ic["type"]
    params = ic.get("params", {})
    if kind == "zero":
        return VectorField.zeros(g), {"type": "zero"}
    if kind == "eigenmode":
        kx = int(params.get("kx", 1))
        ky = int(params.get("ky", 1))
        comp = int(params.get("component", 0))
        amp = float(params.get("amplitude", 1.0))
        u0 = fields.eigenmode(g, kx, ky, comp, amp)
        return u0, {"type": kind, "kx": kx, "ky": ky, "component": comp, "amplitude": amp}
    if kind == "bubble":
        center = tuple(params.get("center", (0.5, 0.5)))
        eps = float(params.get("eps", 0.25))
        amp = float(params.get("amplitude", 1.0))
        u0 = nehari.bubble_direction(g, H, center, eps).scaled(amp)
        return u0, {"type": kind, "center": list(center), "eps": eps, "amplitude": amp}
    if kind == "random-bandlimited":
        seed = seed_override if seed_override is not None else params.get("seed", cfg.get("seed"))
        if seed is None:
            raise ConfigError("random ICs need a seed (ic.params.seed, top-level seed, or --seed)")
        kmax = int(params.get("kmax", 6))
        h1_norm = params.get("h1_norm")
        u0 = fields.random_bandlimited(g, int(seed), kmax, None if h1_norm is None else float(h1_norm))
        return u0, {"type": kind, "seed": int(seed), "kmax": kmax, "h1_norm": h1_norm}
    if kind == "scaled-direction":
        w, dir_desc = _resolve_direction(params.get("direction", {}), g, H, well)
        coeffs = nehari.fibering_coeffs(w, H)
        lam = nehari.lambda_star(coeffs)
        if "lambda_multiple" in params:
            mult = float(params["lambda_multiple"])
            amp = mult * lam
            desc = {"type": kind, "direction": dir_desc, "lambda_multiple": mult}
        elif "energy_level" in params:
            branch = params.get("branch", "below-peak")
            if branch not in ("below-peak", "above-peak"):
                raise ConfigError(f"branch must be below-peak or above-peak, got {branch!r}")
            level = float(params["energy_level"])
            amp = _amplitude_for_energy_level(coeffs, level * well().d, branch)
            desc = {"type": kind, "direction": dir_desc, "energy_level": level, "branch": branch}
        elif "e54_margin" in params:
            margin = float(params["e54_margin"])
            if margin <= 1.0:
                raise ConfigError(f"e54_margin must exceed 1, got {margin}")
            # |c w|_2 < -(c^3/3) B needs c^2 > 3 |w|_2 / (-B); E(c w) <= 0 needs c >= 1.5 lambda*
            c_vol = math.sqrt(3.0 * math.sqrt(l2_norm_sq(w)) / (-coeffs.B))
            amp = margin * max(1.5 * lam, c_vol)
            desc = {"type": kind, "direction": dir_desc, "e54_margin": margin}
        else:
            raise ConfigError("scaled-direction needs lambda_multiple or e54_margin")
        desc.update({"amplitude": amp, "lambda_star": lam})
        return w.scaled(amp), desc
    raise ConfigError(f"unknown ic type {kind!r}")


# ---------------------------------------------------------------------------
# commands


def _well_parameters(cfg, g: GridSpec, H: float) -> nehari.WellParameters:
    center = tuple(cfg["well"]["center"])
    return nehari.estimate_d(H, g, eps_grid=_eps_grid(cfg, g), center=center)


def cmd_compute_well_depth(cfg: dict, out: Path) -> int:
    g = _grid_of(cfg)
    H = float(cfg["physics"]["H"])
    wp = _well_parameters(cfg, g, H)
    r1 = functionals.r_of_delta(1.0, H)
    artifact = {
        "H": H,
        "n": g.nx,
        "d": wp.d,
        "lower_bound": functionals.a_of_delta(1.0) * r1 * r1,
        "family": wp.family_table,
        "d_of_delta": {f"{d:g}": nehari.d_of_delta(d, wp.d) for d in DELTA_TABLE},
        "provenance": wp.provenance,
    }
    write_json(out / "well_depth.json", artifact)
    return EXIT_OK


def _classified_datum(cfg: dict, seed_override=None):
    """(u0, ic description, the command's one well estimate, verdict) of the config's initial datum.

    classify measures the datum and decides its regime; the lambda/Lambda sampler handed to it is a
    generator, which does no work unless the verdict reads it.
    """
    g = _grid_of(cfg)
    H = float(cfg["physics"]["H"])
    wp = _well_parameters(cfg, g, H)
    u0, ic_desc = build_initial_condition(cfg, g, H, seed_override, wp)
    sampler = nehari.default_lambda_sampler(g, H, int(cfg.get("seed", 0) or 0))
    return u0, ic_desc, wp, classify.classify_initial(u0, wp, float(cfg["monitors"]["tol_d"]), sampler)


def _verdict_artifact(verdict, ic_desc, wp) -> dict:
    return {
        "verdict": dataclasses.asdict(verdict),
        "ic": ic_desc,
        "well_depth": {"d": wp.d, "provenance": wp.provenance},
    }


def _simulate_into(cfg: dict, out: Path, seed_override=None) -> dict:
    """Classify, integrate, then write trajectory.csv and verdict.json; a non-finite series writes neither."""
    u0, ic_desc, wp, verdict = _classified_datum(cfg, seed_override)
    tcfg, mon = cfg["time"], cfg["monitors"]
    params = flow.FlowParams(
        H=wp.H,
        dt0=float(tcfg["dt0"]),
        t_end=float(tcfg["t_end"]),
        dt_min=float(tcfg["dt_min"]),
        record_every=int(mon["record_every"]),
        blowup_gradient_factor=float(mon["blowup_gradient_factor"]),
        decay_l2_floor=float(mon["decay_l2_floor"]),
    )
    tr = flow.run(u0, params, mon["delta_list"])
    finite = [(name, np.isfinite(series)) for name, series in trajectory_series(tr)]
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


def cmd_simulate(cfg: dict, out: Path, seed_override=None) -> int:
    _simulate_into(cfg, out, seed_override)
    return EXIT_OK


def cmd_classify(cfg: dict, out: Path, seed_override=None) -> int:
    u0, ic_desc, wp, verdict = _classified_datum(cfg, seed_override)
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
    return (fields.random_bandlimited(g, int(seed) + i, int(cc["kmax"])) for i in range(int(cc["count"])))


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
    """E + (1/3) H int(...) = D/2 to near machine precision, with E and D in report's expressions."""
    rel = classify.split_identity_residual(0.5 * a + (2.0 / 3.0) * H * v, a, a + 2.0 * H * v)
    block["worst_rel_residual"] = max(block["worst_rel_residual"], rel)
    block["passed"] = block["worst_rel_residual"] <= 1e-12


def _check_small_norm(block: dict, w: VectorField, cw: nehari.FiberingCoefficients, H: float) -> None:
    """Small norm forces positive D_delta."""
    for delta in NEHARI_DELTAS:
        s = 0.9 * functionals.r_of_delta(delta, H) / math.sqrt(cw.A)
        if functionals.nehari_D_delta(w.scaled(s), H, delta) <= 0.0:
            block["passed"] = False


def _check_negative_implies_large(block: dict, w: VectorField, cw: nehari.FiberingCoefficients, H: float) -> None:
    """Negative D_delta forces a norm above the radius r(delta)."""
    for delta in NEHARI_DELTAS:
        c_neg = 1.5 * nehari.project_nehari_delta(cw, delta)
        if functionals.nehari_D_delta(w.scaled(c_neg), H, delta) < 0.0:
            if c_neg * math.sqrt(cw.A) <= functionals.r_of_delta(delta, H):
                block["passed"] = False


def _check_zero_norm_bound(block: dict, cw: nehari.FiberingCoefficients, H: float) -> None:
    """Vanishing D_delta pins the norm near the radius r(delta)."""
    for delta in NEHARI_DELTAS:
        r = functionals.r_of_delta(delta, H)
        norm_zero = nehari.project_nehari_delta(cw, delta) * math.sqrt(cw.A)
        block["worst_norm_over_radius"] = min(block["worst_norm_over_radius"], norm_zero / r)
        if norm_zero < r * 0.98:
            block["passed"] = False


def _check_fiber_map(block: dict, w: VectorField, cw: nehari.FiberingCoefficients, H: float) -> None:
    """Closed-form stationary scale vs direct search (Brent's method), sign change of D across
    lambda*, peak dominance, negative far energy."""
    block["directions"] += 1
    lam = nehari.lambda_star(cw)
    rel = abs(nehari.golden_section_peak(w, H, 0.0, 4.0 * lam, tol=1e-7 * lam) - lam) / lam
    block["worst_lambda_rel_err"] = max(block["worst_lambda_rel_err"], rel)
    # E and D at (0.25, 0.5, 1, 2, 4) lambda*, one pass each
    at = [functionals.report(w.scaled(s * lam), H) for s in (0.25, 0.5, 1.0, 2.0, 4.0)]
    if rel > 1e-6 or not (
        at[1].nehari > 0.0
        and abs(at[2].nehari) <= 1e-8 * cw.A * lam * lam
        and at[3].nehari < 0.0
        and at[4].energy < 0.0
    ) or any(r.energy > at[2].energy for r in at):
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
    g = _grid_of(cfg)
    H = float(cfg["physics"]["H"])
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
    # its sign with B < 0: the flip negates B exactly, so the flipped coefficients are (A, -B)
    corpus_size = 0
    for i, u in enumerate(members):
        corpus_size += 1
        a, v = functionals._dirichlet_and_volume(u)
        c = nehari.FiberingCoefficients(A=a, B=H * v)
        _check_isoperimetric(checks["isoperimetric"], i, a, v)
        _check_projected_norm_cap(checks["projected_norm_cap"], c, wp.d)
        _check_energy_split(checks["energy_split_identity"], a, v, H)
        if c.A > 0.0 and c.B != 0.0:
            w, cw = (u, c) if c.B < 0.0 else (u.scaled(-1.0), nehari.FiberingCoefficients(A=c.A, B=-c.B))
            _check_small_norm(checks["nehari_sign_small_norm"], w, cw, H)
            _check_negative_implies_large(checks["nehari_sign_negative_implies_large"], w, cw, H)
            _check_zero_norm_bound(checks["nehari_zero_norm_bound"], cw, H)
            if i < 20:
                _check_fiber_map(checks["fiber_map"], w, cw, H)
    # the saturation probe is the well's own family: near-extremal directions that saturate the
    # isoperimetric inequality, whose discrete gap exposes the resolution limit of the grid
    probe_size = 0
    if cfg["corpus"].get("saturation_probe"):
        for j, (_, u) in enumerate(nehari.bubble_family(g, H, wp.eps_grid, wp.center)):
            probe_size += 1
            _check_isoperimetric(checks["isoperimetric"], corpus_size + j, *functionals._dirichlet_and_volume(u))
    for block in checks.values():  # a worst value no member reached
        block.update({key: None for key, val in block.items() if val is math.inf})

    all_passed = all(c["passed"] for c in checks.values())
    artifact = {
        "n": g.nx,
        "H": H,
        "corpus_size": corpus_size,
        "probe_size": probe_size,
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


def _sweep_cell(args):
    cfg, out_dir, key = args
    try:
        art = _simulate_into(cfg, Path(out_dir))
        return key, {
            "status": art["run"]["status"],
            "expected_outcome": art["verdict"]["expected_outcome"],
            "artifacts": out_dir,
        }
    except Exception as exc:  # per-cell failures are recorded, not fatal
        return key, {"error": f"{type(exc).__name__}: {exc}", "artifacts": out_dir}


def cmd_sweep(cfg: dict, out: Path) -> int:
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or "lambda_multiples" not in sweep:
        raise ConfigError("sweep config needs sweep.lambda_multiples")
    if cfg.get("ic", {}).get("type") != "scaled-direction":
        raise ConfigError("sweep requires a scaled-direction ic")
    values = [float(v) for v in sweep["lambda_multiples"]]
    if not values:
        raise ConfigError("sweep.lambda_multiples is empty")

    jobs = []
    seen = set()
    for v in values:
        key = f"lambda_multiple={v:g}"
        if key in seen:  # duplicate cells would race on the same artifact dir
            continue
        seen.add(key)
        cell_cfg = json.loads(json.dumps(cfg))  # deep copy
        cell_cfg["ic"]["params"]["lambda_multiple"] = v
        cell_cfg.pop("sweep", None)
        jobs.append((cell_cfg, str(out / f"cell_lm_{v:g}"), key))

    workers = int(sweep.get("max_workers", 0)) or min(4, len(jobs))
    results = {}
    if workers > 1 and len(jobs) > 1:
        # imported here, so that no other command pays for loading the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, res in pool.map(_sweep_cell, jobs):
                results[key] = res
    else:
        for job in jobs:
            key, res = _sweep_cell(job)
            results[key] = res
    write_json(
        out / "index.json",
        {"parameter": "lambda_multiple", "values": values, "cells": results},
    )
    failed = sorted(key for key, res in results.items() if "error" in res)
    if failed:
        print(f"sweep cells failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "classify", "compute-well-depth", "verify-lemmas", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default: config output.path)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out) if args.out else Path(cfg["output"]["path"])
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, args.seed)
        if args.command == "classify":
            return cmd_classify(cfg, out, args.seed)
        if args.command == "compute-well-depth":
            return cmd_compute_well_depth(cfg, out)
        if args.command == "verify-lemmas":
            return cmd_verify_lemmas(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (flow.SolverError, nehari.EstimationError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
