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
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import classify, fields, flow, functionals, nehari
from .grid import GridSpec, VectorField, h1_seminorm_sq, l2_norm_sq, make_grid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_LEMMA = 3

DELTA_TABLE = (0.25, 0.5, 0.75, 1.0, 1.25, 1.45)


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
    "time": {"dt0": 5e-4, "t_end": 1.0, "dt_min": 1e-10, "cg_tol": 1e-10},
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
    cfg = _merge(CONFIG_DEFAULTS, raw)
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
    lo = 4.0 * g.h if well["eps_min"] == "4h" else float(well["eps_min"])
    hi = float(well["eps_max"])
    if well["eps_min"] == "4h" and 0.0 < hi < lo:
        raise ConfigError(
            f"grid n = {g.nx} is too coarse for the bubble family: eps_min = 4h = {lo:g} exceeds "
            f"well.eps_max = {hi:g}; this range needs n >= {math.ceil(4.0 / hi - 1.0)}, "
            "or set well.eps_min explicitly"
        )
    if not (0.0 < lo <= hi):
        raise ConfigError(f"bad eps range [{lo}, {hi}]")
    return np.geomspace(lo, hi, count)


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_jsonable(obj), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def trajectory_columns(delta_list) -> list[str]:
    return (
        ["t", "dt", "l2_sq", "h1_sq", "E", "D"]
        + [f"D_delta_{d:g}" for d in delta_list]
        + ["f", "fprime", "fsecond", "concavity", "energy_residual"]
    )


def write_trajectory_csv(path: Path, tr: flow.TrajectoryRecord) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(trajectory_columns(tr.delta_list))]
    for k in range(len(tr)):
        row = (
            [tr.t[k], tr.dt[k], tr.l2_sq[k], tr.h1_sq[k], tr.E[k], tr.D[k]]
            + list(tr.D_delta[k])
            + [tr.f[k], tr.fprime[k], tr.fsecond[k], tr.concavity[k], tr.energy_residual[k]]
        )
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# initial-condition library


def _resolve_direction(dir_cfg: dict, g: GridSpec, H: float):
    kind = dir_cfg.get("type", "bubble")
    if kind != "bubble":
        raise ConfigError(f"unsupported direction type {kind!r}")
    center = tuple(dir_cfg.get("center", (0.5, 0.5)))
    eps = dir_cfg.get("eps", 0.25)
    if eps == "optimal":
        eps, w = nehari.optimal_bubble(g, H, center=center)
    else:
        eps = float(eps)
        w = nehari.bubble_direction(g, H, center, eps)
    return w, {"type": "bubble", "center": list(center), "eps": eps}


def _amplitude_for_energy_level(coeffs, level_energy: float, branch: str) -> float:
    """Scale m * lambda* so that E(m lambda* w) equals level_energy.

    Along a fiber E(m lambda* w) = (3 m^2 - 2 m^3) * peak; the cubic is
    monotone on each side of its maximum at m = 1, so bisection on the
    requested branch (below-peak: m in (0, 1], D > 0; above-peak:
    m in [1, 3/2), D < 0) pins the energy level.
    """
    peak = nehari.fiber_peak_energy(coeffs)
    ratio = level_energy / peak
    if not (0.0 < ratio <= 1.0):
        raise ConfigError(
            f"energy level {level_energy} unreachable on this fiber (peak {peak})"
        )
    lo, hi = (1e-9, 1.0) if branch == "below-peak" else (1.0, 1.5 - 1e-9)
    rising = branch == "below-peak"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = (3.0 - 2.0 * mid) * mid * mid
        if (val < ratio) == rising:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13:
            break
    return 0.5 * (lo + hi) * nehari.lambda_star(coeffs)


def build_initial_condition(cfg: dict, g: GridSpec, H: float, seed_override=None, wp=None):
    """Construct u0 from the config's ic block; returns (field, description)."""
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
        w, dir_desc = _resolve_direction(params.get("direction", {}), g, H)
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
            if wp is None:
                wp = nehari.estimate_d(H, g, eps_grid=_eps_grid(cfg, g))
            amp = _amplitude_for_energy_level(coeffs, level * wp.d, branch)
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


def _verdict_for(cfg, g, H, u0, wp) -> classify.Verdict:
    tol_d = float(cfg["monitors"]["tol_d"])
    bounds = None
    energy = functionals.energy_E(u0, H)
    if energy > wp.d * (1.0 + tol_d):
        seed = cfg.get("seed", 0) or 0
        sampler = nehari.default_lambda_sampler(g, H, int(seed))
        try:
            bounds = nehari.sample_lambda_Lambda(energy, wp.d, H, sampler)
        except nehari.EstimationError:
            bounds = None
    return classify.classify_initial(u0, wp, tol_d, bounds)


def _verdict_artifact(verdict, ic_desc, wp, extra=None) -> dict:
    art = {
        "verdict": {
            "energy_regime": verdict.energy_regime,
            "well": verdict.well,
            "applicable_theorem": verdict.applicable_theorem,
            "expected_outcome": verdict.expected_outcome,
            "heuristic": verdict.heuristic,
            "details": verdict.details,
        },
        "ic": ic_desc,
        "well_depth": {"d": wp.d, "provenance": wp.provenance},
    }
    if extra:
        art.update(extra)
    return art


def _simulate_into(cfg: dict, out: Path, seed_override=None) -> dict:
    g = _grid_of(cfg)
    H = float(cfg["physics"]["H"])
    wp = _well_parameters(cfg, g, H)
    u0, ic_desc = build_initial_condition(cfg, g, H, seed_override, wp)
    verdict = _verdict_for(cfg, g, H, u0, wp)

    tcfg, mon = cfg["time"], cfg["monitors"]
    params = flow.FlowParams(
        H=H,
        dt0=float(tcfg["dt0"]),
        t_end=float(tcfg["t_end"]),
        dt_min=float(tcfg["dt_min"]),
        cg_tol=float(tcfg["cg_tol"]),
        record_every=int(mon["record_every"]),
        blowup_gradient_factor=float(mon["blowup_gradient_factor"]),
        decay_l2_floor=float(mon["decay_l2_floor"]),
    )
    tr = flow.run(u0, params, mon["delta_list"])
    write_trajectory_csv(out / "trajectory.csv", tr)

    report = classify.blowup_report(tr)
    art = _verdict_artifact(
        verdict,
        ic_desc,
        wp,
        extra={
            "run": {
                "status": tr.status,
                "stop_reason": tr.stop_reason,
                "t_last": float(tr.t[-1]),
                "samples": len(tr),
                "gradient_max": report.gradient_max,
                "concavity_positive_from": report.concavity_positive_from,
            }
        },
    )
    write_json(out / "verdict.json", art)
    return art


def cmd_simulate(cfg: dict, out: Path, seed_override=None) -> int:
    _simulate_into(cfg, out, seed_override)
    return EXIT_OK


def cmd_classify(cfg: dict, out: Path, seed_override=None) -> int:
    g = _grid_of(cfg)
    H = float(cfg["physics"]["H"])
    wp = _well_parameters(cfg, g, H)
    u0, ic_desc = build_initial_condition(cfg, g, H, seed_override, wp)
    verdict = _verdict_for(cfg, g, H, u0, wp)
    write_json(out / "verdict.json", _verdict_artifact(verdict, ic_desc, wp))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma verification


def _corpus(cfg, g: GridSpec, H: float):
    cc = cfg["corpus"]
    seed = cfg.get("seed", cc.get("seed"))
    if seed is None:
        raise ConfigError("verify-lemmas needs a corpus seed (top-level seed or corpus.seed)")
    members = [
        fields.random_bandlimited(g, int(seed) + i, int(cc["kmax"])) for i in range(int(cc["count"]))
    ]
    probe = []
    if cc.get("saturation_probe"):
        # near-extremal directions that saturate the isoperimetric inequality;
        # their discrete gap exposes the resolution limit of the grid
        probe = [u for _, u in nehari.bubble_family(g, H, _eps_grid(cfg, g))]
    return members, probe


def cmd_verify_lemmas(cfg: dict, out: Path) -> int:
    g = _grid_of(cfg)
    H = float(cfg["physics"]["H"])
    corpus, probe = _corpus(cfg, g, H)
    checks: dict[str, dict] = {}
    warning = None
    if not corpus:
        warning = "empty corpus: field checks pass vacuously"

    # isoperimetric inequality with discretization slack
    worst = math.inf
    violations = []
    for i, u in enumerate(corpus + probe):
        a = h1_seminorm_sq(u)
        gap = functionals.isoperimetric_gap(u)
        rel = gap / a if a > 0 else 0.0
        worst = min(worst, rel)
        if gap < -1e-3 * a:
            violations.append({"member": i, "gap_over_dirichlet": rel})
    checks["isoperimetric"] = {
        "passed": not violations,
        "worst_gap_over_dirichlet": None if worst is math.inf else worst,
        "violations": violations,
    }

    # small norm forces positive D_delta; negative D_delta forces large norm;
    # vanishing D_delta pins the norm near the radius r(delta)
    small_ok, neg_ok, zero_ok = True, True, True
    worst_zero = math.inf
    for u in corpus:
        c = nehari.fibering_coeffs(u, H)
        if c.A <= 0.0:
            continue
        w = u if c.B < 0.0 else u.scaled(-1.0)
        cw = nehari.fibering_coeffs(w, H)
        if cw.B >= 0.0:
            continue
        for delta in (0.5, 1.0, 1.25):
            r = functionals.r_of_delta(delta, H)
            s = 0.9 * r / math.sqrt(cw.A)
            if functionals.nehari_D_delta(w.scaled(s), H, delta) <= 0.0:
                small_ok = False
            c_zero = nehari.project_nehari_delta(cw, delta)
            c_neg = 1.5 * c_zero
            if functionals.nehari_D_delta(w.scaled(c_neg), H, delta) < 0.0:
                if c_neg * math.sqrt(cw.A) <= r:
                    neg_ok = False
            norm_zero = c_zero * math.sqrt(cw.A)
            worst_zero = min(worst_zero, norm_zero / r)
            if norm_zero < r * 0.98:
                zero_ok = False
    checks["nehari_sign_small_norm"] = {"passed": small_ok}
    checks["nehari_sign_negative_implies_large"] = {"passed": neg_ok}
    checks["nehari_zero_norm_bound"] = {
        "passed": zero_ok,
        "worst_norm_over_radius": None if worst_zero is math.inf else worst_zero,
    }

    # well-depth curve shape against the fiber algebra and the radius bound
    wp = _well_parameters(cfg, g, H)
    best_eps, best = nehari.optimal_bubble(g, H, _eps_grid(cfg, g), tuple(cfg["well"]["center"]))
    cbest = nehari.fibering_coeffs(best, H)
    curve_rows = []
    curve_ok = True
    for delta in DELTA_TABLE:
        lam = nehari.project_nehari_delta(cbest, delta)
        measured = functionals.energy_E(best.scaled(lam), H)
        expected = nehari.d_of_delta(delta, wp.d)
        lower = functionals.a_of_delta(delta) * functionals.r_of_delta(delta, H) ** 2
        row_ok = (
            abs(measured - expected) <= 0.02 * expected
            and measured >= lower * 0.98
        )
        curve_ok &= row_ok
        curve_rows.append(
            {"delta": delta, "measured": measured, "expected": expected, "lower_bound": lower, "ok": row_ok}
        )
    peak_at_one = max(curve_rows, key=lambda r: r["measured"])["delta"] == 1.0
    checks["well_depth_curve"] = {
        "passed": bool(curve_ok and peak_at_one),
        "d": wp.d,
        "best_eps": best_eps,
        "rows": curve_rows,
        "maximum_at_delta_1": peak_at_one,
    }

    # fiber map: closed-form stationary scale vs direct golden-section search,
    # sign change of D across lambda*, peak dominance, negative far energy
    fiber_ok = True
    fiber_worst = 0.0
    tested = 0
    for u in corpus[: min(len(corpus), 20)]:
        c = nehari.fibering_coeffs(u, H)
        if c.A <= 0.0:
            continue
        w = u if c.B < 0.0 else u.scaled(-1.0)
        cw = nehari.fibering_coeffs(w, H)
        if cw.B >= 0.0:
            continue
        tested += 1
        lam = nehari.lambda_star(cw)
        lam_gs = nehari.golden_section_peak(w, H, 0.0, 4.0 * lam, tol=1e-9 * lam)
        rel = abs(lam_gs - lam) / lam
        fiber_worst = max(fiber_worst, rel)
        peak = functionals.energy_E(w.scaled(lam), H)
        if rel > 1e-6:
            fiber_ok = False
        if not (
            functionals.nehari_D(w.scaled(0.5 * lam), H) > 0.0
            and abs(functionals.nehari_D(w.scaled(lam), H)) <= 1e-8 * cw.A * lam * lam
            and functionals.nehari_D(w.scaled(2.0 * lam), H) < 0.0
            and functionals.energy_E(w.scaled(4.0 * lam), H) < 0.0
        ):
            fiber_ok = False
        for s in (0.25, 0.5, 2.0, 4.0):
            if functionals.energy_E(w.scaled(s * lam), H) > peak:
                fiber_ok = False
    checks["fiber_map"] = {"passed": fiber_ok, "directions": tested, "worst_lambda_rel_err": fiber_worst}

    # projected members with fiber energy below d stay inside the 6d ball
    cap_ok = True
    for u in corpus:
        c = nehari.fibering_coeffs(u, H)
        if c.A <= 0.0 or c.B >= 0.0:
            continue
        peak = nehari.fiber_peak_energy(c)
        if peak <= wp.d:
            lam = nehari.lambda_star(c)
            if lam * lam * c.A > 6.0 * wp.d * (1.0 + 1e-9):
                cap_ok = False
    checks["projected_norm_cap"] = {"passed": cap_ok}

    # split identity E + (1/3) H int(...) = D/2 to near machine precision
    ident_worst = 0.0
    for u in corpus:
        _, meas = classify.check_e54(u, H)
        ident_worst = max(ident_worst, meas["identity_residual_rel"])
    checks["energy_split_identity"] = {"passed": ident_worst <= 1e-12, "worst_rel_residual": ident_worst}

    all_passed = all(c["passed"] for c in checks.values())
    artifact = {
        "n": g.nx,
        "H": H,
        "corpus_size": len(corpus),
        "probe_size": len(probe),
        "checks": checks,
        "all_passed": all_passed,
    }
    if warning:
        artifact["warning"] = warning
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
    except (flow.SolverError, nehari.EstimationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
