"""Correctness checks and fingerprints read from the artifacts of one item.

An item fails when it exits non-zero, when an artifact is missing or does
not parse, when an artifact holds a non-finite number, when a decisive
verdict contradicts the run status, or when verify-lemmas reports
`all_passed: false`.  The fingerprint keeps what must repeat exactly between
runs of the same inputs: theorem codes, statuses, stop reasons and
accepted/rejected step counts.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# decisive verdict -> run status that contradicts it
CONTRADICTS = {"global-decay": "blowup-suspected", "blowup": "decayed-to-zero"}
SETTLED = ("decayed-to-zero", "reached-horizon")


class ArtifactError(ValueError):
    pass


@dataclass
class RunInfo:
    """One trajectory: a simulate item or one sweep cell."""

    theorem: str
    expected: str
    status: str
    stop_reason: str | None
    accepted: int
    rejected: int
    energy_residual_rel: float

    def fingerprint(self) -> list:
        return [self.theorem, self.expected, self.status, self.stop_reason, self.accepted, self.rejected]


@dataclass
class ItemResult:
    failures: list[str] = field(default_factory=list)
    runs: list[RunInfo] = field(default_factory=list)
    lemmas_passed: bool | None = None

    def fingerprint(self) -> dict:
        fp = {"runs": [r.fingerprint() for r in self.runs]}
        if self.lemmas_passed is not None:
            fp["all_passed"] = self.lemmas_passed
        return fp


def load_json(path: Path):
    """Parse a JSON artifact, rejecting the NaN/Infinity literals json accepts."""
    if not path.is_file():
        raise ArtifactError(f"missing {path.name}")

    def non_finite(literal):
        raise ArtifactError(f"{path.name} holds non-finite {literal}")

    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path.name} does not parse: {exc}") from exc


def load_trajectory(path: Path) -> dict[str, list[float]]:
    if not path.is_file():
        raise ArtifactError(f"missing {path.name}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ArtifactError(f"{path.name} has no samples")
    header = rows[0]
    cols: dict[str, list[float]] = {name: [] for name in header}
    for k, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ArtifactError(f"{path.name} row {k} has {len(row)} fields, expected {len(header)}")
        for name, text in zip(header, row):
            try:
                value = float(text)
            except ValueError as exc:
                raise ArtifactError(f"{path.name} row {k} column {name}: {text!r}") from exc
            if not math.isfinite(value):
                raise ArtifactError(f"{path.name} row {k} column {name} is non-finite")
            cols[name].append(value)
    for name in ("t", "dt", "E", "energy_residual"):
        if name not in cols:
            raise ArtifactError(f"{path.name} lacks column {name}")
    return cols


def rejected_attempts(dt: list[float], time_cfg: dict, status: str, stop_reason: str | None) -> int:
    """Rejected attempts, counted from the dt column alone.

    The flow halves dt once per rejected attempt and never regrows it, so the
    count is log2(dt0 / smallest exact-halving dt of an accepted step); a run
    that stops on dt collapse made the halvings that took dt below dt_min.
    """
    dt0, dt_min = float(time_cfg["dt0"]), float(time_cfg["dt_min"])
    if stop_reason == "dt-collapse":
        return int(math.floor(math.log2(dt0 / dt_min))) + 1
    halvings = 0
    for step_dt in dt[1:]:
        k = math.log2(dt0 / step_dt)
        if abs(k - round(k)) < 1e-9:
            halvings = max(halvings, int(round(k)))
    return halvings


def read_run(run_dir: Path, time_cfg: dict) -> RunInfo:
    verdict = load_json(run_dir / "verdict.json")
    traj = load_trajectory(run_dir / "trajectory.csv")
    try:
        v, r = verdict["verdict"], verdict["run"]
        info = RunInfo(
            theorem=v["applicable_theorem"],
            expected=v["expected_outcome"],
            status=r["status"],
            stop_reason=r["stop_reason"],
            accepted=len(traj["t"]) - 1,
            rejected=rejected_attempts(traj["dt"], time_cfg, r["status"], r["stop_reason"]),
            energy_residual_rel=traj["energy_residual"][-1] / abs(traj["E"][0]),
        )
    except (KeyError, TypeError) as exc:
        raise ArtifactError(f"verdict.json lacks {exc}") from exc
    if CONTRADICTS.get(info.expected) == info.status:
        raise ArtifactError(f"verdict {info.theorem}/{info.expected} contradicted by run status {info.status}")
    return info


def check_item(command: str, config: dict, returncode: int, out_dir: Path) -> ItemResult:
    res = ItemResult()
    if returncode != 0:
        res.failures.append(f"exit code {returncode}")
    try:
        if command == "simulate":
            res.runs.append(read_run(out_dir, config["time"]))
        elif command == "sweep":
            index = load_json(out_dir / "index.json")
            for key, cell in sorted(index["cells"].items()):
                if "error" in cell:
                    raise ArtifactError(f"sweep cell {key}: {cell['error']}")
                res.runs.append(read_run(Path(cell["artifacts"]), config["time"]))
        elif command == "verify-lemmas":
            report = load_json(out_dir / "lemma_report.json")
            res.lemmas_passed = report["all_passed"] is True
            if not res.lemmas_passed:
                failed = sorted(k for k, c in report["checks"].items() if not c["passed"])
                raise ArtifactError(f"verify-lemmas all_passed false: {', '.join(failed)}")
        elif command == "compute-well-depth":
            depth = load_json(out_dir / "well_depth.json")
            if not depth["d"] > 0.0:
                raise ArtifactError(f"well depth d = {depth['d']} is not positive")
        else:
            raise ValueError(f"unknown command {command!r}")
    except ArtifactError as exc:
        res.failures.append(str(exc))
    except (KeyError, TypeError) as exc:
        res.failures.append(f"artifact lacks {exc}")
    return res
