"""The one region test: `functionals.region` and `nehari_sign` at their exact edges, and the verdict each
(regime, sign) gives in `classify_initial`, one case per row of `classify`'s table."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hflow.classify import BLOWUP, GLOBAL_DECAY, UNDETERMINED, check_sign_persistence, classify_initial
from hflow.cli import EXIT_OK, main
from hflow.fields import eigenmode
from hflow.flow import FlowParams, TrajectoryRecord, trajectory_columns
from hflow.functionals import SIGN_TOL_FACTOR, FunctionalReport, nehari_sign, region
from hflow.grid import make_grid
from hflow.nehari import WellParameters

# d = 1 and tol_d = 1/4: the band 1/4 and its edges 3/4 and 5/4 are exact
D_WELL, TOL_D = 1.0, 0.25


def _classify(monkeypatch, energy, nehari, l2_sq=1.0, bounds=None, d=D_WELL, tol_d=TOL_D):
    """classify_initial of a datum whose report is the given numbers, with dirichlet 1, against the well depth d."""
    rep = FunctionalReport(dirichlet=1.0, volume=0.0, energy=energy, nehari=nehari, l2_sq=l2_sq)
    monkeypatch.setattr("hflow.functionals.report", lambda u, H: rep)
    if bounds is not None:
        monkeypatch.setattr("hflow.classify.sample_lambda_Lambda", lambda *args: bounds)
    return classify_initial(eigenmode(make_grid(7)), WellParameters(H=1.0, d=d, provenance="synthetic"), tol_d)


# one case per row of the table in classify's docstring: (energy, nehari, l2_sq, lambda/Lambda bounds) ->
# (regime, well, theorem, outcome, heuristic)
TABLE_ROWS = {
    "low+": ((0.5, 0.5, 1.0, None), ("low", "W", "t21", GLOBAL_DECAY, False)),
    "low-": ((0.5, -0.5, 1.0, None), ("low", "V", "t22", BLOWUP, False)),
    "low0": ((0.5, 0.0, 1.0, None), ("low", "boundary", "none", UNDETERMINED, False)),
    "critical0": ((1.0, 0.0, 1.0, None), ("critical", "boundary", "t31", GLOBAL_DECAY, False)),
    "critical+": ((1.0, 0.5, 1.0, None), ("critical", "boundary", "t31", GLOBAL_DECAY, False)),
    "critical-": ((1.0, -0.5, 1.0, None), ("critical", "boundary", "t32", BLOWUP, False)),
    # E <= |u|_2 = 3 < -(D - dirichlet)/6 = 101/6: the high-energy inequality holds
    "high-e54": ((2.0, -100.0, 9.0, None), ("high", "outside", "t52", BLOWUP, False)),
    "high+": ((2.0, 0.5, 1.0, ((2.0, 0.1), (4.0, 0.2))), ("high", "outside", "t51.1", GLOBAL_DECAY, True)),
    "high-": ((2.0, -0.5, 1.0, ((0.1, 0.1), (0.5, 0.2))), ("high", "outside", "t51.2", BLOWUP, True)),
}


@pytest.mark.parametrize("row", TABLE_ROWS)
def test_each_row_of_the_verdict_table(monkeypatch, row):
    (energy, nehari, l2_sq, bounds), want = TABLE_ROWS[row]
    v = _classify(monkeypatch, energy, nehari, l2_sq, bounds=bounds)
    assert (v.energy_regime, v.well, v.applicable_theorem, v.expected_outcome, v.heuristic) == want
    assert region(energy, nehari, 1.0, D_WELL, TOL_D)[0] == v.energy_regime


@pytest.mark.parametrize("dirichlet", [1.0, 3.7, 1e-20, 6.02e23])
def test_the_sign_tolerance_edge(dirichlet):
    tau = SIGN_TOL_FACTOR * dirichlet
    for edge, outward in ((tau, 1), (-tau, -1)):
        assert nehari_sign(edge, dirichlet) == 0
        assert nehari_sign(np.nextafter(edge, outward * math.inf), dirichlet) == outward
    values = np.array([-2.0 * tau, np.nextafter(-tau, -math.inf), -tau, 0.0, tau, np.nextafter(tau, math.inf)])
    signs = nehari_sign(values, dirichlet)
    assert signs.tolist() == [-1, -1, 0, 0, 0, 1] == [nehari_sign(x, dirichlet) for x in values]
    assert type(nehari_sign(tau, dirichlet)) is int
    assert nehari_sign(math.nan, dirichlet) == 0


@pytest.mark.parametrize("d, tol_d", [(1.0, 0.25), (4.4388, 1e-3), (8.003457162269354, 1e-3), (0.3, 0.0)])
def test_the_low_edge_of_the_band(d, tol_d):
    # E = d - band is not low, and the float below it is
    edge = d - tol_d * d
    assert region(edge, 1.0, 1.0, d, tol_d)[0] == "critical"
    assert region(np.nextafter(edge, -math.inf), 1.0, 1.0, d, tol_d)[0] == "low"


def test_the_high_edge_of_the_band():
    # |E - d| = band is critical on both sides, and one rounding above d + band is high
    assert region(D_WELL + TOL_D, 1.0, 1.0, D_WELL, TOL_D)[0] == "critical"
    assert region(D_WELL - TOL_D, 1.0, 1.0, D_WELL, TOL_D)[0] == "critical"
    assert region(np.nextafter(D_WELL + TOL_D, math.inf), 1.0, 1.0, D_WELL, TOL_D)[0] == "high"
    # with tol_d = 0 only E = d itself is critical
    regimes = [region(np.nextafter(1.0, x), 1.0, 1.0, 1.0, 0.0)[0] for x in (0.0, 1.0, 2.0)]
    assert regimes == ["low", "critical", "high"]


def test_a_datum_at_the_low_edge_is_critical_where_the_edge_rounds_down(monkeypatch):
    # d - band rounds down here, so E = d - band is not low and yet lies farther than the band below d; it is
    # critical, never high, where the lambda/Lambda bounds would be read at a level below d (a ValueError)
    d, tol_d = 8.328, 1e-3
    edge = d - tol_d * d
    assert edge - d < -(tol_d * d)
    v = _classify(monkeypatch, edge, 0.5, d=d, tol_d=tol_d)
    assert (v.energy_regime, v.applicable_theorem, v.expected_outcome) == ("critical", "t31", GLOBAL_DECAY)


def test_nonpositive_energy_gives_the_whole_delta_window(monkeypatch):
    for energy in (0.0, -0.0, -3.0):
        v = _classify(monkeypatch, energy, 0.5)
        assert (v.details["delta1"], v.details["delta2"]) == (0.0, 1.5)
    v = _classify(monkeypatch, np.nextafter(0.0, 1.0), 0.5)  # the least positive energy takes the roots
    assert 0.0 < v.details["delta1"] < 1.0 < v.details["delta2"] <= 1.5  # 1.5 - 2E/9 rounds to 1.5


TAU = SIGN_TOL_FACTOR * 1.0


@pytest.mark.parametrize("nehari", [0.0, TAU, np.nextafter(TAU, 1.0), -TAU, np.nextafter(-TAU, -1.0), 0.3])
def test_sign_persistence_reads_the_sign_region_reads(nehari):
    # a one-row record with h1_sq (the Dirichlet integral) 1, whose D_delta at delta = 1 is D
    columns = trajectory_columns((1.0,))
    values = {"t": 0.0, "dt": 1e-3, "l2_sq": 1.0, "h1_sq": 1.0, "E": 0.5, "D": nehari, "D_delta_1": nehari}
    table = np.array([[values.get(c, 0.0) for c in columns]])
    tr = TrajectoryRecord(FlowParams(H=1.0, dt0=1e-3, t_end=1.0), (1.0,), table, "reached-horizon")
    (report,) = check_sign_persistence(tr)
    assert report.persistent and report.sign == region(0.5, nehari, 1.0, D_WELL, TOL_D)[1]


def test_on_peak_t32_datum_reads_critical_negative(tmp_path):
    # the t32 preset with the optimal direction sits on its fiber's peak, where the energy-level roots are both
    # 1; the above-peak margin alone moves its D past the sign tolerance
    cfg = json.loads(Path("presets/t32.json").read_text(encoding="utf-8"))
    cfg["ic"]["params"]["direction"]["eps"] = "optimal"
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["classify", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_OK
    det = json.loads((tmp_path / "o" / "verdict.json").read_text(encoding="utf-8"))["verdict"]["details"]
    assert region(det["energy"], det["nehari"], det["dirichlet"], det["d"], det["tol_d"]) == ("critical", -1)
