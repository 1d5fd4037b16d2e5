"""Seeded item lists of the four benchmark workloads.

An item is one `hflow` CLI invocation on a generated JSON config.  The same
(workload, seed) pair always yields the same items; the program only ever
sees the config files written from them.  Every generated simulate config
records each accepted step (`record_every = 1`), so accepted steps can be
read back from the trajectory as rows - 1.

Why each workload exists (ranges were chosen so that every seed lands in the
named theorem branch and no item fails):

* decay  - two long constant-dt runs at n = 63 that decay to zero; the
  Helmholtz solve and the per-state pass do nearly all the work.
* blowup - four short runs at n = 127 that stop on the gradient threshold
  after dt halvings and rejected attempts; set-up layers (well depth,
  classification, the 200-direction lambda/Lambda sampler) are a real share.
* lemmas - verify-lemmas on a band-limited corpus plus compute-well-depth;
  no flow at all, so a solver change must not move it.
* sweep  - the process-parallel path: four cells straddling the
  decay/blow-up transition, one worker per available core.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TIME = {"dt0": 5e-4, "t_end": 1.0, "dt_min": 1e-10, "cg_tol": 1e-10}
MONITORS = {"delta_list": [0.25, 0.75, 1.25], "record_every": 1}


@dataclass(frozen=True)
class Item:
    name: str
    command: str  # hflow subcommand
    config: dict

    @property
    def processes(self) -> int:
        """Processes the item keeps busy at once: sweep cells run in a pool."""
        if self.command != "sweep":
            return 1
        return int(self.config["sweep"]["max_workers"])


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _bubble(eps: float, center=(0.5, 0.5)) -> dict:
    return {"type": "bubble", "center": list(center), "eps": eps}


def simulate_config(n: int, ic_params: dict, seed: int | None = None) -> dict:
    cfg = {
        "grid": {"n": n},
        "physics": {"H": 1.0},
        "ic": {"type": "scaled-direction", "params": ic_params},
        "time": dict(TIME),
        "monitors": dict(MONITORS),
    }
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def decay(rng: random.Random, nproc: int) -> list[Item]:
    center = (_u(rng, 0.45, 0.55), _u(rng, 0.45, 0.55))
    low = {"direction": _bubble(_u(rng, 0.2, 0.3), center), "lambda_multiple": _u(rng, 0.03, 0.08)}
    critical = {
        "direction": _bubble(_u(rng, 0.08, 0.12)),
        "energy_level": 1.0,
        "branch": "below-peak",
    }
    return [
        Item("low-energy", "simulate", simulate_config(63, low)),
        Item("critical-below-peak", "simulate", simulate_config(63, critical)),
    ]


def blowup(rng: random.Random, nproc: int) -> list[Item]:
    low_v = {"direction": _bubble(_u(rng, 0.2, 0.3)), "lambda_multiple": _u(rng, 1.5, 2.0)}
    above = {
        "direction": _bubble(_u(rng, 0.08, 0.12)),
        "energy_level": 1.0,
        "branch": "above-peak",
    }
    # classifies as t22 at this grid (low energy, D < 0), not t52; kept so
    # that the fingerprint shows which branch these configs reach
    margin = {"direction": _bubble(_u(rng, 0.2, 0.3)), "e54_margin": _u(rng, 1.1, 1.3)}
    high = {"direction": _bubble(_u(rng, 0.2, 0.3)), "lambda_multiple": _u(rng, 1.15, 1.25)}
    return [
        Item("low-energy-negative-D", "simulate", simulate_config(127, low_v)),
        Item("critical-above-peak", "simulate", simulate_config(127, above)),
        Item("e54-margin", "simulate", simulate_config(127, margin)),
        Item("high-energy-sampled", "simulate", simulate_config(127, high, seed=rng.randrange(1 << 20))),
    ]


def lemmas(rng: random.Random, nproc: int) -> list[Item]:
    corpus = {
        "grid": {"n": 127},
        "physics": {"H": 1.0},
        "seed": rng.randrange(1 << 20),
        "corpus": {"count": 50, "kmax": 6},
    }
    depth = {
        "grid": {"n": 127},
        "physics": {"H": 1.0},
        "well": {"center": [_u(rng, 0.45, 0.55), _u(rng, 0.45, 0.55)]},
    }
    return [Item("verify-lemmas", "verify-lemmas", corpus), Item("well-depth", "compute-well-depth", depth)]


def sweep(rng: random.Random, nproc: int) -> list[Item]:
    # at eps = 0.25 the runs decay up to lambda_multiple ~0.7 and blow up from
    # ~0.8; one cell per band keeps the verdict mix (t21, undetermined, t51.2,
    # t22) and with it the memory of the 200-direction sampler the same for
    # every seed
    bands = ((0.35, 0.45), (0.5, 0.6), (1.05, 1.15), (1.4, 1.5))
    multiples = [_u(rng, lo, hi) for lo, hi in bands]
    cfg = simulate_config(63, {"direction": _bubble(0.25)})
    cfg["sweep"] = {"lambda_multiples": multiples, "max_workers": nproc}
    return [Item("sweep", "sweep", cfg)]


WORKLOADS = {"decay": decay, "blowup": blowup, "lemmas": lemmas, "sweep": sweep}


def items_for(workload: str, seed: int, nproc: int) -> list[Item]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), nproc)
