"""Seeded config generators for the three benchmark workloads.

Every op is one ``dispersim`` CLI call on one generated JSON config. Op ``i``
of a run takes its draws from additive-recurrence (Kronecker) sequences whose
starting offsets come from the seed, so the first ``n`` ops of any run cover
each drawn range evenly. A run's op mix, and with it the run's medians, then
changes little from seed to seed, while every seed still draws its own
operating points. No draw is filtered or redrawn: a point the program fails
on counts as a failed op.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

FIBER_BETA2_PS2_KM = -21.0
BANDWIDTH_HZ = 3e9
SWEEP_PCF_D_PS_NM_KM = 2200.0
ALPHAS = (0.25, 0.5, 0.75, 1.0)
DCF = {"d_ps_nm_km": -250.0, "quoted_path_km": 7.0}

# Fractional parts of irrational numbers: steps of the Kronecker sequences.
_STEPS = (
    (math.sqrt(5.0) - 1.0) / 2.0,
    math.sqrt(2.0) - 1.0,
    math.sqrt(3.0) - 1.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n_samples: int
    k_max: int
    #: Wall seconds of one op with its probes and output check on the
    #: reference host (a 2-vCPU KVM guest of an Intel Xeon, family 6 model
    #: 143); sets how many ops a run of given ``--seconds`` makes.
    op_budget_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-grid", "sweep-k", 16384, 12, 0.33),
        Workload("scenario-deep", "scenario", 65536, 40, 1.4),
        Workload("propagate-dump", "propagate", 65536, 12, 0.95),
    )
}


def _kronecker(seed: int, dims: int):
    """Yield points of ``dims`` shifted additive-recurrence sequences in [0, 1)."""
    shifts = np.random.default_rng(seed).random(dims)
    i = 0
    while True:
        yield [math.modf(shifts[d] + i * _STEPS[d])[0] for d in range(dims)]
        i += 1


def _cycled(seed: int, choices: list):
    """Yield ``choices`` in a fresh seeded order on every pass."""
    rng = np.random.default_rng([seed, len(choices)])
    while True:
        for j in rng.permutation(len(choices)):
            yield choices[j]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * math.log(hi / lo))


def _span_z_km(xi: float) -> float:
    """Span length giving dispersion strength xi = |beta2| * z * (2*pi*B)^2."""
    beta2_si = abs(FIBER_BETA2_PS2_KM) * 1e-27
    return xi / (beta2_si * (2.0 * math.pi * BANDWIDTH_HZ) ** 2) / 1e3


def _signal(n_samples: int) -> dict:
    return {"pulse": "sinc", "bandwidth_hz": BANDWIDTH_HZ, "n_samples": n_samples}


def _sweep_docs(seed: int, w: Workload, n_samples: int):
    points = _kronecker(seed, 2)
    alpha_pairs = _cycled(seed, list(combinations(ALPHAS, 2)))
    while True:
        u = next(points)
        xi = sorted(_log_uniform(v, 0.3, 12.0) for v in u)
        yield {
            "scenario": "perfbench-sweep-grid",
            "fiber": {"beta2_ps2_km": FIBER_BETA2_PS2_KM},
            "pcf": {"d_ps_nm_km": SWEEP_PCF_D_PS_NM_KM},
            "compensator": {"alphas": list(next(alpha_pairs)), "k_max": w.k_max},
            "signal": _signal(n_samples),
            "sweep": {"xi": xi},
        }


def _link_docs(seed: int, w: Workload, n_samples: int):
    points = _kronecker(seed, 2)
    alphas = _cycled(seed, list(ALPHAS))
    while True:
        u_xi, u_d = next(points)
        doc = {
            "scenario": f"perfbench-{w.name}",
            "fiber": {
                "beta2_ps2_km": FIBER_BETA2_PS2_KM,
                "z_km": _span_z_km(0.3 + u_xi * (4.0 - 0.3)),
            },
            "pcf": {"d_ps_nm_km": 1500.0 + u_d * (3000.0 - 1500.0)},
            "compensator": {"alphas": [next(alphas)], "k_max": w.k_max},
            "signal": _signal(n_samples),
        }
        if w.command == "scenario":
            doc["dcf"] = dict(DCF)
        yield doc


def config_docs(name: str, seed: int, n_samples: int | None = None):
    """Endless stream of config documents for workload ``name``.

    ``n_samples`` overrides the workload's grid size (the tests use a tiny
    grid); the same seed always yields the same stream.
    """
    w = WORKLOADS[name]
    n = w.n_samples if n_samples is None else n_samples
    if w.command == "sweep-k":
        return _sweep_docs(seed, w, n)
    return _link_docs(seed, w, n)
