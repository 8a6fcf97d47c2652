"""Seeded configs for the benchmark workloads.

The seed only moves coefficient values (amplitudes, phases, the forcing
average); every support, truncation, eps and option is fixed per workload,
so the work done per pass stays the same from seed to seed.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _complex(rng, lo: float, hi: float) -> complex:
    r = rng.uniform(lo, hi)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def _real_forcing(rng, d: int, modes, lo: float, hi: float, f0: float) -> dict:
    """Conjugate-symmetric forcing on +-modes plus a real average f0."""
    entries = [{"nu": [0] * d, "re": f0, "im": 0.0}]
    for nu in modes:
        c = _complex(rng, lo, hi)
        entries.append({"nu": list(nu), "re": c.real, "im": c.imag})
        entries.append({"nu": [-x for x in nu], "re": c.real, "im": -c.imag})
    entries.sort(key=lambda m: m["nu"])
    return {"d": d, "modes": entries}


def probe_separable(seed: int) -> dict:
    """d = 2 golden-mean separable system, asymmetric g, probe on."""
    rng = np.random.default_rng([seed, 1])
    return {
        "dimension": 2,
        "omega": [1.0, GOLDEN],
        "theorem": 1,
        "g": {"c_ref": 0.0, "coeffs": [[1, 1.0], [2, 1.0], [3, 0.5]]},
        "f": _real_forcing(rng, 2, [(1, 0), (0, 1), (1, 1)], 0.2, 0.35,
                           rng.uniform(-0.05, 0.05)),
        "epsilon": 0.02,
        "truncation": {"K": 10, "N": 10},
        "xi": 0.5,
        "rho": 0.5,
        "options": {"continuity_probe": True},
    }


def verify_general(seed: int) -> dict:
    """Theorem-2 system shaped like demos/configs/mixed.json: linear angle
    coupling on (+-1, 0), quadratic average, complex forcing layer."""
    rng = np.random.default_rng([seed, 2])
    coupling = _complex(rng, 0.3, 0.5)
    forcing = _complex(rng, 0.1, 0.2)
    grid = [
        [[0, 0], 1, 1.0],
        [[1, 0], 1, coupling.real, coupling.imag],
        [[-1, 0], 1, coupling.real, -coupling.imag],
        [[0, 0], 2, 1.0],
        [[0, 1], 0, forcing.real, forcing.imag],
        [[0, -1], 0, forcing.real, -forcing.imag],
    ]
    return {
        "dimension": 2,
        "omega": [1.0, GOLDEN],
        "theorem": 2,
        "h": {"c_ref": 0.0, "grid": grid},
        "epsilon": 0.1,
        "truncation": {"K": 12, "N": 8},
        "xi": 0.4,
        "rho": 0.5,
        "options": {"continuity_probe": False, "ode_check_tol": 1e-4},
    }


def sweep_d3(seed: int) -> dict:
    """d = 3 separable system, omega = (1, sqrt 2, sqrt 3), dyadic eps grid
    falling towards 0, probe off."""
    rng = np.random.default_rng([seed, 3])
    return {
        "dimension": 3,
        "omega": [1.0, math.sqrt(2.0), math.sqrt(3.0)],
        "theorem": 1,
        "g": {"c_ref": 0.0, "coeffs": [[1, 1.0], [2, 1.0], [3, 0.5]]},
        "f": _real_forcing(rng, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                           0.2, 0.35, rng.uniform(-0.05, 0.05)),
        "epsilon": 0.04,
        "epsilon_grid": [0.04 / 2**k for k in range(5)],
        "truncation": {"K": 5, "N": 5},
        "xi": 0.5,
        "rho": 0.5,
        "options": {"continuity_probe": False, "n_max": 6},
    }
