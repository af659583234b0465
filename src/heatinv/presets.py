"""Closed-form benchmark problems.

All presets satisfy the corner conditions g(0) = v(0) and g(pi) = 0, so the
true solutions are smooth and both forward solvers reach their nominal
accuracy.  Band-limited initial data carry exact coefficients, which keeps
projection error out of round-trip experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import SineSeries
from .errors import ConfigError
from .forward import ProblemInstance


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    h: Callable
    v: Callable
    g: Callable | SineSeries


def _const(value: float) -> Callable:
    return lambda t: np.full_like(np.asarray(t, dtype=float), value)


PRESETS: dict[str, Preset] = {
    "decay1": Preset(
        name="decay1",
        description="pure first-mode decay: h = 0, v = 0, g = f_1",
        h=_const(0.0),
        v=_const(0.0),
        g=SineSeries([1.0]),
    ),
    "steady": Preset(
        name="steady",
        description="equilibrium ramp: h = 0, v = 1, g = 1 - x/pi (u stays put)",
        h=_const(0.0),
        v=_const(1.0),
        g=lambda x: 1.0 - np.asarray(x, dtype=float) / math.pi,
    ),
    "generic": Preset(
        name="generic",
        description="smooth forcing: h = 1 + cos t, v = e^{-t} - 1, g = sin x + 0.5 sin 2x",
        h=lambda t: 1.0 + np.cos(np.asarray(t, dtype=float)),
        v=lambda t: np.exp(-np.asarray(t, dtype=float)) - 1.0,
        g=SineSeries.from_sin_amplitudes([1.0, 0.5]),
    ),
    "fourmode": Preset(
        name="fourmode",
        description="four-mode initial data for peeling studies: "
        "g = sin x + 0.6 sin 2x + 0.35 sin 3x + 0.2 sin 4x, forcing as 'generic'",
        h=lambda t: 1.0 + np.cos(np.asarray(t, dtype=float)),
        v=lambda t: np.exp(-np.asarray(t, dtype=float)) - 1.0,
        g=SineSeries.from_sin_amplitudes([1.0, 0.6, 0.35, 0.2]),
    ),
}

def preset_names() -> list[str]:
    return sorted(PRESETS)


def make_problem(name: str, order: int, t_final: float, dt: float) -> ProblemInstance:
    """Instantiate a named preset on the requested grid."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset '{name}'; available: {', '.join(preset_names())}")
    ps = PRESETS[name]
    return ProblemInstance(h=ps.h, v=ps.v, g=ps.g, order=order, t_final=t_final, dt=dt)
