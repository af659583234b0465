"""Every integer knob fails in one form: `<name> must be an integer, got v`
for a value that is not an integer, `<name> must be >= k, got v` below its
bound and `<name> must be <= 9223372036854775807, got v` above int64's; an
integer past CPython's int-to-text limit is named by its bit length."""

import re

import numpy as np
import pytest

from heatinv import (ConfigError, DataError, DomainError, GridFn, InversionConfig, NoiseSpec,
                     Observations, PeelPlan, ProblemInstance, ScheduleError, SineSeries,
                     eval_basis, make_problem, mode_constants, peel_lsq, plan_peel, project,
                     recover_vh, solve_fd)
from heatinv.basis import basis_at
from heatinv.io import ExperimentConfig
from heatinv.regularize import check_study

INT64_MAX = 2 ** 63 - 1

#: past CPython's default limit of 4,300 digits for int-to-text conversion
HUGE = 10 ** 5000

_Q = GridFn(0.0, 1e-2, np.exp(-np.arange(101) * 1e-2))
_ROW = GridFn(0.0, 1e-2, np.zeros(101))

# entry point: (call of the knob's value, knob name, least value, error type)
ENTRY_POINTS = {
    "project": (lambda n: project(np.sin, n), "truncation order", 1, DomainError),
    "basis_at": (lambda n: basis_at(1.0, n), "truncation order", 1, DomainError),
    "ProblemInstance": (lambda n: ProblemInstance(h=np.cos, v=np.cos, g=SineSeries([1.0]),
                                                  order=n, t_final=1.0, dt=0.5),
                        "mode truncation", 1, DomainError),
    "g_coeffs": (lambda n: make_problem("decay1", 8, 1.0, 1e-2).g_coeffs(n),
                 "mode truncation", 1, DomainError),
    "peel_lsq": (lambda n: peel_lsq(_Q, n), "peeling depth", 1, DomainError),
    "plan_peel": (lambda n: plan_peel(_Q, n), "peeling depth", 1, DomainError),
    "InversionConfig.depth": (lambda n: InversionConfig(depth=n), "peeling depth", 1, DomainError),
    "recover_vh": (lambda n: recover_vh(Observations(_ROW, _ROW, _ROW, 1.0), 0.0, 0.0, burn_in=n),
                   "burn-in", 0, DomainError),
    "InversionConfig.burn_in": (lambda n: InversionConfig(burn_in=n), "burn-in", 0, DomainError),
    "Observations": (lambda n: Observations(_ROW, _ROW, _ROW, 1.0, order=n),
                     "mode truncation", 3, DomainError),
    "InversionConfig.order": (lambda n: InversionConfig(order=n), "mode truncation", 3, DomainError),
    "NoiseSpec": (lambda n: NoiseSpec("absolute", 1e-3, n), "noise seed", 0, DataError),
    "check_study": (lambda n: check_study([0.0], n), "trials", 1, DomainError),
    "solve_fd": (lambda n: solve_fd(make_problem("decay1", 4, 1.0, 0.5), n),
                 "spatial points", 16, DomainError),
    "project.quad_points": (lambda n: project(np.sin, 4, n), "quadrature points", 16, DomainError),
    "mode_constants": (mode_constants, "mode index", 1, DomainError),
    "eval_basis": (lambda n: eval_basis(n, 1.0), "mode index", 1, DomainError),
}

# a config field fails as a ConfigError in the message of the knob it feeds
# (a value that is no integer fails the config's own type check first)
CONFIG_FIELDS = {"order": "mode truncation", "depth": "peeling depth", "burn_in": "burn-in",
                 "smooth_window": "smoothing window", "seed": "noise seed", "trials": "trials"}
CONFIG_POINTS = {f"ExperimentConfig.{field}": (lambda n, field=field: ExperimentConfig(**{field: n}),
                                               name, None, ConfigError)
                 for field, name in CONFIG_FIELDS.items()}

# (entry point, value), None standing for the value just below the bound
CASES = ([(point, 2.5) for point in ENTRY_POINTS] + [(point, None) for point in ENTRY_POINTS]
         + [(point, value) for point in ("mode_constants", "eval_basis") for value in (True, 2.0)]
         + [(point, value) for point in {**ENTRY_POINTS, **CONFIG_POINTS}
            for value in (INT64_MAX + 1, 10 ** 400, HUGE)]
         + [(point, -HUGE) for point in ENTRY_POINTS])


def case_id(point, value) -> str:
    label = {None: "below", 10 ** 400: "10**400", HUGE: "10**5000", -HUGE: "-10**5000"}
    return f"{point}-{label.get(value) or repr(value)}"


@pytest.mark.parametrize("point, value", CASES, ids=[case_id(p, v) for p, v in CASES])
def test_integer_knob_messages(point, value):
    # mode_constants(True) and mode_constants(2.0) returned modes 1 and 2;
    # project(np.sin, 4, 100.5) raised a bare TypeError from np.linspace;
    # ExperimentConfig(order=10**400) raised numpy's bare ValueError, and a
    # depth, seed, trials or burn-in of 10**400 loaded; 10**5000 and -10**5000
    # raised CPython's bare ValueError while the message was formatted
    call, name, least, error = {**ENTRY_POINTS, **CONFIG_POINTS}[point]
    if value is None:
        value, text = least - 1, f"{name} must be >= {least}, got {least - 1}"
    elif value == HUGE:
        text = f"{name} must be <= {INT64_MAX}, got an integer of 16610 bits"
    elif value == -HUGE:
        text = f"{name} must be >= {least}, got a negative integer of 16610 bits"
    elif isinstance(value, int) and value > INT64_MAX:
        text = f"{name} must be <= {INT64_MAX}, got {value}"
    else:
        text = f"{name} must be an integer, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


WINDOW_POINTS = {
    "plan_peel": (lambda w: plan_peel(_Q, 1, window=w), ScheduleError),
    "PeelPlan": (lambda w: PeelPlan([1.0], [w]), ScheduleError),
    "InversionConfig": (lambda w: InversionConfig(window=w), ScheduleError),
    "ExperimentConfig": (lambda w: ExperimentConfig(window=w), ConfigError),
}


@pytest.mark.parametrize("value, text", [
    (INT64_MAX + 2, f"peeling window must be <= {INT64_MAX}, got {INT64_MAX + 2}"),
    (10 ** 400 + 1, f"peeling window must be <= {INT64_MAX}, got {10 ** 400 + 1}"),
    (10 ** 400, f"peeling window must be odd and >= 1, got {10 ** 400}"),
    (HUGE + 1, f"peeling window must be <= {INT64_MAX}, got an integer of 16610 bits"),
    (HUGE, "peeling window must be odd and >= 1, got an integer of 16610 bits"),
], ids=["2**63+1", "10**400+1", "10**400", "10**5000+1", "10**5000"])
@pytest.mark.parametrize("point", WINDOW_POINTS)
def test_window_beyond_int64_is_refused(point, value, text):
    # 10**400 raised a bare OverflowError from math.isfinite, and PeelPlan's
    # astype(int) wrapped 2**63 + 1 to a negative window (an IndexError followed)
    call, error = WINDOW_POINTS[point]
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


@pytest.mark.parametrize("field, value, text", [
    ("y", HUGE, "y must be a finite number, got an integer of 16610 bits"),
    ("levels", [0.0, HUGE], "levels must be a number list, got a list holding an integer too long to write"),
], ids=["y", "levels"])
def test_float_field_past_the_text_limit(field, value, text):
    # CPython's bare ValueError was raised while the message was formatted
    with pytest.raises(ConfigError, match=f"^{re.escape(text)}$"):
        ExperimentConfig(**{field: value})
