"""Every float knob holds one rule: an int or a float whose value is a finite
float (errors._finite).  An integer past float range is refused with the
knob's typed error, and an integer past CPython's int-to-text limit is named
by its bit length in the message."""

import math
import re

import pytest

from heatinv import (DataError, DomainError, GridFn, InversionConfig, NoiseSpec, PeelPlan,
                     ScheduleError, assemble_g, make_problem)

#: past CPython's default limit of 4,300 digits for int-to-text conversion
HUGE = 10 ** 5000

# knob: (call of the value, error type, message above zero, message below)
POINTS = {
    "NoiseSpec.absolute": (lambda x: NoiseSpec("absolute", x, 0), DataError,
                           "noise level must be finite and non-negative", None),
    "NoiseSpec.relative": (lambda x: NoiseSpec("relative", x, 0), DataError,
                           "noise level must be finite and non-negative", None),
    "PeelPlan": (lambda x: PeelPlan([x]), ScheduleError, "schedule times must be finite", None),
    "make_problem.t_final": (lambda x: make_problem("decay1", 4, x, 1e-2), DataError,
                             "final time must be finite and positive", None),
    "make_problem.dt": (lambda x: make_problem("decay1", 4, 1.0, x), DataError,
                        "time step must fit a float", "time step must be positive"),
    "GridFn.t0": (lambda x: GridFn(x, 1.0, [1.0, 2.0]), DataError,
                  "grid start must be finite", None),
    "GridFn.dt": (lambda x: GridFn(0.0, x, [1.0, 2.0]), DataError,
                  "grid step must be finite and positive", None),
    "InversionConfig.ridge": (lambda x: InversionConfig(ridge=x), DomainError,
                              "ridge must be >= 0 and finite", None),
    "InversionConfig.amplification_cap": (lambda x: InversionConfig(amplification_cap=x),
                                          DomainError, "amplification cap must fit a float",
                                          "amplification cap must be > 0"),
    "InversionConfig.divisor_threshold": (lambda x: InversionConfig(divisor_threshold=x),
                                          DomainError, "divisor threshold must be >= 0 and < 1",
                                          None),
    "assemble_g": (lambda x: assemble_g([1.0, 2.0], 1.0, x), DomainError,
                   "divisor threshold must be >= 0 and < 1", None),
}

VALUES = {"10**400": 10 ** 400, "-10**400": -10 ** 400, "2**1024": 2 ** 1024,
          "10**5000": HUGE, "-10**5000": -HUGE}


def _text(point: str, value: int) -> str:
    """The value as the knob's message writes it."""
    if abs(value) == HUGE:
        if point == "PeelPlan":
            return "a list holding an integer too long to write"
        return f"{'a negative' if value < 0 else 'an'} integer of 16610 bits"
    return str([value]) if point == "PeelPlan" else str(value)


@pytest.mark.parametrize("label", VALUES)
@pytest.mark.parametrize("point", POINTS)
def test_integer_past_float_range_refused(point, label):
    # NoiseSpec, PeelPlan, make_problem and GridFn's start raised a bare
    # OverflowError at 10**400; GridFn's step, the ridge and the cap accepted
    # it; at 10**5000 and -10**5000 CPython's bare ValueError was raised while
    # the message was formatted
    call, error, above, below = POINTS[point]
    value = VALUES[label]
    text = f"{below if value < 0 and below else above}, got {_text(point, value)}"
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(value)


def test_integers_within_float_range_pass():
    # 2**1023 is a finite float, and the cap and a step of inf keep their meaning
    big = 2 ** 1023
    assert InversionConfig(ridge=big, amplification_cap=big).ridge == big
    assert InversionConfig(amplification_cap=math.inf).amplification_cap == math.inf
    assert GridFn(big, big, [1.0]).dt == big
    assert NoiseSpec("absolute", big, 0).level == big
    assert PeelPlan([2]).times.tolist() == [2.0]
    with pytest.raises(DataError, match="^final time 1 is shorter than one step of inf$"):
        make_problem("decay1", 4, 1, math.inf)
