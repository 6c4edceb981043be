import math

import pytest

from circlebreak.numerics import MACHINE_EPS, to_circle

# to_circle's results, bit for bit, as recorded from its floor-based
# reduction: signed zeros, whole turns, the clamp within 2 eps below a
# whole turn, negative lifts, and what a non-finite lift raises
TO_CIRCLE_PINS = [
    (-0.0, "-0x0.0p+0"),
    (0.0, "0x0.0p+0"),
    (1.0, "0x0.0p+0"),
    (-1.0, "0x0.0p+0"),
    (3.0, "0x0.0p+0"),
    (-7.0, "0x0.0p+0"),
    (2.0**52, "0x0.0p+0"),
    (-(2.0**52), "0x0.0p+0"),
    (1e300, "0x0.0p+0"),
    (-1e300, "0x0.0p+0"),
    # 1 to 4 ulps (up to 2 eps) below a whole turn clamp up to it; 5 do not
    (1 - MACHINE_EPS / 2, "0x0.0p+0"),
    (1 - MACHINE_EPS, "0x0.0p+0"),
    (1 - 3 * MACHINE_EPS / 2, "0x0.0p+0"),
    (1 - 2 * MACHINE_EPS, "0x0.0p+0"),
    (1 - 5 * MACHINE_EPS / 2, (1 - 5 * MACHINE_EPS / 2).hex()),
    (math.nextafter(3.0, 0.0), "0x0.0p+0"),
    (math.nextafter(-2.0, -3.0), "0x0.0p+0"),
    (math.nextafter(math.nextafter(-2.0, -3.0), -3.0), "0x1.ffffffffffff8p-1"),
    (-1e-20, "0x0.0p+0"),
    (-1e-17, "0x0.0p+0"),
    (-MACHINE_EPS, "0x0.0p+0"),
    (-0.25, "0x1.8000000000000p-1"),
    (-2.75, "0x1.0000000000000p-2"),
    (-3.1, "0x1.cccccccccccccp-1"),
    (5e-324, "0x0.0000000000001p-1022"),
    (-5e-324, "0x0.0p+0"),
    (0.3, "0x1.3333333333333p-2"),
    (2.3, "0x1.3333333333330p-2"),
]


@pytest.mark.parametrize("x, bits", TO_CIRCLE_PINS, ids=lambda v: repr(v))
def test_to_circle_keeps_its_bits(x, bits):
    assert to_circle(x).hex() == bits


@pytest.mark.parametrize(
    "x, error",
    [(math.nan, ValueError), (math.inf, OverflowError), (-math.inf, OverflowError)],
)
def test_to_circle_refuses_a_non_finite_lift(x, error):
    with pytest.raises(error):
        to_circle(x)
