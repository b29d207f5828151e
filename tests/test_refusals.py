"""Input refusals of the public functions: each raises ValueError on an
input outside its domain, and the two outputs at the edge of a domain
that have a fixed rendering."""

import math
from fractions import Fraction

import pytest

from qmhs.closedforms import depth_one_bar, exterior_F, kkk_closed
from qmhs.cyclotomic import CycloElem, get_field, q_integer
from qmhs.exactnum import bernoulli
from qmhs.mhs import Index
from qmhs.multiseries import RATIONALS, MultiSeries, ms_divide_xy_minus_z
from qmhs.ohno_zagier import phi_recurrence, u_kernel
from qmhs.suites import run_suite
from qmhs.xi import (
    XiClosed,
    convergence_study,
    xi_closed_depth1,
    xi_kkk,
    xi_sum_formula,
    z_numeric,
)

REFUSALS = {
    "depth_one_bar n < 1": lambda: depth_one_bar(0, 3),
    "depth_one_bar K < 1": lambda: depth_one_bar(3, 0),
    "kkk_closed r < 1": lambda: kkk_closed(2, 0, 5),
    "exterior_F l > k": lambda: exterior_F(2, 3),
    "CycloElem wrong length": lambda: CycloElem(get_field(5), [Fraction(1)] * 3),
    "q_integer m = 0": lambda: q_integer(0, get_field(5)),
    "bernoulli k < 0": lambda: bernoulli(-1),
    "MultiSeries cap < 0": lambda: MultiSeries(RATIONALS, -1),
    "MultiSeries field mismatch": lambda: MultiSeries.zero(2) + MultiSeries.zero(2, get_field(5)),
    "ms_divide_xy_minus_z cap < 2": lambda: ms_divide_xy_minus_z(MultiSeries.zero(1)),
    "u_kernel n < 1": lambda: u_kernel(0, 4),
    "phi_recurrence n < 2": lambda: phi_recurrence(1, 4),
    "run_suite unknown": lambda: run_suite("nope"),
    "z_numeric n < 2": lambda: z_numeric(Index((2,)), 1),
    "xi_closed_depth1 k < 1": lambda: xi_closed_depth1(0),
    "xi_kkk r < 1": lambda: xi_kkk(2, 0),
    "xi_sum_formula r > k": lambda: xi_sum_formula(2, 3),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_input_outside_the_domain_is_refused(call):
    with pytest.raises(ValueError):
        call()


def test_one_level_convergence_study_has_no_rate():
    study = convergence_study(Index((2,)), [64])
    assert len(study.rows) == 1
    assert math.isnan(study.rate)


def test_zero_limit_renders_as_zero():
    assert str(XiClosed(Fraction(0), 2)) == "0"
