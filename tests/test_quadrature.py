"""The order-doubling gate's contract, on synthetic rules whose error at each
order is set by the test."""

import numpy as np
import pytest

from gsmspdc import quadrature
from gsmspdc.errors import ConvergenceError
from gsmspdc.quadrature import doubling_gate


class SyntheticRule:
    """evaluate(n) of a two-sample integrand, max 1, whose second sample is
    off by error(n); records every order asked for and every array returned,
    so that a max-normalized doubling moves it by |error(n) - error(2 n)|."""

    def __init__(self, error):
        self.error = error
        self.calls = []
        self.returned = {}

    def __call__(self, n):
        self.calls.append(n)
        self.returned[n] = np.array([1.0, 0.5 + self.error(n)])
        return self.returned[n]


def geometric(n):
    # doublings from 2 move the sample by 0.19, 0.059, 3.9e-3 and 1.5e-5
    return 2.0**-n


class TestDoublingGate:
    def test_returns_the_doubled_rule_and_its_change(self):
        rule = SyntheticRule(geometric)
        values, order, delta = doubling_gate(rule, "inner")
        assert rule.calls == [2, 4, 8, 16, 32]
        assert values is rule.returned[32]
        assert order == 32
        assert delta == abs(geometric(16) - geometric(32))

    def test_converged_start_pays_for_orders_2_and_4_only(self):
        rule = SyntheticRule(lambda n: 1e-6 / n)
        values, order, delta = doubling_gate(rule, "inner")
        assert rule.calls == [2, 4]
        assert values is rule.returned[4]
        assert order == 4
        assert delta == pytest.approx(2.5e-7, rel=1e-8)

    def test_start_above_cap_checked_by_one_doubling(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        rule = SyntheticRule(geometric)
        values, order, delta = doubling_gate(rule, "inner", order=16)
        assert rule.calls == [16, 32]
        assert (values is rule.returned[32]) and order == 32
        assert delta <= quadrature.QUADRATURE_TOL
        rule = SyntheticRule(geometric)
        with pytest.raises(ConvergenceError,
                           match="inner quadrature not converged by order 8"):
            doubling_gate(rule, "inner", order=8)
        assert rule.calls == [8, 16]

    def test_cap_is_the_highest_order_checked(self, monkeypatch):
        # the doubling from the cap is the last one checked: a rule that
        # would pass from order 16 fails at a cap of 4, naming that order
        monkeypatch.setattr(quadrature, "MAX_ORDER", 4)
        rule = SyntheticRule(geometric)
        with pytest.raises(ConvergenceError,
                           match="aperture quadrature not converged by order 4"):
            doubling_gate(rule, "aperture")
        assert rule.calls == [2, 4, 8]
