"""The two Gauss rules, the profiles' Gauss-Hermite inner rule and the
fringes' Gauss-Legendre one, and the order-doubling gate that measures the
order of both."""

import functools

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError

QUADRATURE_TOL = 1e-4   # max change of a max-normalized sample under doubling
INITIAL_ORDER = 4
MAX_ORDER = 64          # highest order the gate accepts


def _read_only(rule):
    for array in rule:
        array.flags.writeable = False
    return rule


# each rule is an eigenvalue solve, and the callers ask for the same few
# orders (the gate's 4 to 128, and a few starts) over and over
@functools.lru_cache(maxsize=16)
def legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    return _read_only(leggauss(order))


@functools.lru_cache(maxsize=16)
def hermite_rule(order: int):
    """Gauss-Hermite nodes and weights for the weight exp(-x^2), read-only."""
    return _read_only(hermgauss(order))


def doubling_gate(evaluate, name, order=INITIAL_ORDER, check_convergence=True):
    """(values, order, change) at the first of order, 2 order, ... up to
    MAX_ORDER (or the starting order, if higher) whose doubling moves no
    max-normalized sample of evaluate(order) by more than QUADRATURE_TOL;
    change is None unchecked.  name ("inner" or "aperture") labels the rule
    in the ConvergenceError.
    """
    values = evaluate(order)
    if not check_convergence:
        return values, order, None
    cap = max(MAX_ORDER, order)
    while True:
        doubled = evaluate(2 * order)
        delta = float(np.max(np.abs(values / values.max()
                                    - doubled / doubled.max())))
        if delta <= QUADRATURE_TOL:
            return values, order, delta
        if 2 * order > cap:
            raise ConvergenceError(
                f"{name} quadrature not converged by order {order}: order "
                f"doubling still moved a sample by {delta:.2e}")
        values, order = doubled, 2 * order
