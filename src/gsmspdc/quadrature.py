"""The two Gauss rules, the profiles' Gauss-Hermite inner rule and the
fringes' Gauss-Legendre one, and the order-doubling gate that measures the
order of both.

The gate evaluates a rule at n and 2 n, from n = INITIAL_ORDER, and doubles
n until the two agree to QUADRATURE_TOL in every max-normalized sample.  It
returns the finer rule, order 2 n, with that change as its error estimate,
as adaptive quadrature keeps its finer estimate (QUADPACK, Piessens et al.
1983).  Every returned value has passed a doubling check of at most
QUADRATURE_TOL, and a returned order can be 2 MAX_ORDER."""

import functools

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError

QUADRATURE_TOL = 1e-4   # max change of a max-normalized sample under doubling
INITIAL_ORDER = 2
MAX_ORDER = 64          # highest order whose doubling is checked


def _read_only(rule):
    for array in rule:
        array.flags.writeable = False
    return rule


# each rule is an eigenvalue solve, and the callers ask for the same few
# orders (the gate's 2 to 128, and a few starts) over and over
@functools.lru_cache(maxsize=16)
def legendre_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    return _read_only(leggauss(order))


@functools.lru_cache(maxsize=16)
def hermite_rule(order: int):
    """Gauss-Hermite nodes and weights for the weight exp(-x^2), read-only."""
    return _read_only(hermgauss(order))


def doubling_gate(evaluate, name, order=INITIAL_ORDER):
    """(evaluate(2 n), 2 n, change) at the first n of order, 2 order, ... up
    to MAX_ORDER (or the starting order, if higher) whose doubling moves no
    max-normalized sample of evaluate(n) by more than QUADRATURE_TOL, change
    being that largest move.  name ("inner" or "aperture") labels the rule
    in the ConvergenceError.
    """
    values = evaluate(order)
    cap = max(MAX_ORDER, order)
    while True:
        doubled = evaluate(2 * order)
        delta = float(np.max(np.abs(values / values.max()
                                    - doubled / doubled.max())))
        if delta <= QUADRATURE_TOL:
            return doubled, 2 * order, delta
        if 2 * order > cap:
            raise ConvergenceError(
                f"{name} quadrature not converged by order {order}: order "
                f"doubling still moved a sample by {delta:.2e}")
        values, order = doubled, 2 * order
