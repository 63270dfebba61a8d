"""The order-doubling gate that measures the order of both quadrature rules:
the profiles' Gauss-Hermite inner rule and the fringes' Gauss-Legendre one."""

import numpy as np

from .errors import ConvergenceError

QUADRATURE_TOL = 1e-4   # max change of a max-normalized sample under doubling
INITIAL_ORDER = 4
MAX_ORDER = 64          # highest order the gate accepts


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
