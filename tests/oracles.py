"""Floating-point oracles for cross-checking exact routines in tests.

Nothing here may reach a verdict: the package itself has no floating-point
code, and numpy is a test-only dependency.
"""

import numpy as np


def roots_float(p):
    """Approximate complex roots of a Poly via numpy."""
    if p.is_zero() or p.is_constant():
        raise ValueError("roots_float needs degree >= 1")
    desc = [float(c) for c in reversed(p.coeffs)]
    return [complex(r) for r in np.roots(desc)]
