"""Hankel functions of the first kind for positive real arguments.

H0^(1) and H1^(1), the kernels of the 2D Helmholtz layer potentials, built
as J + iY from scipy's order-0 and order-1 Bessel functions (Cephes), which
hold 1e-12 relative over (0, 1e3].  These are several times faster than
``scipy.special.hankel1`` (AMOS) on large arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j0, j1, y0, y1

__all__ = ["hankel_h1_0", "hankel_h1_1"]

EULER_GAMMA = np.euler_gamma


def _check_argument(x):
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("Hankel argument must be finite")
    if np.any(x <= 0.0):
        raise ValueError("Hankel argument must be positive (Y diverges at 0)")
    return x


def hankel_h1_0(x):
    """First-kind Hankel function H0^(1)(x) = J0(x) + i Y0(x), x > 0.

    Parameters
    ----------
    x : float or np.ndarray
        Positive real argument(s).

    Returns
    -------
    complex or np.ndarray, complex128
    """
    x = _check_argument(x)
    return j0(x) + 1j * y0(x)


def hankel_h1_1(x):
    """First-kind Hankel function H1^(1)(x) = J1(x) + i Y1(x), x > 0."""
    x = _check_argument(x)
    return j1(x) + 1j * y1(x)
