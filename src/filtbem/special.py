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


def _j_plus_iy(j, y, x):
    """J(x) + i Y(x), J and Y written into the halves of one complex128
    array (a scalar for scalar x)."""
    x = _check_argument(x)
    out = np.empty(x.shape, np.complex128)
    j(x, out=out.real)
    y(x, out=out.imag)
    return out[()]


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
    return _j_plus_iy(j0, y0, x)


def hankel_h1_1(x):
    """First-kind Hankel function H1^(1)(x) = J1(x) + i Y1(x), x > 0."""
    return _j_plus_iy(j1, y1, x)
