"""Wavenumbers of the full-spectrum reference, for the tests.

A grid holds only the n/2+1 np.fft.rfft wavenumbers the library computes
on.  The public reference transforms (forward, inverse, apply_multiplier)
act on all n coefficients in FFT order, so a reference symbol is sampled
here.
"""

import numpy as np


def fft_xis(grid):
    """2 pi np.fft.fftfreq(n, dx): xi_k = pi k / L for k in FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
