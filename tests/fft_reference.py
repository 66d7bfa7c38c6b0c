"""References for the tests: the full-spectrum wavenumbers and norm, and
the stored snapshots of a run.

A grid holds only the n/2+1 np.fft.rfft wavenumbers the library computes
on.  The public reference transforms (forward, inverse, apply_multiplier)
act on all n coefficients in FFT order, so a reference symbol is sampled
and a Spectrum's norm is taken here.

evolve hands each snapshot to its observer in one reused buffer and
keeps none, so the tests that compare whole trajectories store them here,
and those that read only the end of a run keep its last snapshot.
"""

import numpy as np

from fbbmlab.evolution import evolve


def fft_xis(grid):
    """2 pi np.fft.fftfreq(n, dx): xi_k = pi k / L for k in FFT order."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)


def spectrum_l2(s):
    """L2 norm of a Spectrum from its n coefficients; equals field_l2 by Parseval."""
    return float(np.sqrt(np.sum(np.abs(s.coeffs) ** 2) / (2.0 * s.grid.L)))


def stored_states(initial, config):
    """The snapshots of evolve(initial, config, observe), one row each, in
    the order of config.snapshot_times: the observer copies each snapshot
    it is handed."""
    states = []
    evolve(initial, config, observe=lambda values: states.append(values.copy()))
    return np.array(states)


def last_state(initial, config):
    """The last snapshot of evolve(initial, config, observe): the observer
    copies each snapshot it is handed over the one before."""
    last = np.empty_like(initial.values)
    evolve(initial, config, observe=lambda values: np.copyto(last, values))
    return last
