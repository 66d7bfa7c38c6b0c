"""fbbmlab: spectral laboratory for a fractional BBM equation.

Fourier-multiplier operator calculus, exact free-group propagation,
integrating-factor RK4 evolution, Petviashvili solitary-wave solver,
pointwise-difference (Stein) fractional derivatives, and a battery of
ratio stress tests for weighted and commutator estimates, all on a
periodic grid.
"""

__version__ = "0.1.0"
