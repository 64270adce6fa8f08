"""Polarization and symmetric decreasing rearrangement lab.

Engines:
    step1d  -- exact piecewise-constant functions on the line
    lattice -- finite-support functions on Z with the spiral order
    grid2d  -- centered 2-D grids with lattice-exact and interpolated modes

Supporting modules:
    halfspace -- halfspace geometry and dense dyadic schedules
    analysis  -- inequality functionals and the iterated-polarization scheme
    series    -- per-iteration convergence records and their CSV format
    cli       -- command-line front end
"""

from .errors import ParseError

__all__ = ["ParseError"]
__version__ = "0.1.0"
