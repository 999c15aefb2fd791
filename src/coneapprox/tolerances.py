"""Numeric comparison tolerances used across the package.

All real-number comparisons are tolerance-relaxed: values within TAU_VAL of
each other are treated as equal, angles within TAU_ANGLE.  Double-precision
trigonometry loses roughly one ulp per operation, so TAU_VAL dominates the
accumulated error at the instance scales handled here (objective values of
order 1e-3 .. 1e3).  Every comparison in the package routes through these
two values, and they are constants: modules bind them at import time, so
assigning a new value to coneapprox.tolerances.TAU_VAL at run time changes
nothing.
"""

# Absolute tolerance for objective values and transformed coordinates.
TAU_VAL = 1e-9

# Absolute tolerance for angles (radians).
TAU_ANGLE = 1e-12
