"""halfbubble: numerical verification toolkit for half-space bubble
blow-up energetics.

Submodules
----------
geometry   curvature data model, synthetic samples, metric expansions
bubble     the standard decaying profile, its derivatives and kernel
quadrature sphere moments, closed-form half-space moments, Monte Carlo
corrector  reduced profile solve and the quadratic corrector
energy     reduced-energy coefficients and slope experiments
reduction  finite-dimensional reduced functional and blow-up families
cli        command-line entry points
"""

__version__ = "0.1.0"
