"""Chains of structured matrix factors: which products fill the space of
all matrices, and how to compute an explicit factorization.

The families module defines the factor families (banded, triangular,
Toeplitz-like, skew-symmetric, orthogonal, companion, Vandermonde, random
linear subspaces) with parameterizations and tangent frames.  The
dominance module measures the dimension of the image of the product map
from its Jacobian at random points.  The companion module carries the
exact companion solve and the vandermonde module the unit-root verdict.
The solver fits a factor chain to a concrete target numerically, and io
plus cli expose files and a command line.  The package re-exports
nothing: import the module you need (`import matchain.solver`).
"""

__version__ = "0.1.0"
