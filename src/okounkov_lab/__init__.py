"""Exact convex-geometry and sparse-system toolkit.

Computes mixed volumes of rational polytopes, Newton-Okounkov bodies of
finite-dimensional Laurent-polynomial subspaces, and certified exact torus
root counts for sparse systems, together with an exactly-checked suite of
convex-geometric inequalities.
"""

__version__ = "0.1.0"
