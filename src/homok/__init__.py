"""Exact invariants of homogeneous function groups on finite abelian groups."""

__version__ = "0.1.0"
