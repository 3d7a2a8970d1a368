"""Exact weighted lattice-path polynomials, classical polynomial families,
and a brute-force identity verification suite."""

__version__ = "0.1.0"
