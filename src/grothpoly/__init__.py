"""Exact-arithmetic engine and batch verifier for the support structure of
Schubert and Grothendieck polynomials."""

__version__ = "0.1.0"
