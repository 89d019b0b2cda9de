"""Exact quadratic form invariants through even Clifford algebras."""

__version__ = "0.1.0"

from .rings import QQ, PrimeField, ExtensionField  # noqa: F401
