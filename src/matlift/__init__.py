"""Matroid lifts, non-representability certificates, and gain-graph lifts."""

__version__ = "0.1.0"
