"""Feedback-coded private communication over lossy bosonic wiretap channels.

Implements the Schalkwijk-Kailath feedback protocol on the classical channel
induced by coherent encoding plus homodyne detection, the closed-form rate,
error, and privacy-leakage bounds that go with it, and a reproducible Monte
Carlo harness that checks the simulation against every analytic prediction.
"""

__version__ = "1.0.0"
