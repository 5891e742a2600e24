"""Desk-scale simulator for massive hybrid analog/digital MIMO DOA systems.

Its modules cover array modeling and snapshot synthesis, covariance /
Root-MUSIC numerics, eigenvalue-based emitter detection (classical and
neural), ambiguity-resolving DOA estimators, Cramer-Rao bounds, and
low-resolution ADC quantization, plus a seeded Monte Carlo experiment
harness with a CLI entry point (``doa-lab``).  Names are imported from
their modules (``from doalab.arrays import ArrayConfig``); ``import doalab``
loads none of them.
"""

__version__ = "0.1.0"
