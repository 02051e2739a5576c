"""Latent-subspace test-time ensembles with self-distillation and counting.

The package root exports nothing but ``__version__``; callers import from the
submodules (``gtta.ensemble``, ``gtta.predictor``, ``gtta.cli``, ...).
"""

__version__ = "0.1.0"
