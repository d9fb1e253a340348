"""Collective alignment of self-propelled rigid bodies.

Layers, from algebra to statistics:

- rotations: SO(3)/unit-quaternion algebra, tangent projections, the
  closed-form tangent step, Q-tensors, and the degenerate-average guards.
- sampling: the von Mises law on rotations (density, inverse-CDF angle
  tables, matrix and quaternion samplers) and its first-moment coefficient.
- alignment: neighbor search on a periodic k-d tree, kernel-weighted sums
  through one sparse weight matrix, and the two neighborhood target
  constructions (polar factor / leading Q-tensor eigenvector).
- micro: the gradual (diffusive) and jump (event-driven) particle models in
  both orientation representations, plus single-particle law harnesses.
- gci: the invariant-profile ODE solve and the hydrodynamic constants
  c1, c2, c2', c3, c4; quadrature verification of the jump invariant.
- macro: the coupled density/orientation PDE system in matrix and quaternion
  forms — residual evaluators, an explicit conservative integrator, and
  synthetic fields for verification.
- estimators, frames, config, rng, cli: statistics, NDJSON frame logs,
  validated run configs, reproducible streams, and the command line.
"""

from .errors import (
    BoxTooSmall,
    CflViolation,
    ConfigError,
    DegenerateAverage,
    DomainError,
    NoConvergence,
    ParseError,
    SchemaError,
    SignDiscontinuity,
    SohbError,
    TooFewSamples,
)

__version__ = "0.1.0"

__all__ = [
    "SohbError",
    "DegenerateAverage",
    "BoxTooSmall",
    "NoConvergence",
    "DomainError",
    "SignDiscontinuity",
    "CflViolation",
    "ConfigError",
    "ParseError",
    "SchemaError",
    "TooFewSamples",
    "__version__",
]
