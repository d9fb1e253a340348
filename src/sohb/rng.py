"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, stream): runs with the same
seed are bitwise reproducible, and distinct stream ids give statistically
independent streams from one seed. Replica r of a simulation draws its
initial state from stream 2r + STREAM_INIT and its dynamics from
2r + STREAM_DYNAMICS, so replica 0 is the single run and a replica set is
the same whatever the worker count.
"""

import numpy as np

# Fixed stream ids for the pieces of a simulation that must be decoupled
# (e.g. so matrix and quaternion runs can share initial conditions while
# drawing independent dynamical noise).
STREAM_INIT = 0
STREAM_DYNAMICS = 1


def make_rng(seed, stream=0):
    """A numpy Generator on the Philox counter stream (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=[int(seed), int(stream)]))
