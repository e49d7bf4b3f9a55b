"""Seeded random number generation.

All randomness in the library flows through generators created here and
owned by the caller; there is no module-level RNG state.  Philox is a
64-bit counter-based generator, so a (seed, stream) pair pins the entire
sequence and runs are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# seeds and streams lie in [0, SEED_LIMIT): Philox takes a 64-bit key word,
# and numpy warns on a key value in its last few below 2**64
SEED_LIMIT = 2**63


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a counter-based generator for the given seed and stream.

    Distinct streams under one seed are independent, which lets per-image
    or per-parameter work be generated in any order (or in parallel)
    without changing the result.  Both lie in [0, 2**63).
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < SEED_LIMIT:
            raise ConfigError(f"make_rng: {name} {value} outside [0, 2**63)")
    return np.random.Generator(np.random.Philox(key=(seed, stream)))
