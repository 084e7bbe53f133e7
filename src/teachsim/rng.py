"""Seeded random streams.

All randomness in the package flows through counter-based Philox
generators so that any (seed, path) pair names the same stream on every
platform and every run, and substreams can be split off without
coordination (e.g. one stream per iteration, per teacher, per replicate).
"""

import numpy as np

# Fixed spawn-key prefixes for the package's named substreams.  Keeping
# them in one table avoids accidental collisions between modules.
KEY_FORGET = 0x01
KEY_QUERIES = 0x02
KEY_DATA = 0x03
KEY_MAP = 0x04
KEY_INIT = 0x05
KEY_SELECT = 0x06
KEY_SPLIT = 0x07
KEY_PROBE = 0x08


def substream(seed, *path):
    """Independent generator for an integer seed and an integer path.

    Same (seed, path) -> identical stream; distinct paths -> statistically
    independent streams derived from the same root seed.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed, *path):
    """Deterministic integer seed derived from (seed, path)."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, np.uint32)[0])
