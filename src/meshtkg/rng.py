"""Deterministic random streams.

Every stochastic choice in the package (init, dropout masks, history
subsampling, synthetic embeddings) draws from a Philox counter-based
generator keyed by (seed, domain, index). Philox output is fixed by its
key, so results are reproducible across runs and platforms, and streams
for different purposes never interact.
"""

import numpy as np

# domain codes for substreams derived from one run seed
INIT = 1
DROPOUT = 2
DROP_HISTORY = 3
SYNTH_ENTITY = 4
SYNTH_RELATION = 5

_MASK64 = (1 << 64) - 1


def rekey(bitgen: np.random.Philox, seed: int, domain: int, index: int = 0) -> None:
    """Reset `bitgen` to the start of stream (seed, domain, index): its key,
    a zero counter and an empty output buffer, as a new Philox with that key."""
    key = (seed & _MASK64, ((domain & 0xFFFFFFFF) << 32) | (index & 0xFFFFFFFF))
    bitgen.state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def stream(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, domain, index)."""
    # `Philox(key=...)` would first seed itself from OS entropy; this seed draws none
    bitgen = np.random.Philox(0)
    rekey(bitgen, seed, domain, index)
    return np.random.Generator(bitgen)
