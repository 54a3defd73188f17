"""The exhaustive enumerator behind every exact oracle.

A configuration of n binary variables (bond states for percolation, spins
for Ising) is an integer c in [0, 2^n); bit b of c is variable b's state.
bit_chunks visits all 2^n configurations in order, in chunks of at most
2^chunk_bits consecutive integers (CHUNK_BITS by default), and hands each
chunk over as a bool array with one row per variable.  The oracles reduce
whole chunks with numpy, so no Python loop runs per configuration, and a
chunk bounds the working set.
"""

import numpy as np

EXACT_LIMIT = 20    # variables, so at most 2^20 configurations
CHUNK_BITS = 13


def bit_chunks(n_bits: int, unit: str, chunk_bits: int = CHUNK_BITS):
    """Iterate (start, bits) over all 2^n_bits configurations, in order,
    2^chunk_bits at a time.

    bits has shape (n_bits, rows) and bits[b, r] is bit b of configuration
    start + r.  More than EXACT_LIMIT variables raises ValueError at the
    call, before any work is done; unit names them in the message.
    """
    if n_bits > EXACT_LIMIT:
        raise ValueError("exact enumeration limited to %d %s"
                         % (EXACT_LIMIT, unit))
    low = min(n_bits, chunk_bits)
    rows = np.arange(1 << low)
    # the low bits repeat in every chunk; the high bits are constant in one
    low_bits = ((rows >> np.arange(low)[:, None]) & 1).astype(bool)
    high_shifts = np.arange(n_bits - low)[:, None]

    def chunks():
        for high in range(1 << (n_bits - low)):
            bits = np.empty((n_bits, 1 << low), dtype=bool)
            bits[:low] = low_bits
            bits[low:] = (high >> high_shifts) & 1
            yield high << low, bits

    return chunks()
