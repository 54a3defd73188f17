"""The exhaustive enumerator behind every exact oracle.

A configuration of n binary variables (bond states for percolation, spins
for Ising) is an integer c in [0, 2^n); bit b of c is variable b's state.
split_configurations hands all 2^n configurations over at once, split at a
low width: the low variables' 2^low configurations as one bool array, and
the high variables' 2^(n - low) configurations as another, with
configuration c = high index * 2^low + low row.  An oracle works out what
the low variables contribute once, for all their rows together, and then
visits the high configurations in order, so the low half is never built or
reduced twice, and 2^low rows bound the working set.
"""

import numpy as np

EXACT_LIMIT = 20    # variables, so at most 2^20 configurations
CHUNK_BITS = 13


def split_configurations(n_bits: int, unit: str, low: int):
    """(low_bits, high_bits) of all 2^n_bits configurations.

    low_bits[b, r] is bit b of r for the first min(n_bits, low) variables
    and every r in [0, 2^low); high_bits[b, k] is bit low + b of
    configuration k * 2^low + r, for every high index k.  More than
    EXACT_LIMIT variables raises ValueError before any work is done; unit
    names them in the message.
    """
    if n_bits > EXACT_LIMIT:
        raise ValueError("exact enumeration limited to %d %s"
                         % (EXACT_LIMIT, unit))
    low = min(n_bits, low)
    return _bit_rows(low), _bit_rows(n_bits - low)


def _bit_rows(n_bits: int) -> np.ndarray:
    """bits[b, r] = bit b of r, for r in [0, 2^n_bits): one row at a time
    from a uint32 arange, so no temporary outgrows a row."""
    values = np.arange(1 << n_bits, dtype=np.uint32)
    bits = np.empty((n_bits, 1 << n_bits), dtype=bool)
    for b in range(n_bits):
        bits[b] = (values >> b) & 1
    return bits
