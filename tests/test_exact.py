import numpy as np
import pytest

from conftest import traced_peak
from lacelab import exact
from lacelab.exact import CHUNK_BITS, EXACT_LIMIT, split_configurations


def configurations(low_bits, high_bits):
    """Every configuration of a split, in order: the low rows beside each
    high configuration in turn, one chunk of 2^low consecutive integers
    per high index."""
    rows = low_bits.shape[1]
    return np.concatenate(
        [np.vstack([low_bits, np.repeat(high[:, None], rows, axis=1)])
         for high in high_bits.T], axis=1)


@pytest.mark.parametrize("n_bits", [0, 1, 5, CHUNK_BITS, CHUNK_BITS + 2, 17])
def test_chunks_visit_every_configuration_once_in_order(n_bits):
    low_bits, high_bits = split_configurations(n_bits, "bits", CHUNK_BITS)
    low = min(n_bits, CHUNK_BITS)
    assert low_bits.shape == (low, 1 << low)
    assert high_bits.shape == (n_bits - low, 1 << (n_bits - low))
    assert low_bits.dtype == high_bits.dtype == bool
    configs = np.arange(1 << n_bits)
    assert np.array_equal(configurations(low_bits, high_bits),
                          (configs >> np.arange(n_bits)[:, None]) & 1)


def test_smaller_chunks_visit_the_same_configurations():
    whole = configurations(*split_configurations(15, "bits", CHUNK_BITS))
    low_bits, high_bits = split_configurations(15, "bits", 11)
    assert low_bits.shape == (11, 1 << 11)
    assert high_bits.shape == (4, 16)
    assert np.array_equal(configurations(low_bits, high_bits), whole)


def test_limit_raises_before_any_work(monkeypatch):
    def no_work(n_bits):
        raise AssertionError("bits built before the limit was checked")

    monkeypatch.setattr(exact, "_bit_rows", no_work)
    with pytest.raises(ValueError, match="limited to 20 spins"):
        split_configurations(EXACT_LIMIT + 1, "spins", CHUNK_BITS)


def test_low_bits_are_built_without_an_int64_temporary():
    # the bool rows plus a uint32 arange and two uint32 row temporaries;
    # an int64 arange with int64 row temporaries would need 298 KB, and
    # an int64 table of all 13 rows at once 852 KB
    with traced_peak() as traced:
        low_bits, _ = split_configurations(CHUNK_BITS, "bits", CHUNK_BITS)
    rows = 1 << CHUNK_BITS
    assert low_bits.nbytes == CHUNK_BITS * rows
    assert traced.peak <= low_bits.nbytes + 3 * 4 * rows + 8192
