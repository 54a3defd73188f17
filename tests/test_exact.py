import numpy as np
import pytest

from lacelab.exact import CHUNK_BITS, EXACT_LIMIT, bit_chunks


@pytest.mark.parametrize("n_bits", [0, 1, 5, CHUNK_BITS, CHUNK_BITS + 2, 17])
def test_chunks_visit_every_configuration_once_in_order(n_bits):
    chunks = list(bit_chunks(n_bits, "bits"))
    starts = [start for start, _ in chunks]
    sizes = [bits.shape[1] for _, bits in chunks]
    assert starts == list(np.cumsum([0] + sizes[:-1]))
    assert max(sizes) <= 1 << CHUNK_BITS
    got = np.concatenate([bits for _, bits in chunks], axis=1)
    configs = np.arange(1 << n_bits)
    assert got.dtype == bool
    assert np.array_equal(got, (configs >> np.arange(n_bits)[:, None]) & 1)


def test_smaller_chunks_visit_the_same_configurations():
    whole = np.concatenate([bits for _, bits in bit_chunks(15, "bits")], axis=1)
    chunks = list(bit_chunks(15, "bits", 11))
    assert [bits.shape[1] for _, bits in chunks] == [1 << 11] * 16
    assert np.array_equal(
        np.concatenate([bits for _, bits in chunks], axis=1), whole)


def test_limit_raises_before_any_work():
    with pytest.raises(ValueError, match="limited to 20 spins"):
        bit_chunks(EXACT_LIMIT + 1, "spins")
