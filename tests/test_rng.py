"""The block draws of SplitMix64 against its one-word-at-a-time stream."""

import pytest

from twistcode.rng import SplitMix64


@pytest.mark.parametrize("seed", [0, 9, 0x9E3779B97F4A7C15, (1 << 64) - 1])
def test_words_continue_the_scalar_stream(seed):
    block, loop = SplitMix64(seed), SplitMix64(seed)
    for count in (1, 0, 37, 1000):
        assert block.words(count).tolist() == [loop.next_u64()
                                               for _ in range(count)]
        assert block.next_u64() == loop.next_u64()
