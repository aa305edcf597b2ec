import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdharvest import rng
from crowdharvest.errors import SimulationError
from crowdharvest.rng import substream, substream_states

# word-layout edges: one, two, three and five uint32 words
SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128, 2**130 + 12345])
ELEMENTS = st.sampled_from(["sweep", "shadowing", 0, 2**32 - 1, 2**32, 2**64])
KEYS = st.tuples(
    st.one_of(SEEDS, st.integers(0, 2**70)),
    st.lists(st.one_of(ELEMENTS, st.integers(0, 2**66)), max_size=4),
).map(lambda key: (key[0], *key[1]))


@given(st.lists(KEYS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_substream_states_match_substream(keys):
    states = substream_states(keys)
    assert states == [substream(*key).bit_generator.state for key in keys]


def test_repointed_generator_draws_the_substream():
    keys = [(29, "sweep", j, t) for j in range(3) for t in range(40)] + [(2**64, "ppp")]
    gen = np.random.default_rng(0)
    for key, state in zip(keys, substream_states(keys)):
        gen.bit_generator.state = state
        reference = substream(*key)
        assert gen.integers(0, 2**63 - 1) == reference.integers(0, 2**63 - 1)
        assert np.array_equal(gen.normal(0.0, 8.0, 5), reference.normal(0.0, 8.0, 5))


def test_empty_batch():
    assert substream_states([]) == []


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        substream_states([(-1, "x")])


def test_corrupted_state_raises(monkeypatch):
    monkeypatch.setattr(rng, "_PCG64_MULT", rng._PCG64_MULT + 2)
    with pytest.raises(SimulationError, match="differs from substream"):
        substream_states([(7, "share", t) for t in range(3)])
