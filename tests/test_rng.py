import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdharvest import geometry, harvest, rng
from crowdharvest.errors import SimulationError
from crowdharvest.propagation import ShadowingSpec, winner_urban_nlos_model
from crowdharvest.rng import state_dict, substream, substream_columns
from conftest import SMALL_BLOCK

SMALL = geometry.Region(2000.0, 2000.0)
GUARD = geometry.Region(3000.0, 2000.0, boundary="guard", guard_margin_m=400.0)
MACRO = harvest.RatProfile(
    "macro", 20e6, 40.0, (0.5, 5.0), geometry.PoissonProcess(), 2.1e9, min_link_distance_m=50.0
)
NLOS = winner_urban_nlos_model(2.1e9)


# word-layout edges: one, two, three and five uint32 words
SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**128, 2**130 + 12345])
ELEMENTS = st.sampled_from(["sweep", "shadowing", 0, 2**32 - 1, 2**32, 2**64])
KEYS = st.tuples(
    st.one_of(SEEDS, st.integers(0, 2**70)),
    st.lists(st.one_of(ELEMENTS, st.integers(0, 2**66)), max_size=4),
).map(lambda key: (key[0], *key[1]))


def row_key(columns, i):
    """The scalar key of row i of (seed, *path) key columns."""
    return tuple(int(c[i]) if isinstance(c, np.ndarray) else c for c in columns)


def row_state(states, i):
    return state_dict(*(c[i] for c in states))


@given(st.lists(KEYS, min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_substream_states_match_substream(keys):
    # scalar keys of any size: one row each
    for key in keys:
        assert row_state(substream_columns(*key), 0) == substream(*key).bit_generator.state


def test_repointed_generator_draws_the_substream():
    rows = np.arange(120, dtype=np.uint64)
    gen = np.random.default_rng(0)
    for columns in [(29, "sweep", rows // 40, rows % 40), (2**64, "ppp")]:
        states = substream_columns(*columns)
        for i in range(states[0].size):
            gen.bit_generator.state = row_state(states, i)
            reference = substream(*row_key(columns, i))
            assert gen.integers(0, 2**63 - 1) == reference.integers(0, 2**63 - 1)
            assert np.array_equal(gen.normal(0.0, 8.0, 5), reference.normal(0.0, 8.0, 5))


def test_reused_seat_draws_what_a_fresh_state_dict_draws():
    # one dict re-seats the generator again and again; a 32-bit draw between
    # seats leaves a buffered half word that seating must drop, as state_dict does
    rows = np.arange(40, dtype=np.uint64)
    states = substream_columns(11, "sweep", rows % 5, rows)
    words = rng._state_words(states)
    seated, fresh = np.random.default_rng(0), np.random.default_rng(0)
    seat = state_dict(0, 0, 0, 0)
    for i in [0, 1, 0, *range(2, 40), 39]:
        assert words[i] == (
            row_state(states, i)["state"]["state"], row_state(states, i)["state"]["inc"]
        )
        rng._reseat(seated, seat, *words[i])
        fresh.bit_generator.state = row_state(states, i)
        assert seated.bit_generator.state == fresh.bit_generator.state
        assert seated.integers(0, 2**32, dtype=np.uint32) == fresh.integers(
            0, 2**32, dtype=np.uint32
        )
        assert seated.random(3).tobytes() == fresh.random(3).tobytes()
    assert seat == state_dict(*(c[39] for c in states))


def test_empty_batch():
    assert all(c.size == 0 for c in substream_columns(7, np.zeros(0, np.uint64), "x"))


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        substream_columns(-1, "x")
    with pytest.raises(ValueError):
        substream_columns(1, "x", -2)


def test_corrupted_state_raises(monkeypatch):
    monkeypatch.setattr(rng, "_PCG64_MULT", rng._PCG64_MULT + 2)
    with pytest.raises(SimulationError, match="differs from substream"):
        substream_columns(7, "share", np.arange(3, dtype=np.uint64))
    with pytest.raises(SimulationError, match="differs from substream"):
        harvest.nearest_share_study(MACRO, 5.0, NLOS, 10, 3, region=SMALL)


# uint64 column values at the word-layout edges (one word below 2**32, two from it)
COLUMN_VALUES = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]), st.integers(0, 2**64 - 1)
)


@st.composite
def column_keys(draw):
    """(seed, *path) with some elements uint64 columns of one length, the rest scalars."""
    m = draw(st.integers(1, 8))
    column = st.lists(COLUMN_VALUES, min_size=m, max_size=m).map(
        lambda values: np.array(values, dtype=np.uint64)
    )
    seed = draw(st.one_of(column, SEEDS))
    path = draw(st.lists(st.one_of(column, ELEMENTS), max_size=4))
    return seed, *path


@given(column_keys(), st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_substream_columns_match_substream(columns, n):
    states = substream_columns(*columns)
    raw = rng._raw_outputs(states, n)
    for i in range(states[0].size):
        reference = substream(*row_key(columns, i)).bit_generator
        assert row_state(states, i) == reference.state
        assert np.array_equal(raw[i], reference.random_raw(n))


def test_layout_edges_in_one_call():
    edges = np.array([0, 2**32 - 1, 2**32, 2**63 - 1], dtype=np.uint64)
    columns = (edges, "sweep", edges[::-1].copy(), 7, edges)
    states = substream_columns(*columns)
    for i in range(edges.size):
        assert row_state(states, i) == substream(*row_key(columns, i)).bit_generator.state


def test_mistyped_columns_rejected():
    with pytest.raises(ValueError, match="uint64"):
        substream_columns(np.arange(3), "x")
    with pytest.raises(ValueError, match="one length"):
        substream_columns(np.zeros(3, np.uint64), np.zeros(2, np.uint64))


@pytest.mark.parametrize("region", [SMALL, GUARD], ids=["toroidal", "guard"])
def test_trial_draws_match_a_repointed_generator(region):
    rows = np.arange(300, dtype=np.uint64)
    states = substream_columns(29, "sweep", rows // 7, rows % 7)
    deployment, xs, ys, shadow = harvest._trial_draws(np.random.default_rng(0), region, states)
    gen = np.random.default_rng(0)
    for i in range(rows.size):
        gen.bit_generator.state = row_state(states, i)
        assert deployment[i] == gen.integers(0, 2**63 - 1)
        assert (xs[i], ys[i]) == region.sample_probe(gen)
        assert shadow[i] == gen.integers(0, 2**63 - 1)


def test_changed_draw_formula_raises(monkeypatch):
    monkeypatch.setattr(harvest, "_mulhi", lambda a, b: rng._mulhi(a, b) + np.uint64(1))
    with pytest.raises(SimulationError, match="differ from the generator"):
        harvest.nearest_share_study(MACRO, 5.0, NLOS, 10, 3, region=SMALL)


def test_forced_lemire_rejections_change_nothing(monkeypatch, small_kernel):
    views = [harvest.SweepView(NLOS, 150, ShadowingSpec(8.0)), harvest.SweepView(NLOS, 90, None, 3)]
    draws = 2 * SMALL_BLOCK + 3

    def crowd_results():
        sweep = harvest.crowd_sweep(MACRO, [1.0, 5.0], views, 5, region=GUARD)
        share = harvest.nearest_share_study(
            MACRO, 5.0, NLOS, draws, 6, region=SMALL, shadowing=ShadowingSpec(8.0)
        )
        return sweep, share

    def forced(low):
        return low % np.uint64(3) == 0  # about a third of the seeds

    def rejected(low):
        out = (low < 2) | forced(low)
        counts.append(int(out.sum()))
        return out

    def corrupted_mulhi(a, b):
        # wrong seeds wherever the rejection is forced, so only a redraw can give the results
        high = rng._mulhi(a, b)
        return np.where(forced(a * b), high ^ np.uint64(1), high)

    expected = crowd_results()
    counts = []
    monkeypatch.setattr(harvest, "_lemire_rejected", rejected)
    monkeypatch.setattr(harvest, "_mulhi", corrupted_mulhi)
    assert crowd_results() == expected
    assert sum(counts) > 100
