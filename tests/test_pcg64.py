"""The trials' Python streams against numpy's, which stays the reference."""

import numpy as np
import pytest

from prmplan.pcg64 import Pcg64, seed_words

ENTROPIES = [
    0,
    1,
    2**32 - 1,
    2**32,
    2**64 - 1,
    2**100 + 7,
    [0, 0],
    [1, 7],
    [5, 2**40],
    [2**64 + 3, 7, 9],
    [3, 1, 4, 1],
    [3, 1, 4, 1, 5],
    [2**96 - 1, 2, 2**33],
]
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 7]


@pytest.mark.parametrize("n", [1, 4, 9])
@pytest.mark.parametrize("entropy", ENTROPIES, ids=repr)
def test_seed_words_match_seed_sequence(entropy, n):
    expected = np.random.SeedSequence(entropy).generate_state(n)
    assert seed_words(entropy, n) == expected.tolist()


def test_trial_seeds_match_seed_sequence():
    for seed in (0, 1, 9, 2**40):
        for trial in range(50):
            expected = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
            assert seed_words([seed, trial], 1)[0] == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_default_rng(seed):
    rng, ours = np.random.default_rng(seed), Pcg64(seed)
    assert [ours.random() for _ in range(1000)] == [rng.random() for _ in range(1000)]


def test_draws_match_default_rng_on_trial_seeds():
    for trial in range(250):
        seed = seed_words([1, trial], 1)[0]
        rng, ours = np.random.default_rng(seed), Pcg64(seed)
        assert [ours.random() for _ in range(200)] == [rng.random() for _ in range(200)]


def test_negative_entropy_is_refused():
    with pytest.raises(ValueError):
        seed_words([1, -1], 1)
