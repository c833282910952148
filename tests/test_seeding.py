import numpy as np
import pytest

from blockprec import (
    InvalidArgumentError,
    SolverConfig,
    derive_seed,
    gen_labels,
    gen_random_corr_q,
    sample_uniform_partition,
)

# Every public entry point that takes a seed, called with that seed.
SEEDED = {
    "derive_seed": lambda seed: derive_seed(seed, 0),
    "sample_uniform_partition": lambda seed: sample_uniform_partition(4, 2, seed),
    "gen_random_corr_q": lambda seed: gen_random_corr_q(4, 0.1, seed),
    "gen_labels": lambda seed: gen_labels(np.eye(3), "gaussian", seed),
    "SolverConfig": lambda seed: SolverConfig(k_blocks=2, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, 2**64, 2**128])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seed_outside_64_bits_rejected(name, seed):
    with pytest.raises(InvalidArgumentError, match=r"seed must lie in \[0, 2\^64\)"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seed_range_ends_accepted(name):
    for seed in (0, 2**64 - 1):
        SEEDED[name](seed)
