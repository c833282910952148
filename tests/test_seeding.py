import threading

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
from blockprec.seeding import map_ordered

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


@pytest.mark.parametrize("seed", [1.5, 3.0, "3", None])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_non_integer_seed_rejected(name, seed):
    with pytest.raises(InvalidArgumentError, match="seed must be an integer"):
        SEEDED[name](seed)


def test_integer_types_accepted():
    assert derive_seed(np.uint64(7), 0) == derive_seed(7, 0) == derive_seed(np.int32(7), 0)
    assert derive_seed(1, 0) != derive_seed(2, 0)


def test_map_ordered_submits_every_task_at_once():
    # On two threads task 0 holds one worker until task 16 starts on the
    # other, which a pool fed in batches of 16 tasks never reaches.
    last_started = threading.Event()

    def task(i):
        if i == 16:
            last_started.set()
        if i == 0 and not last_started.wait(timeout=20):
            raise TimeoutError("task 16 did not start while task 0 waited")
        return i

    assert list(map_ordered(task, list(range(17)), threads=2)) == list(range(17))
