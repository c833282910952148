import threading

import numpy as np
import pytest

from blockprec import (
    ArmijoStep,
    InvalidArgumentError,
    Quadratic,
    SolverConfig,
    build_report,
    derive_seed,
    enumerate_partitions,
    expected_lambda_exact,
    expected_lambda_mc,
    gen_labels,
    gen_random_corr_q,
    gen_separable_q,
    gen_uniform_q,
    run_repeats,
    sample_uniform_partition,
    uniform_closed_form,
)
from blockprec.seeding import map_ordered

# Every public entry point that takes a seed, called with that seed.
SEEDED = {
    "derive_seed": lambda seed: derive_seed(seed, 0),
    "sample_uniform_partition": lambda seed: sample_uniform_partition(4, 2, seed),
    "gen_random_corr_q": lambda seed: gen_random_corr_q(4, 0.1, seed),
    "gen_labels": lambda seed: gen_labels(np.eye(3), seed),
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


# Every public integer count other than a seed: (argument name, call with that count).
COUNTED = {
    "SolverConfig k_blocks": ("k_blocks", lambda v: SolverConfig(k_blocks=v)),
    "SolverConfig n_iters": ("n_iters", lambda v: SolverConfig(k_blocks=2, n_iters=v)),
    "ArmijoStep": ("max_backtracks", lambda v: ArmijoStep(max_backtracks=v)),
    "run_repeats": ("repeats", lambda v: run_repeats(
        Quadratic(np.eye(2), np.ones(2)), SolverConfig(k_blocks=1), v)),
    "run_repeats threads": ("threads", lambda v: run_repeats(
        Quadratic(np.eye(2), np.ones(2)), SolverConfig(k_blocks=1), 1, threads=v)),
    "expected_lambda_mc": ("n_samples", lambda v: expected_lambda_mc(np.eye(3), 3, v, 0)),
    "build_report": ("n_samples", lambda v: build_report(np.eye(3), 3, n_samples=v)),
    "build_report threads": ("threads", lambda v: build_report(np.eye(3), 3, threads=v)),
    "build_report cap": ("cap", lambda v: build_report(np.eye(4), 2, exact=True, cap=v)),
    "build_report sampled cap": ("cap", lambda v: build_report(np.eye(4), 2, n_samples=3,
                                                               cap=v)),
    "expected_lambda_exact cap": ("cap", lambda v: expected_lambda_exact(np.eye(4), 2, v)),
    "enumerate_partitions cap": ("cap", lambda v: enumerate_partitions(4, 2, v)),
    "uniform_closed_form k_blocks": ("k_blocks", lambda v: uniform_closed_form(10, v, 0.1)),
    "uniform_closed_form n": ("n", lambda v: uniform_closed_form(v, 2, 0.1)),
    "gen_uniform_q": ("n", lambda v: gen_uniform_q(v, 0.1)),
    "gen_separable_q": ("k", lambda v: gen_separable_q(10, v, 0.1)),
    "gen_random_corr_q": ("n", lambda v: gen_random_corr_q(v, 0.1, 0)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, "2"])
@pytest.mark.parametrize("name", sorted(COUNTED))
def test_non_integer_count_rejected_at_the_boundary(name, value):
    argument, call = COUNTED[name]
    with pytest.raises(InvalidArgumentError, match=f"^{argument} must be an integer"):
        call(value)


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("name", ["build_report threads", "run_repeats threads"])
def test_threads_below_one_rejected(name, value):
    with pytest.raises(InvalidArgumentError, match=f"^threads must be at least 1, got {value}$"):
        COUNTED[name][1](value)


def test_integer_types_accepted():
    assert derive_seed(np.uint64(7), 0) == derive_seed(7, 0) == derive_seed(np.int32(7), 0)
    assert derive_seed(1, 0) != derive_seed(2, 0)


@pytest.mark.parametrize("args, seed", [
    ((0,), 11382950694165301396),
    ((0, 0), 4973760738485052955),
    ((0, 1), 5035534032997000971),
    ((0, np.int64(1)), 5035534032997000971),
    ((0, np.uint8(2)), 4861635292750902095),
    ((7, 3), 15637881881595917733),
    ((0, -1), 14334218567713024031),
    ((0, 2**127 - 1), 11677770690395974384),
    ((0, -2**127), 3579544662193457274),
    ((5, 1, 2), 6858901634977775666),
    ((2**64 - 1, 0, 3), 9077782641326264047),
])
def test_derived_seeds_pinned(args, seed):
    assert derive_seed(*args) == seed


@pytest.mark.parametrize("tag", [1.7, 2.0, np.float64(2.0), "3", None])
def test_non_integer_tag_rejected(tag):
    with pytest.raises(InvalidArgumentError, match="^tag must be an integer"):
        derive_seed(0, tag)


@pytest.mark.parametrize("tag", [2**127, -2**127 - 1, 2**200])
def test_tag_outside_128_bits_rejected(tag):
    with pytest.raises(InvalidArgumentError, match=r"^tag must lie in \[-2\^127, 2\^127\)"):
        derive_seed(0, 1, tag)


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
