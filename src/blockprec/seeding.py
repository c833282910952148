"""Deterministic seed derivation.

All randomness in the library flows through 64-bit integer seeds. Derived
streams (per-iteration repartitioning, per-sample Monte Carlo draws,
per-repeat runs) use a SHA-256 based mix of the base seed and an integer
tag, so runs are reproducible and any single iteration or sample can be
replayed in isolation. Work fanned out to threads is mapped in input
order, so results never depend on the thread count.
"""

import hashlib
import operator
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidArgumentError

_DOMAIN = b"blockprec.seed.v1"

MAX_SEED = 2**64 - 1


def _check_integer(value, name):
    """``value`` as an int; InvalidArgumentError unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}") from None


def check_seed(seed):
    """Raise InvalidArgumentError unless ``seed`` is an integer in [0, 2^64)."""
    if not 0 <= _check_integer(seed, "seed") <= MAX_SEED:
        raise InvalidArgumentError(f"seed must lie in [0, 2^64), got {seed}")


def derive_seed(base_seed: int, *tags: int) -> int:
    """Derive a child 64-bit seed from ``base_seed`` and integer tags in [-2^127, 2^127).

    Each tag is hashed as a signed 128-bit little-endian integer.
    """
    check_seed(base_seed)
    h = hashlib.sha256(_DOMAIN)
    h.update(int(base_seed).to_bytes(16, "little", signed=True))
    for tag in tags:
        try:
            h.update(_check_integer(tag, "tag").to_bytes(16, "little", signed=True))
        except OverflowError:
            raise InvalidArgumentError(f"tag must lie in [-2^127, 2^127), got {tag}") from None
    return int.from_bytes(h.digest()[:8], "little")


def map_ordered(fn, items, threads):
    """Apply fn over items, yielding results in input order.

    With threads > 1 every item is submitted to the pool at once, so no
    task waits for an earlier batch, and results are still consumed in
    index order, so any downstream accumulation is independent of the
    thread count. An exception raised by fn(items[i]) surfaces after the
    results for items[:i] have been yielded.
    """
    if threads <= 1:
        for item in items:
            yield fn(item)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        yield from pool.map(fn, items)
