"""Deterministic seed derivation.

All randomness in the library flows through 64-bit integer seeds. Derived
streams (per-iteration repartitioning, per-sample Monte Carlo draws,
per-repeat runs) use a SHA-256 based mix of the base seed and an integer
tag, so runs are reproducible and any single iteration or sample can be
replayed in isolation. Work fanned out to threads is mapped in input
order, so results never depend on the thread count.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidArgumentError

_DOMAIN = b"blockprec.seed.v1"

MAX_SEED = 2**64 - 1


def check_seed(seed):
    """Raise InvalidArgumentError unless ``seed`` lies in [0, 2^64)."""
    if not 0 <= seed <= MAX_SEED:
        raise InvalidArgumentError(f"seed must lie in [0, 2^64), got {seed}")


def derive_seed(base_seed: int, *tags: int) -> int:
    """Derive a child 64-bit seed from ``base_seed`` and integer tags."""
    check_seed(base_seed)
    h = hashlib.sha256(_DOMAIN)
    h.update(int(base_seed).to_bytes(16, "little", signed=True))
    for tag in tags:
        h.update(int(tag).to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest()[:8], "little")


def map_ordered(fn, items, threads):
    """Apply fn over items, yielding results in input order.

    With threads > 1 the work runs on a pool but results are still
    consumed in index order (bounded chunks keep memory flat), so any
    downstream accumulation is independent of the thread count. An
    exception raised by fn(items[i]) surfaces after the results for
    items[:i] have been yielded.
    """
    if threads <= 1:
        for item in items:
            yield fn(item)
        return
    chunk = max(4 * threads, 16)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for start in range(0, len(items), chunk):
            yield from pool.map(fn, items[start:start + chunk])
