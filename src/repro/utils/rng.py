"""Randomness plumbing.

All randomized algorithms in the library take a ``rng`` argument that may be
``None`` (use a fresh nondeterministic generator), an ``int`` seed, or an
existing :class:`random.Random` instance. This module centralizes that
coercion so every algorithm is reproducible under an explicit seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Optional, Union

RngLike = Union[None, int, random.Random]

_SEED_SPACE = 2**63


def ensure_rng(rng: RngLike = None) -> random.Random:
    """Coerce ``rng`` into a :class:`random.Random` instance.

    ``None`` yields a fresh generator seeded from OS entropy; an ``int``
    yields a deterministic generator; a :class:`random.Random` is returned
    unchanged (so state is shared with the caller).
    """
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    if isinstance(rng, bool) or not isinstance(rng, int):
        raise TypeError(f"rng must be None, int, or random.Random, got {type(rng)!r}")
    return random.Random(rng)


def child_rng(seed: int, *path: int) -> random.Random:
    """The generator at ``path`` in the seed tree rooted at ``seed``.

    Its seed is the first 8 bytes of ``sha256("seed|p1|p2|…")``, the
    derivation batch job seeds and the hostile channels' coins use: a
    pure function of the root and the path, so one consumer's draws
    never depend on which other consumers exist or in what order they
    run, and any node of the tree can be rebuilt alone. Short derived
    seeds suffice for the randomized constructions here (the small-seed
    derandomization of "Distributed derandomization revisited").
    """
    key = "|".join(map(str, (seed, *path))).encode("ascii")
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def fresh_seed(rng: random.Random) -> int:
    """Draw a seed suitable for constructing an independent child generator."""
    return rng.randrange(_SEED_SPACE)


def spawn_rngs(rng: RngLike, count: int) -> List[random.Random]:
    """Create ``count`` independent child generators from ``rng``.

    Used when an experiment fans out into repeated trials that must not
    share generator state (e.g. parallel parameter sweeps).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(rng)
    return [random.Random(fresh_seed(parent)) for _ in range(count)]
