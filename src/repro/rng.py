"""Deterministic random-number streams.

Every stochastic element of the simulation (measurement noise, unmodeled
per-benchmark power effects, counter observation error) draws from a
:class:`numpy.random.Generator` seeded from a stable hash of the
experimental coordinates (GPU, benchmark, input size, operating point,
stream label).  Two properties follow:

* the whole reproduction is bit-reproducible run to run, and
* changing one coordinate (e.g. the memory frequency) re-randomizes only
  the streams that depend on it, as on real hardware where re-running the
  same configuration re-samples the same physical noise distribution.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

#: Global experiment seed.  Changing it re-rolls every noise stream while
#: keeping the simulation physics fixed.
GLOBAL_SEED = 20140519  # IPDPS 2014 conference date


def stable_hash(*coords: Any) -> int:
    """Return a 64-bit integer hash of the given coordinates.

    Unlike built-in ``hash``, the result is stable across processes and
    Python versions (``PYTHONHASHSEED`` does not affect it).
    """
    text = "\x1f".join(map(repr, coords))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(*coords: Any, seed: int | None = None) -> np.random.Generator:
    """Create a deterministic generator for the given coordinates.

    Parameters
    ----------
    coords:
        Arbitrary hashable-by-repr coordinates identifying the stream,
        e.g. ``("power-noise", gpu.name, kernel.name, size, op.key)``.
    seed:
        Override for :data:`GLOBAL_SEED`, mainly for tests.
    """
    base = GLOBAL_SEED if seed is None else seed
    return np.random.default_rng(np.random.SeedSequence([base, stable_hash(*coords)]))


# ----------------------------------------------------------------------
# vectorized stream seeding (the batch hot path)
#
# ``stream()`` costs ~16us per call, almost all of it inside
# ``SeedSequence`` entropy mixing and PCG64 construction.  The batch
# evaluation path needs thousands of streams per grid, so this section
# reimplements both steps with bit-identical results:
#
# * :func:`seed_state_words` runs the SeedSequence entropy-mixing
#   algorithm (numpy's C implementation, constants and all) over a whole
#   column of stream hashes at once, and
# * :class:`StreamBank` turns a precomputed word row into a generator by
#   writing the PCG64 state directly instead of re-running ``srandom``.
#
# Parity with ``stream()`` is asserted by tests/test_batch_parity.py.
# ----------------------------------------------------------------------

#: SeedSequence mixing constants (numpy _sfc64/_pcg seed hasher).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

#: PCG64 LCG multiplier and 128-bit mask for direct state construction.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: Below this many streams the per-array numpy overhead beats the
#: reference path; fall back to plain SeedSequence.
_VECTOR_MIN = 8


def _hashmix(values: np.ndarray, hc: list[int]) -> np.ndarray:
    """Vectorized SeedSequence ``hashmix``; ``hc`` is the stateful scalar.

    The hash constant stays a masked python int: numpy 2.x raises on
    out-of-range *scalar* conversions, while uint32 *array* arithmetic
    wraps silently — exactly the C semantics being reproduced.
    """
    values = values ^ np.uint32(hc[0])
    hc[0] = (hc[0] * _MULT_A) & _MASK32
    values = values * np.uint32(hc[0])
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized SeedSequence inter-pool ``mix``."""
    r = (x * _MIX_MULT_L) - (y * _MIX_MULT_R)
    return r ^ (r >> _XSHIFT)


def _mixed_seed_words(entropy: list[np.ndarray]) -> np.ndarray:
    """Entropy-mix ``k`` uint32 columns into ``(n, 4)`` uint64 seed words.

    Lane ``i`` of the result equals
    ``SeedSequence(<lane-i entropy words>).generate_state(4, uint64)``.
    """
    n = entropy[0].shape[0]
    k = len(entropy)
    hc = [_INIT_A]
    pool = []
    for i in range(4):
        src = entropy[i] if i < k else np.zeros(n, dtype=np.uint32)
        pool.append(_hashmix(src, hc))
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], hc))
    hc = [_INIT_B]
    words32 = []
    for i_dst in range(8):
        data = pool[i_dst % 4] ^ np.uint32(hc[0])
        hc[0] = (hc[0] * _MULT_B) & _MASK32
        data = data * np.uint32(hc[0])
        words32.append(data ^ (data >> _XSHIFT))
    out = np.empty((n, 4), dtype=np.uint64)
    for j in range(4):
        lo = words32[2 * j].astype(np.uint64)
        hi = words32[2 * j + 1].astype(np.uint64)
        out[:, j] = lo | (hi << np.uint64(32))
    return out


def seed_state_words(base: int, hashes: "list[int] | np.ndarray") -> np.ndarray:
    """PCG64 seed words for ``SeedSequence([base, h])``, one row per hash.

    Vectorizes the common entropy layout — ``base`` fitting one 32-bit
    word and ``h`` filling two — and falls back to the reference
    SeedSequence for the rare lanes (h < 2**32, probability 2**-32 per
    stream) and for small batches where numpy overhead loses.
    """
    hashes = np.asarray(hashes, dtype=np.uint64)
    n = hashes.shape[0]
    out = np.empty((n, 4), dtype=np.uint64)
    vectorizable = 0 <= base < (1 << 32) and n >= _VECTOR_MIN
    big = (
        hashes >= np.uint64(1 << 32)
        if vectorizable
        else np.zeros(n, dtype=bool)
    )
    idx = np.nonzero(big)[0]
    if idx.size:
        e0 = np.full(idx.size, base, dtype=np.uint32)
        e1 = (hashes[idx] & np.uint64(_MASK32)).astype(np.uint32)
        e2 = (hashes[idx] >> np.uint64(32)).astype(np.uint32)
        out[idx] = _mixed_seed_words([e0, e1, e2])
    for i in np.nonzero(~big)[0]:
        ss = np.random.SeedSequence([base, int(hashes[i])])
        out[i] = ss.generate_state(4, dtype=np.uint64)
    return out


class StreamBank:
    """Batch-seeded, reusable deterministic generators.

    ``prepare()`` computes PCG64 seed words for many coordinate tuples
    in one vectorized pass; ``stream()`` then yields a generator whose
    draws are bit-identical to :func:`stream` for the same coordinates.

    The bank reuses **one** generator object by rewriting its bit
    generator's state, so the returned generator is only valid until
    the next ``stream()`` call — the batch evaluator's
    draw-immediately-and-discard usage.  Unprepared coordinates are
    seeded on demand (reference path), so the bank is always correct,
    just slower when cold.
    """

    def __init__(self, seed: int | None = None) -> None:
        self.base = GLOBAL_SEED if seed is None else seed
        self._words: dict[tuple, np.ndarray] = {}
        self._bit_generator = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bit_generator)

    def prepare(self, coords_list: "list[tuple]") -> None:
        """Seed every distinct missing coordinate tuple in one vectorized pass."""
        missing = [c for c in dict.fromkeys(coords_list) if c not in self._words]
        if not missing:
            return
        hashes = [stable_hash(*c) for c in missing]
        words = seed_state_words(self.base, hashes)
        for coords, row in zip(missing, words):
            self._words[coords] = row

    def stream(self, *coords: Any) -> np.random.Generator:
        """A generator for the coordinates (valid until the next call)."""
        row = self._words.get(coords)
        if row is None:
            self.prepare([coords])
            row = self._words[coords]
        state_hi, state_lo, seq_hi, seq_lo = row.tolist()
        initstate = (state_hi << 64) | state_lo
        initseq = (seq_hi << 64) | seq_lo
        # PCG64.srandom: state=0; inc=(initseq<<1)|1; step; state+=initstate;
        # step — collapsed into one LCG advance of (inc + initstate).
        inc = ((initseq << 1) | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._generator
