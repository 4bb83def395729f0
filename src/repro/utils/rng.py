"""Named, seeded random-number streams.

The paper's case study (§4.1) stresses that "while the selection of agents,
applications and requirements are random, the seed is set to the same so that
the workload for each experiment is identical".  To reproduce that property —
*and* to keep the GA's stochasticity independent of the workload's — every
stochastic component of this library draws from its own named stream derived
from a single experiment master seed.

A :class:`RngRegistry` hands out :class:`numpy.random.Generator` instances
keyed by stream name.  The same ``(master_seed, name)`` pair always yields an
identical stream, regardless of creation order, because seeds are derived with
:class:`numpy.random.SeedSequence` spawned from a stable hash of the name.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from typing import Dict

import numpy as np

from repro.utils.validation import check_non_negative

__all__ = ["RngRegistry", "derive_seed", "stream"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a deterministic child seed from a master seed and stream name.

    The derivation uses CRC32 of the stream name mixed into a
    :class:`~numpy.random.SeedSequence`, so it is stable across Python runs
    and processes (unlike the built-in ``hash``, which is salted).
    """
    check_non_negative(master_seed, "master_seed")
    tag = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(tag,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class RngRegistry:
    """A registry of independent named random streams.

    Parameters
    ----------
    master_seed:
        The experiment master seed.  All streams are deterministic
        functions of this value and their own name.

    Examples
    --------
    >>> reg = RngRegistry(42)
    >>> a = reg.stream("workload")
    >>> b = reg.stream("ga")
    >>> a is reg.stream("workload")   # streams are cached per name
    True
    >>> float(a.random()) != float(b.random())   # streams are independent
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        check_non_negative(master_seed, "master_seed")
        self._master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for stream *name*."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._master_seed, name))
            self._streams[name] = gen
        return gen

    def state_digest(self) -> str:
        """A hex digest of every stream's current generator state.

        Two registries agree on this digest iff every named stream exists
        in both and sits at exactly the same position — the strongest
        cheap witness that two runs consumed identical randomness (used by
        the tracing-changes-nothing property tests).
        """
        digest = hashlib.sha256()
        for name in sorted(self._streams):
            state = self._streams[name].bit_generator.state
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(json.dumps(state, sort_keys=True, default=str).encode("utf-8"))
            digest.update(b"\x01")
        return digest.hexdigest()

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> Dict[str, dict]:
        """Every stream's bit-generator state, keyed by stream name.

        PCG64 (numpy's default) exposes its state as a JSON-serialisable
        dict of ints, so the snapshot round-trips through the checkpoint
        file without loss.
        """
        return {
            name: self._streams[name].bit_generator.state
            for name in sorted(self._streams)
        }

    def restore_state(self, state: Dict[str, dict]) -> None:
        """Rewind every snapshotted stream to its exact saved position.

        Cached generators are updated **in place** — components capture
        generator references at construction (the GA, the fault plan, the
        execution engine), so replacing the objects would silently detach
        them from the registry.  Streams not present in *state* are dropped
        (they did not exist at snapshot time), so a restored registry's
        :meth:`state_digest` matches the snapshot source byte-for-byte.
        """
        for name in list(self._streams):
            if name not in state:
                del self._streams[name]
        for name, bg_state in state.items():
            gen = self._streams.get(name)
            if gen is None:
                gen = np.random.default_rng(derive_seed(self._master_seed, name))
                self._streams[name] = gen
            gen.bit_generator.state = bg_state


def stream(master_seed: int, name: str) -> np.random.Generator:
    """One-shot helper: a fresh generator for ``(master_seed, name)``."""
    return np.random.default_rng(derive_seed(master_seed, name))
