"""Engine-level event-trace hook: the run digest.

:class:`~repro.sim.engine.Environment` accepts a ``trace`` hook, a row
sink: the drain loop buffers one ``(when, priority, seq, event type)``
row per event it processes (before the event's callbacks run) and calls
``trace(rows)`` with each full buffer of 256 rows and with the partial
buffer when a drain returns.  :class:`RunDigest` is the hook built on
it: it streams those rows into a BLAKE2b checksum instead of storing
them, the executable form of the engine's "same seed, byte-identical
trace" promise, so full-scale runs can assert reproducibility (or
archive a fingerprint next to their ``results/`` artifacts) at O(1)
memory.

:func:`combine_digests` folds the digests of independent runs (e.g. one
per explored service) into one fingerprint that does not depend on the
order the runs executed in.

The digest observes only what the scheduler already computed -- it
never touches simulation state, so a traced run produces exactly the
timings an untraced run would.  It takes whole buffers, so a traced run
pays no Python call per event: it packs a buffer (``<dqq`` plus the
ASCII type name per row, names encoded once per type) and hashes it in
one update.  Rows hold the event's type, never the event, so tracing
does not defeat the Timeout freelist's refcount guard.  The hashed byte
stream is identical to the original pack-per-event implementation --
BLAKE2b does not depend on where the stream is split -- so archived
digests stay comparable across versions.

Typical experiment usage::

    digest = RunDigest()
    env = Environment(trace=digest)
    ...run...
    digest.hexdigest()  # archived in the results/ sidecar (RunMeta.digests)
"""

from __future__ import annotations

import hashlib
import struct
from typing import Mapping

from repro.sim.engine import TraceRow

__all__ = ["RunDigest", "combine_digests"]

_PACK = struct.Struct("<dqq").pack


class RunDigest:
    """Trace hook folding the event trace into a BLAKE2b checksum.

    Constant memory regardless of run length, so it stays cheap at
    ``REPRO_SCALE=full``.  The digest covers each event's scheduling
    time, priority, sequence number, and type name -- i.e. two runs have
    equal digests iff their event traces are identical.

    Each call packs one buffer of rows (``<dqq`` plus the ASCII type
    name per row) and folds it into the hash in one update, so the hashed
    byte stream is the one a per-event pack would produce.
    """

    __slots__ = ("_hash", "_events", "_name_bytes")

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        #: Events folded into ``_hash``.
        self._events = 0
        # Encoded type names, cached per event type (ascii encode once).
        self._name_bytes: dict[type, bytes] = {}

    def __call__(self, rows: list[TraceRow]) -> None:
        names = self._name_bytes
        chunk = []
        for when, priority, seq, cls in rows:
            name = names.get(cls)
            if name is None:
                name = names[cls] = cls.__name__.encode("ascii")
            chunk.append(_PACK(when, priority, seq))
            chunk.append(name)
        self._hash.update(b"".join(chunk))
        self._events += len(rows)

    @property
    def events(self) -> int:
        """Events seen so far."""
        return self._events

    def hexdigest(self) -> str:
        """Hex checksum of the trace so far (does not finalise the hook)."""
        return self._hash.copy().hexdigest()


def combine_digests(digests: Mapping[str, str]) -> str:
    """One BLAKE2b-128 hex digest over named per-run digests.

    Hashes the lines ``"<name>:<hex>\\n"`` in name order, so the result
    depends only on the ``(name, digest)`` pairs -- not on the order the
    runs executed or were listed in.  Independent runs can therefore be
    digested wherever they execute (in-process or in pool workers) and
    still combine to the same fingerprint.
    """
    combined = hashlib.blake2b(digest_size=16)
    for name in sorted(digests):
        combined.update(f"{name}:{digests[name]}\n".encode("utf-8"))
    return combined.hexdigest()
