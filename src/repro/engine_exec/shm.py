"""Shared-memory matrix transfer for the process backend (§6.2).

The paper attributes the dominant overhead of process-parallel scoring
to matrix (de)serialisation across the JVM-to-Python gRPC boundary.
Here that boundary is a process pool, and matrices cross it only
through :mod:`multiprocessing.shared_memory`: each batch group's
matrices go into one segment *once* — Y and Z once per group, the
candidate X blocks packed behind them — and only tiny
:class:`MatrixRef` handles travel with each job.  A worker maps the
segment by name and scores numpy views of it without copying, so
the per-hypothesis transfer cost is a few hundred bytes of control
plane.  ``benchmarks/bench_figure10_score_time.py`` measures the
per-hypothesis pickle this replaces.

Bitwise parity: matrices are written into shared memory as C-order
``float64``, so scorers see the same operands in every worker and the
Score Table matches in-process scoring exactly.  Views are mapped
read-only (every scorer in :mod:`repro.scoring` already copies before
mutating).

Lifetimes: the :class:`SharedMatrixPool` owns its segments and unlinks
them in :meth:`SharedMatrixPool.close`; a worker's mapping lives exactly
as long as the views :func:`resolve_refs` made for one job, so it does
not hold a segment its owner has closed, however long the worker itself
lives.  Mapping by name uses POSIX shared memory (``shm_open``).
"""

from __future__ import annotations

import _posixshmem
import mmap
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence

import numpy as np

from repro.engine_exec.accounting import SerializationAccounting


@dataclass(frozen=True)
class MatrixRef:
    """Locate one float64 matrix inside a named shared-memory segment.

    The handle is a few dozen bytes however large the matrix is; it is
    what actually crosses the process boundary.
    """

    segment: str                  # SharedMemory name
    offset: int                   # byte offset of the first element
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * 8

    def resolve(self, buffer) -> np.ndarray:
        """A zero-copy ndarray view of this matrix inside ``buffer``."""
        return np.ndarray(self.shape, dtype=np.float64,
                          buffer=buffer, offset=self.offset)


class SharedMatrixPool:
    """Owns the shared-memory segments of one execution run.

    ``share_group`` packs a batch group's matrices — Y, Z and the
    stacked X blocks — into a single segment and returns their refs;
    ``close`` releases and unlinks every segment.  The pool keeps strong
    references to the segments (and, through the refs, their layout),
    so names stay valid for exactly as long as the run needs them.
    """

    def __init__(self,
                 accounting: SerializationAccounting | None = None) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._accounting = accounting
        self._closed = False

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    def share_group(self, matrices: list[np.ndarray]
                    ) -> list[MatrixRef]:
        """Copy a batch group's matrices into one fresh segment.

        Returns one :class:`MatrixRef` per input matrix, in order.  The
        copy-in is the *entire* transfer cost of the group — it is timed
        and byte-counted against the accounting's serialize side, the
        worker-side attach being free.
        """
        if self._closed:
            raise RuntimeError("SharedMatrixPool is closed")
        if not matrices:
            return []
        # The timer covers the whole transfer: canonicalisation, the
        # shm_open/mmap of the segment and the copy-in.
        start = time.perf_counter()
        canonical = [np.ascontiguousarray(m, dtype=np.float64)
                     for m in matrices]
        total = sum(m.nbytes for m in canonical)
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
        self._segments.append(segment)
        refs: list[MatrixRef] = []
        offset = 0
        for matrix in canonical:
            ref = MatrixRef(segment=segment.name, offset=offset,
                            shape=matrix.shape)
            ref.resolve(segment.buf)[...] = matrix
            refs.append(ref)
            offset += matrix.nbytes
        if self._accounting is not None:
            self._accounting.record_shared_copy(
                time.perf_counter() - start, total)
        return refs

    def close(self) -> None:
        """Release and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass        # already unlinked (e.g. by a resource tracker)
        self._segments.clear()

    def __enter__(self) -> "SharedMatrixPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _map_read_only(name: str) -> mmap.mmap:
    """Map a named segment read-only, independently of its owner."""
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)


def resolve_refs(refs: Sequence[MatrixRef | None]
                 ) -> list[np.ndarray | None]:
    """Read-only zero-copy views of ``refs``; ``None`` passes through.

    Each named segment is mapped once per call and the views own the
    mapping: it is unmapped when the last of them is released.  A pool
    worker therefore holds a segment only while it scores from it, and a
    view that outlives its job keeps valid memory mapped rather than
    dangling.  This is why the mapping is made here and not through an
    attached :class:`~multiprocessing.shared_memory.SharedMemory`, which
    unmaps on ``close()`` even under live numpy views and registers the
    segment with a resource tracker as if this process owned it
    (bpo-38119).
    """
    mappings: dict[str, mmap.mmap] = {}
    views: list[np.ndarray | None] = []
    for ref in refs:
        if ref is None:
            views.append(None)
            continue
        mapping = mappings.get(ref.segment)
        if mapping is None:
            mapping = mappings[ref.segment] = _map_read_only(ref.segment)
        views.append(ref.resolve(mapping))
    return views
