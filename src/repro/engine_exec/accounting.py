"""Serialisation-cost accounting (§6.2).

In the paper, each hypothesis matrix crosses a JVM-to-Python gRPC
boundary; instrumentation attributed ~25% of univariate score time and
~5% of joint score time to (de)serialisation.  The reproduction
*performs* an equivalent transfer and reports its share of total
scoring time — reproducing the measurement, not merely asserting the
number.  Three transfer mechanisms are measured:

- :meth:`SerializationAccounting.round_trip` — raw C-order bytes out,
  numpy back in: the gRPC stand-in used by in-process scoring.
- :meth:`SerializationAccounting.pickle_round_trip` — a real
  ``pickle.dumps``/``loads`` cycle, what ``backend="process"`` with
  ``transfer="pickle"`` actually pays per hypothesis.
- :meth:`SerializationAccounting.record_shared_copy` — the one-off
  copy-in of a batch group's matrices into shared memory under
  ``transfer="shm"``; the worker-side attach is zero-copy and free.

The ``transfer`` field names the mechanism the bytes were measured
under, so bench_figure12_13-style overhead plots can compare modes.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

#: Recognised values for ``HypothesisExecutor(transfer=...)``.
TRANSFERS = ("pickle", "shm")


@dataclass
class SerializationAccounting:
    """Accumulates transfer and scoring wall time under one mechanism."""

    transfer: str = "pickle"
    serialize_seconds: float = 0.0
    score_seconds: float = 0.0
    bytes_moved: int = 0
    calls: int = 0

    def round_trip(self, *matrices: np.ndarray | None) -> list[np.ndarray | None]:
        """Serialise matrices to raw bytes and back, timing the overhead."""
        start = time.perf_counter()
        out: list[np.ndarray | None] = []
        for matrix in matrices:
            if matrix is None:
                out.append(None)
                continue
            matrix = np.ascontiguousarray(matrix, dtype=np.float64)
            payload = matrix.tobytes()
            self.bytes_moved += len(payload)
            restored = np.frombuffer(payload, dtype=np.float64)
            out.append(restored.reshape(matrix.shape))
        self.serialize_seconds += time.perf_counter() - start
        self.calls += 1
        return out

    def pickle_round_trip(self, *matrices: np.ndarray | None
                          ) -> list[np.ndarray | None]:
        """A real pickle dumps/loads cycle per matrix — the process
        backend's actual per-hypothesis transfer.  Restored arrays are
        bitwise equal to the inputs, so scores are unaffected."""
        start = time.perf_counter()
        out: list[np.ndarray | None] = []
        for matrix in matrices:
            if matrix is None:
                out.append(None)
                continue
            payload = pickle.dumps(np.ascontiguousarray(matrix,
                                                        dtype=np.float64),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            self.bytes_moved += len(payload)
            out.append(pickle.loads(payload))
        self.serialize_seconds += time.perf_counter() - start
        self.calls += 1
        return out

    def record_shared_copy(self, seconds: float, nbytes: int) -> None:
        """One batch group's copy-in to shared memory (``transfer="shm"``)."""
        self.serialize_seconds += seconds
        self.bytes_moved += nbytes
        self.calls += 1

    def record_score_time(self, seconds: float) -> None:
        """Add pure scoring time for one hypothesis."""
        self.score_seconds += seconds

    @property
    def total_seconds(self) -> float:
        return self.serialize_seconds + self.score_seconds

    @property
    def serialization_share(self) -> float:
        """Fraction of total time spent (de)serialising, in [0, 1]."""
        total = self.total_seconds
        return self.serialize_seconds / total if total > 0 else 0.0

    def summary(self) -> dict:
        return {
            "transfer": self.transfer,
            "calls": self.calls,
            "bytes_moved": self.bytes_moved,
            "serialize_seconds": self.serialize_seconds,
            "score_seconds": self.score_seconds,
            "serialization_share": self.serialization_share,
        }
