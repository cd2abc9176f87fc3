"""Concurrent query-serving tier: worker pool, carried answers, result cache.

``QueryServer`` is the long-lived front end for dashboard-style
workloads: repeat SQL / ``explain`` / ``drill_down`` requests served
concurrently against pinned per-version snapshots, with each request
shape's answer and prepared target carried across versions and
results kept in a :class:`~repro.versioned.VersionedCache` (see
:mod:`repro.serve.server`).
"""

from repro.serve.cache import normalize_query
from repro.serve.server import QueryServer, ServedResult

__all__ = [
    "QueryServer",
    "ServedResult",
    "normalize_query",
]
