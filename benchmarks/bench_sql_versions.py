"""What a write costs the ``dashboard-ingest`` panels, version by version.

Builds the end-to-end workload's store and server (``wl_dashboard``),
then applies VERSIONS writes to the workload's writer series, which no
pruned panel reads, and after each one requests the five hot panels
once, in order, one at a time.  Per version it reports:

- ``index_ms`` and ``index``: the ``tsdb`` index the new version's
  first panel builds (``repro.tsdb.adapter._build_index``), and whether
  it was ``patched`` from the previous version's or built ``full``
  from every column;
- per panel, its latency (``QueryServer.query``) and whether it was a
  result-cache hit.

Run from the repository root::

    python3 benchmarks/bench_sql_versions.py [--versions N] [--seed S]
        [--smoke] [--check]

``--smoke`` uses the workload's smoke sizes.  The last stdout line is
JSON: the per-version records, and per panel and for the index the
median ms and the hit or patch counts.  ``--check`` then exits 1,
naming the version, when a pruned panel (one whose WHERE names the
series it reads: ``tag['host']``, ``metric_name``) missed the cache or
a version after the first did a full build: neither depends on timing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

E2E = Path(__file__).resolve().parent / "e2e"
sys.path.insert(0, str(E2E))

import harness  # noqa: E402

harness.pin_threads(2)            # before numpy is first imported
sys.path.insert(0, str(harness.REPO / "src"))

import sizes  # noqa: E402
import wl_dashboard  # noqa: E402
import repro.tsdb.adapter as adapter  # noqa: E402

#: Hot panels whose WHERE pins the series they read.
PRUNED = (2, 3, 4)


def track_index(builds: list) -> None:
    """Record each ``_build_index`` call as ``(ms, patched)``.  Wrapped
    before anything is built, so every view's index is keyed on the
    wrapper and an earlier one can be found."""
    build, patch = adapter._build_index, adapter._patched_index
    patched = []

    def patching(*args):
        index = patch(*args)
        patched.append(index is not None)
        return index

    def timed(view):
        patched.clear()
        start = time.perf_counter()
        index = build(view)
        builds.append((1000.0 * (time.perf_counter() - start),
                       any(patched)))
        return index

    adapter._build_index, adapter._patched_index = timed, patching


def serve_version(state, builds: list, version: int) -> dict:
    """One write, then each hot panel once: the version's record."""
    builds.clear()
    state.write()
    panels = []
    for query in state.panels:
        start = time.perf_counter()
        served = state.server.query(query)
        panels.append({"ms": 1000.0 * (time.perf_counter() - start),
                       "cached": served.cached})
    return {"version": version,
            "index_ms": sum(ms for ms, _ in builds),
            "index": ("patched" if builds and all(p for _, p in builds)
                      else "full" if builds else None),
            "panels": panels}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--versions", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    size = (sizes.SMOKE if args.smoke else sizes.FULL)["dashboard-ingest"]
    builds: list[tuple[float, bool]] = []
    track_index(builds)
    work = harness.WorkDir()
    try:
        state = wl_dashboard.setup(args.seed, size, work)
        try:
            records = [serve_version(state, builds, version)
                       for version in range(args.versions)]
        finally:
            wl_dashboard.teardown(state)
    finally:
        work.close()
    full = [r["version"] for r in records if r["index"] == "full"]
    print(json.dumps({
        "seed": args.seed, "versions": args.versions,
        "index_median_ms": statistics.median(r["index_ms"]
                                             for r in records),
        "full_builds": len(full),
        "panels": [{"median_ms": statistics.median(
                        r["panels"][k]["ms"] for r in records),
                    "hits": sum(r["panels"][k]["cached"] for r in records),
                    "pruned": k in PRUNED}
                   for k in range(len(records[0]["panels"]))],
        "records": records}))
    if args.check:
        failures = [f"version {v}: full index build" for v in full if v]
        failures += [f"version {r['version']}: pruned panel {k} missed"
                     for r in records for k in PRUNED
                     if not r["panels"][k]["cached"]]
        for line in failures[:20]:
            print(line, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
