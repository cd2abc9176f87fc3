"""``ingest-recover``: the write path, from WAL append to recovery.

Closed loop, two writer threads on disjoint series.  One cycle is: fresh
directory, ``ShardedTimeSeriesStore.open(wal)``, ingest the main points
in ``insert_array`` batches, ``flush()``, ``checkpoint()``, ingest a
tail, ``flush()``, ``close()``, then ``open(wal, snapshot=...)`` — which
loads the snapshot *and* replays the WAL tail — and a first read.
``tsdb.sharded``, ``tsdb.wal`` and ``tsdb.chunkfile``/``persist`` do all
the work; ``sql``, ``serve`` and scoring do none.  The WAL keeps its
default flush policy, ``fsync_every=64``.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass

import numpy as np

import harness
from repro.tsdb.model import SeriesId
from repro.tsdb.persist import read_store, save_store
from repro.tsdb.sharded import ShardedTimeSeriesStore
from repro.tsdb.wal import WriteAheadLog

NAME = "ingest-recover"
ON_PATH = ("tsdb.sharded", "tsdb.wal", "tsdb.persist")


@dataclass
class State:
    size: dict
    work: harness.WorkDir
    #: per writer: [(series, timestamps, values)] — main part then tail
    series: list[list[tuple[SeriesId, np.ndarray, np.ndarray]]]
    main: int                     # points per series before the checkpoint
    input_digest: str
    generation_s: float

    @property
    def points(self) -> int:
        return sum(int(ts.size) for w in self.series for _, ts, _ in w)


def generate(seed: int, size: dict):
    rng = np.random.default_rng(seed)
    n_series = size["writers"] * size["series_per_writer"]
    main = size["points"] // n_series
    total = main + size["tail"] // n_series
    ts = np.arange(total, dtype=np.int64)   # strictly increasing per series
    series = [[(SeriesId.make(f"ingest_w{w}", {"series": f"s{s:03d}"}), ts,
                rng.standard_normal(total))
               for s in range(size["series_per_writer"])]
              for w in range(size["writers"])]
    return series, main


def _ingest(store, state: State, lo: int, hi: int) -> None:
    """Both writers append rows ``[lo, hi)`` of their series in batches."""
    batch = state.size["batch"]

    def write(mine) -> None:
        for start in range(lo, hi, batch):
            stop = min(hi, start + batch)
            for sid, ts, values in mine:
                store.insert_array(sid, ts[start:stop], values[start:stop])

    threads = [threading.Thread(target=write, args=(mine,))
               for mine in state.series]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def cycle(state: State) -> dict:
    """One full ingest -> checkpoint -> tail -> recover cycle, verified."""
    directory = state.work.fresh()
    wal, snapshot = directory / "wal.log", directory / "snapshot.bin"
    total = int(state.series[0][0][1].size)
    n_main = state.main * sum(len(w) for w in state.series)
    t0 = time.perf_counter()
    store = ShardedTimeSeriesStore.open(wal)
    _ingest(store, state, 0, state.main)
    store.flush()                              # acknowledged from here
    t1 = time.perf_counter()
    snapshot_bytes = store.checkpoint(snapshot)
    t2 = time.perf_counter()
    _ingest(store, state, state.main, total)
    store.flush()
    log = store.wal
    wal_stats = (log.records_written, log.sync_count)
    store.close()
    t3 = time.perf_counter()
    reopened = ShardedTimeSeriesStore.open(wal, snapshot=snapshot)
    reopened.arrays(state.series[0][0][0])     # first successful read
    t4 = time.perf_counter()
    wrong = 0
    for mine in state.series:
        for sid, ts, values in mine:
            got_ts, got_values = reopened.arrays(sid)
            wrong += not (got_ts.tobytes() == ts.tobytes()
                          and got_values.tobytes() == values.tobytes())
    reopened.close()
    disk = harness.dir_bytes(directory)
    shutil.rmtree(directory)
    return {
        "ingest_points_per_s": n_main / (t1 - t0), "checkpoint_s": t2 - t1,
        "recover_s": t4 - t3, "cycle_s": t4 - t0, "wrong": wrong,
        "disk_bytes": disk, "snapshot_bytes": snapshot_bytes,
        "wal_bytes": disk - snapshot_bytes,
        "wal_records": wal_stats[0], "wal_syncs": wal_stats[1],
    }


def setup(seed: int, size: dict, work: harness.WorkDir) -> State:
    generation_s, (series, main) = harness.timed(generate, seed, size)
    state = State(size=size, work=work, series=series, main=main,
                  input_digest=harness.input_digest(harness.flatten(series)),
                  generation_s=generation_s)
    cycle(state)                               # warm-up
    return state


def teardown(state: State) -> None:
    pass                                       # each cycle cleans up


def measure(state: State, seconds: float) -> dict:
    results = [cycle(state) for _ in
               harness.ops_until(seconds, state.size["min_cycles"])]
    n = len(results)
    series_total = sum(len(w) for w in state.series)

    def med(key: str) -> float:
        return harness.median([r[key] for r in results])

    last = results[-1]
    return {
        "attempted": n * series_total,
        "failed": sum(r["wrong"] for r in results),
        "op_seconds": [r["cycle_s"] for r in results],
        "metrics": {
            "ingest_points_per_s": harness.metric(
                med("ingest_points_per_s"), "points/s", n),
            "checkpoint_s": harness.metric(med("checkpoint_s"), "s", n),
            "recover_s": harness.metric(med("recover_s"), "s", n),
            "cycle_s": harness.metric(med("cycle_s"), "s", n),
        },
        "diagnostics": {
            "cycle_min_s": harness.metric(
                min(r["cycle_s"] for r in results), "s", n),
            "disk_bytes_per_point": harness.metric(
                last["disk_bytes"] / state.points, "bytes", n),
        },
        "counts": {
            "cycles": n, "points": state.points, "series": series_total,
            "disk_bytes": sorted({r["disk_bytes"] for r in results}),
            "snapshot_bytes": sorted({r["snapshot_bytes"] for r in results}),
            "wal_bytes": sorted({r["wal_bytes"] for r in results}),
            "wal_records": sorted({r["wal_records"] for r in results}),
        },
    }


def traced(state: State, seconds: float, tracer) -> dict:
    """Alternate plain cycles with a cycle replayed layer by layer."""
    untraced: list[float] = []
    roots: list[float] = []

    def replay(directory) -> None:
        """The cycle's work decomposed into each layer's public calls."""
        batch = state.size["batch"]
        flat = harness.flatten(state.series)
        total = int(flat[0][1].size)
        with tracer.span("replay"):
            with tracer.span("tsdb.wal"):       # log alone, both phases
                with WriteAheadLog(directory / "replay.log") as log:
                    for start in range(0, total, batch):
                        for sid, ts, values in flat:
                            log.append_array(sid, ts[start:start + batch],
                                             values[start:start + batch])
                    log.flush()
            memory = ShardedTimeSeriesStore()
            with tracer.span("tsdb.sharded"):   # store alone, no log
                _ingest(memory, state, 0, total)
                snap = memory.snapshot()
            path = directory / "replay.bin"
            with tracer.span("tsdb.persist"):
                save_store(snap, path, format="binary")
                with path.open("rb") as handle:
                    os.fsync(handle.fileno())
            with tracer.span("tsdb.persist"):
                base = read_store(path)
            recovered = ShardedTimeSeriesStore()
            with tracer.span("tsdb.sharded"):   # open() re-inserts by copy
                for sid, ts, values in base.iter_arrays():
                    recovered.insert_array(sid, ts[:state.main],
                                           values[:state.main])
            with WriteAheadLog(directory / "tail.log") as log:
                for sid, ts, values in flat:
                    log.append_array(sid, ts[state.main:],
                                     values[state.main:])
            with tracer.span("tsdb.wal"):       # open-time scan + replay
                with WriteAheadLog(directory / "tail.log") as log:
                    log.replay_into(recovered)

    results = []
    for i in harness.ops_until(seconds, state.size["min_cycles"]):
        if i % 2 == 0:
            results.append(cycle(state))
            untraced.append(results[-1]["cycle_s"])
            continue
        with tracer.span("request"):
            results.append(cycle(state))
        roots.append(results[-1]["cycle_s"])
        directory = state.work.fresh()
        replay(directory)
        shutil.rmtree(directory)
    last = results[-1]
    out = harness.layer_ms(tracer.layer_medians("replay"))
    covered = sum(out[f"{layer}_ms"] for layer in ON_PATH)
    root_ms = 1000.0 * harness.median(roots)
    out["workloads_ms"] = 1000.0 * state.generation_s
    out.update({
        "span_coverage": covered / root_ms,
        "trace_overhead": root_ms / (1000.0 * harness.median(untraced)),
        "wal_bytes_per_point": last["wal_bytes"]
        / (state.points - state.main * len(harness.flatten(state.series))),
        "wal_records": last["wal_records"],
        "wal_syncs": last["wal_syncs"],
        "snapshot_bytes_per_point": last["snapshot_bytes"]
        / (state.main * len(harness.flatten(state.series))),
        "version_bumps": last["wal_records"],
    })
    return {"attempted": len(results), "failed": sum(r["wrong"]
                                                     for r in results),
            "layers": out, "root_ms": root_ms,
            "diagnostics": {}}
