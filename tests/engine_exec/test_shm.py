"""Unit tests for the shared-memory transfer tier."""

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.core.ranking import rank_families
from repro.engine_exec import (
    HypothesisExecutor,
    SerializationAccounting,
    SharedMatrixPool,
)
from repro.engine_exec.executor import share_shm_jobs
from repro.engine_exec.shm import resolve_refs
from repro.scoring import Scorer, get_scorer
from tests.scoring.reference import assert_matches_oracle, reference_rank


def shm_mappings(pid: int | None = None) -> int:
    """``/dev/shm`` mappings of a process (the caller by default)."""
    maps = Path(f"/proc/{pid or os.getpid()}/maps")
    if not maps.exists():
        pytest.skip("needs /proc/<pid>/maps")
    return sum("/dev/shm/" in line for line in maps.read_text().splitlines())


def _make_hypotheses(rng, n_families=6, n_samples=60, with_z=False):
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    if with_z:
        fams.append(FeatureFamily(
            "cond", rng.standard_normal((n_samples, 2)), ["z:0", "z:1"],
            grid))
    for i in range(n_families):
        coupling = 1.0 if i == 0 else 0.0
        data = (coupling * target[:, None]
                + rng.standard_normal((n_samples, 3)))
        fams.append(FeatureFamily(
            f"fam_{i}", data, [f"fam_{i}:{j}" for j in range(3)], grid))
    return generate_hypotheses(FamilySet(fams), "target",
                               condition="cond" if with_z else None)


class TestSharedMatrixPool:
    def test_share_and_resolve_round_trip(self, rng):
        matrices = [rng.standard_normal((30, 4)),
                    rng.standard_normal((30, 1)),
                    rng.standard_normal((30, 7))]
        with SharedMatrixPool() as pool:
            refs = pool.share_group(matrices)
            assert pool.n_segments == 1
            for restored, matrix in zip(resolve_refs(refs), matrices):
                assert np.array_equal(restored, matrix)
                assert restored.dtype == np.float64

    def test_refs_are_tiny_and_offsets_pack(self, rng):
        matrices = [rng.standard_normal((10, 2)),
                    rng.standard_normal((10, 3))]
        with SharedMatrixPool() as pool:
            a, b = pool.share_group(matrices)
            assert a.segment == b.segment
            assert a.offset == 0
            assert b.offset == a.nbytes == 10 * 2 * 8

    def test_resolved_view_is_read_only(self, rng):
        with SharedMatrixPool() as pool:
            (ref,) = pool.share_group([rng.standard_normal((5, 5))])
            (view,) = resolve_refs([ref])
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_non_contiguous_input_handled(self, rng):
        strided = rng.standard_normal((10, 10))[:, ::2]
        with SharedMatrixPool() as pool:
            (ref,) = pool.share_group([strided])
            (restored,) = resolve_refs([ref])
            assert np.array_equal(restored, strided)

    def test_resolve_none_passes_through(self):
        assert resolve_refs([None]) == [None]

    def test_close_unlinks_segments(self, rng):
        pool = SharedMatrixPool()
        (ref,) = pool.share_group([rng.standard_normal((4, 4))])
        name = ref.segment
        pool.close()
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name, create=False)
        pool.close()            # idempotent

    def test_share_after_close_rejected(self, rng):
        pool = SharedMatrixPool()
        pool.close()
        with pytest.raises(RuntimeError):
            pool.share_group([rng.standard_normal((2, 2))])

    def test_views_map_each_segment_once_and_unmap_with_the_last(self, rng):
        with SharedMatrixPool() as pool:
            refs = pool.share_group([rng.standard_normal((3, 3)),
                                     rng.standard_normal((3, 1))])
            before = shm_mappings()
            x, y = resolve_refs(refs)
            assert shm_mappings() == before + 1
            column = x[:, 0]
            del x, y
            assert shm_mappings() == before + 1     # the slice holds it
            del column
            assert shm_mappings() == before

    def test_a_view_outliving_its_segment_stays_valid(self, rng):
        matrix = rng.standard_normal((4, 4))
        with SharedMatrixPool() as pool:
            (view,) = resolve_refs(pool.share_group([matrix]))
        # The owner closed and unlinked the segment; the view's own
        # mapping keeps the memory readable.
        assert np.array_equal(view, matrix)

    def test_accounting_counts_group_bytes_once(self, rng):
        accounting = SerializationAccounting()
        matrices = [rng.standard_normal((20, 5)),
                    rng.standard_normal((20, 1))]
        with SharedMatrixPool(accounting=accounting) as pool:
            pool.share_group(matrices)
        assert accounting.bytes_moved == (20 * 5 + 20 * 1) * 8
        assert accounting.calls == 1
        assert accounting.serialize_seconds > 0.0


class TestShmBackendParity:
    def test_process_and_in_process_tables_bitwise_identical(self, rng):
        hypotheses = _make_hypotheses(rng)
        in_process = rank_families(hypotheses, scorer="L2")
        pooled = rank_families(hypotheses, scorer="L2", backend="process",
                               n_workers=3)
        assert pooled.all_scores == in_process.all_scores
        for want, got in zip(in_process.results, pooled.results):
            assert got.family == want.family
            assert got.rank == want.rank
            assert got.score == want.score      # exact, not approx
            assert got.p_value == want.p_value

    def test_shm_matches_sequential_with_condition(self, rng):
        hypotheses = _make_hypotheses(rng, with_z=True)
        sequential = reference_rank(hypotheses, "L2")
        shm = rank_families(hypotheses, scorer="L2", backend="process",
                            n_workers=2)
        in_process = rank_families(hypotheses, scorer="L2")
        assert shm.all_scores == in_process.all_scores
        assert_matches_oracle(shm.all_scores, sequential.all_scores)

    def test_single_worker_pool_still_transfers(self, rng):
        """n_workers=1 is a pool of one, not a different code path: the
        matrices cross the process boundary through shared memory."""
        hypotheses = _make_hypotheses(rng, n_families=3)
        accounting = SerializationAccounting()
        scores, _, _ = HypothesisExecutor(n_workers=1, backend="process")\
            .score(hypotheses, get_scorer("CorrMax"), accounting=accounting)
        assert accounting.bytes_moved > 0
        assert accounting.calls == 1            # one (Y, Z) group
        assert ({h.name: float(v) for h, v in zip(hypotheses, scores)}
                == reference_rank(hypotheses, "CorrMax").all_scores)

    def test_only_shm_transfer_accepted(self, rng):
        hypotheses = _make_hypotheses(rng, n_families=2)
        assert rank_families(hypotheses, scorer="CorrMax", transfer="shm")
        with pytest.raises(ValueError):
            rank_families(hypotheses, scorer="CorrMax", transfer="pickle")


class _FailingScorer(Scorer):
    """Raises while its frame holds a view of the shared operand."""

    name = "failing"

    def score(self, x, y, z=None):
        column = x[:, 0]        # noqa: F841 — a view the traceback keeps
        raise ArithmeticError("scorer bug")


class TestWorkerLifetimes:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            HypothesisExecutor(backend="thread")

    def test_scorer_error_propagates_and_leaves_nothing_mapped(self, rng):
        hypotheses = _make_hypotheses(rng, n_families=2)
        executor = HypothesisExecutor(n_workers=1, backend="process")
        with ProcessPoolExecutor(max_workers=1) as pool:
            worker = pool.submit(os.getpid).result()
            idle = shm_mappings(worker)
            with pytest.raises(ArithmeticError, match="scorer bug"):
                executor.score(hypotheses, _FailingScorer(),
                               process_pool=pool)
            pool.submit(os.getpid).result()     # the failed run drained
            assert shm_mappings(worker) == idle

    def test_caller_published_jobs_survive_the_run(self, rng):
        """``shm_jobs`` belong to the caller: a run replays them without
        copying or unlinking, so the next run can replay them again."""
        hypotheses = _make_hypotheses(rng, n_families=3, with_z=True)
        executor = HypothesisExecutor(n_workers=2, backend="process")
        scorer = get_scorer("L2")
        with SharedMatrixPool() as shared:
            jobs = share_shm_jobs(hypotheses, shared)
            published = shared.n_segments
            first, _, _ = executor.score(hypotheses, scorer, shm_jobs=jobs)
            second, _, _ = executor.score(hypotheses, scorer, shm_jobs=jobs)
            assert shared.n_segments == published
        in_process, _, _ = HypothesisExecutor().score(hypotheses, scorer)
        assert np.array_equal(first, in_process)
        assert np.array_equal(second, in_process)


def test_run_scoped_segments_do_not_stay_attached_in_a_long_lived_pool(rng):
    """Each ``score()`` without ``shm_jobs`` publishes into segments it
    unlinks when done; a caller-owned worker must not keep mapping them."""
    hypotheses = _make_hypotheses(rng, n_families=3, with_z=True)
    executor = HypothesisExecutor(n_workers=1, backend="process")
    scorer = get_scorer("L2")
    with ProcessPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(os.getpid).result()
        idle = shm_mappings(worker)
        for _ in range(5):
            executor.score(hypotheses, scorer, process_pool=pool)
            assert shm_mappings(worker) == idle
