"""Unit tests for the shared-memory transfer tier."""

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.engine_exec import (
    HypothesisExecutor,
    SerializationAccounting,
    SharedMatrixPool,
)
from repro.engine_exec.shm import attach_segment, resolve_ref
from tests.scoring.reference import assert_matches_oracle, reference_rank


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
            for ref, matrix in zip(refs, matrices):
                restored = resolve_ref(ref)
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
            view = resolve_ref(ref)
            with pytest.raises(ValueError):
                view[0, 0] = 1.0

    def test_non_contiguous_input_handled(self, rng):
        strided = rng.standard_normal((10, 10))[:, ::2]
        with SharedMatrixPool() as pool:
            (ref,) = pool.share_group([strided])
            assert np.array_equal(resolve_ref(ref), strided)

    def test_resolve_none_passes_through(self):
        assert resolve_ref(None) is None

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

    def test_attach_segment_caches_per_name(self, rng):
        with SharedMatrixPool() as pool:
            (ref,) = pool.share_group([rng.standard_normal((3, 3))])
            first = attach_segment(ref.segment)
            assert attach_segment(ref.segment) is first

    def test_accounting_counts_group_bytes_once(self, rng):
        accounting = SerializationAccounting(transfer="shm")
        matrices = [rng.standard_normal((20, 5)),
                    rng.standard_normal((20, 1))]
        with SharedMatrixPool(accounting=accounting) as pool:
            pool.share_group(matrices)
        assert accounting.bytes_moved == (20 * 5 + 20 * 1) * 8
        assert accounting.calls == 1
        assert accounting.serialize_seconds > 0.0


class TestShmBackendParity:
    def test_shm_and_pickle_tables_bitwise_identical(self, rng):
        hypotheses = _make_hypotheses(rng)
        reports = {
            transfer: HypothesisExecutor(
                n_workers=3, backend="process", transfer=transfer,
            ).run(hypotheses, scorer="L2")
            for transfer in ("pickle", "shm")
        }
        pickle_table = reports["pickle"].score_table
        shm_table = reports["shm"].score_table
        assert shm_table.all_scores == pickle_table.all_scores
        for want, got in zip(pickle_table.results, shm_table.results):
            assert got.family == want.family
            assert got.rank == want.rank
            assert got.score == want.score      # exact, not approx
            assert got.p_value == want.p_value

    def test_shm_matches_sequential_with_condition(self, rng):
        hypotheses = _make_hypotheses(rng, with_z=True)
        sequential = reference_rank(hypotheses, "L2")
        shm = HypothesisExecutor(n_workers=2, backend="process",
                                 transfer="shm").run(hypotheses, scorer="L2")
        in_process = HypothesisExecutor().run(hypotheses, scorer="L2")
        assert shm.score_table.all_scores == in_process.score_table.all_scores
        assert_matches_oracle(shm.score_table.all_scores,
                              sequential.all_scores)

    def test_report_records_transfer_mode(self, rng):
        hypotheses = _make_hypotheses(rng, n_families=3)
        shm = HypothesisExecutor(n_workers=2, backend="process",
                                 transfer="shm").run(hypotheses, scorer="CorrMax")
        assert shm.transfer == "shm"
        in_process = HypothesisExecutor(n_workers=2).run(hypotheses,
                                                         scorer="CorrMax")
        assert in_process.transfer is None

    def test_single_worker_pool_still_transfers(self, rng):
        """n_workers=1 is a pool of one, not a different code path: the
        matrices cross the process boundary and the report says how."""
        hypotheses = _make_hypotheses(rng, n_families=3)
        report = HypothesisExecutor(n_workers=1, backend="process",
                                    transfer="shm",
                                    measure_serialization=True).run(
            hypotheses, scorer="CorrMax")
        assert report.transfer == "shm"
        assert report.accounting.bytes_moved > 0
        assert (report.score_table.all_scores
                == reference_rank(hypotheses, "CorrMax").all_scores)

    def test_shm_moves_fewer_bytes_than_pickle(self, rng):
        hypotheses = _make_hypotheses(rng)
        accountings = {}
        for transfer in ("pickle", "shm"):
            report = HypothesisExecutor(
                n_workers=2, backend="process", transfer=transfer,
                measure_serialization=True,
            ).run(hypotheses, scorer="CorrMax")
            accountings[transfer] = report.accounting
        assert accountings["shm"].transfer == "shm"
        assert accountings["pickle"].transfer == "pickle"
        # Y is moved once per group under shm, once per hypothesis
        # under pickle.
        assert (accountings["shm"].bytes_moved
                < accountings["pickle"].bytes_moved)

    def test_invalid_transfer_rejected(self):
        with pytest.raises(ValueError):
            HypothesisExecutor(transfer="grpc")
