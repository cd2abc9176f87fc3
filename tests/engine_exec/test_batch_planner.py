"""Regression tests for the batch planner's grouping and timing rules."""

import gc

import numpy as np
import pytest

from repro.core.families import FamilySet, FeatureFamily
from repro.core.hypothesis import generate_hypotheses
from repro.engine_exec import HypothesisExecutor, execute_batches, plan_batches
from repro.scoring import get_scorer
from tests.scoring.reference import assert_matches_oracle, reference_for


def _families(rng, n=5, n_samples=40):
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i in range(n):
        fams.append(FeatureFamily(
            f"fam_{i}", rng.standard_normal((n_samples, 2)),
            [f"fam_{i}:{j}" for j in range(2)], grid))
    return FamilySet(fams)


class _LazyHypothesis:
    """A hypothesis whose Y family is rebuilt on every access.

    Models a lazily materialising stream with a one-slot cache: ``.y``
    returns a *fresh* family object each time and only the most recent
    one stays alive, so earlier families are garbage-collected
    mid-stream.  Under the old planner the ``id()`` keyed off one access
    referred to an object that died before the next hypothesis was
    planned, CPython handed its address to that hypothesis's fresh
    family, and hypotheses from different (Y, Z) groups silently merged
    (observed as 8 groups collapsing to 6 with members paired to the
    wrong Y).  The members list is preallocated so the freed family
    block is the next same-size allocation — the deterministic reuse
    pattern that reproduced the bug.
    """

    _cache: FeatureFamily | None = None

    def __init__(self, x: FeatureFamily, y_matrix: np.ndarray,
                 grid: np.ndarray) -> None:
        self.x = x
        self._y_matrix = y_matrix
        self._grid = grid
        self._members = ["t:0"]

    @property
    def y(self) -> FeatureFamily:
        fam = FeatureFamily("target", self._y_matrix, self._members,
                            self._grid)
        _LazyHypothesis._cache = fam    # frees the previous family
        return fam

    @property
    def z(self) -> None:
        return None

    @property
    def name(self) -> str:
        return self.x.name

    def matrices(self):
        return self.x.matrix, self.y.matrix, None


class TestPlanBatches:
    def test_shared_families_collapse_to_one_batch(self, rng):
        hypotheses = generate_hypotheses(_families(rng), "target")
        batches = plan_batches(hypotheses)
        assert len(batches) == 1
        assert batches[0].indices == list(range(len(hypotheses)))

    def test_no_condition_uses_sentinel_not_zero(self, rng):
        """z=None groups must not rely on a forgeable literal key."""
        from repro.engine_exec import batch as batch_module
        assert batch_module._NO_CONDITION is not None
        assert not isinstance(batch_module._NO_CONDITION, int)
        hypotheses = generate_hypotheses(_families(rng), "target")
        assert all(h.z is None for h in hypotheses)
        (batch,) = plan_batches(hypotheses)
        assert batch.z is None

    def test_distinct_y_objects_stay_in_distinct_batches(self, rng):
        fams = _families(rng)
        hypotheses = generate_hypotheses(fams, "target")
        # Same values, different object: must land in its own batch.
        other_y = FeatureFamily("target", hypotheses[0].y.matrix.copy(),
                                ["t:0"], hypotheses[0].y.grid)
        rebound = type(hypotheses[0])(x=hypotheses[0].x, y=other_y)
        batches = plan_batches(list(hypotheses) + [rebound])
        assert len(batches) == 2

    def test_lazy_families_never_merge_across_targets(self, rng):
        """Regression: id-reuse across gc'd lazy families merged groups.

        Every hypothesis materialises a fresh Y per access and only the
        newest stays alive, so each keyed family's address is freed (and
        reusable) before the next hypothesis is planned.  The planner
        must key each one consistently with the object it stores: every
        member of a batch must see exactly the batch's Y matrix, and
        scoring through the batch path must equal scoring hypothesis by
        hypothesis.
        """
        gc.collect()
        n_samples = 40
        grid = np.arange(n_samples)
        hypotheses = []
        for i in range(8):
            h_rng = np.random.default_rng(1000 + i)
            x = FeatureFamily(f"fam_{i}", h_rng.standard_normal((n_samples, 2)),
                              [f"fam_{i}:{j}" for j in range(2)], grid)
            y_matrix = h_rng.standard_normal((n_samples, 1)) + i
            hypotheses.append(_LazyHypothesis(x, y_matrix, grid))
        batches = plan_batches(hypotheses)
        for batch in batches:
            for h in batch.hypotheses:
                assert np.array_equal(batch.y.matrix, h.y.matrix)
        scores, _, _ = execute_batches(hypotheses, get_scorer("CorrMax"))
        reference = reference_for("CorrMax")
        expected = np.array([reference.score(*h.matrices())
                             for h in hypotheses])
        assert np.array_equal(scores, expected)


def _mixed_shape_families(rng, widths=(2, 2, 2, 3), n_samples=40):
    """Families sharing one target but with differing feature counts."""
    target = rng.standard_normal(n_samples)
    grid = np.arange(n_samples)
    fams = [FeatureFamily("target", target[:, None], ["t:0"], grid)]
    for i, width in enumerate(widths):
        fams.append(FeatureFamily(
            f"fam_{i}", rng.standard_normal((n_samples, width)),
            [f"fam_{i}:{j}" for j in range(width)], grid))
    return FamilySet(fams)


class TestAttributedTimings:
    def test_batch_scorer_timings_flagged_as_attributed(self, rng):
        hypotheses = generate_hypotheses(_families(rng), "target")
        scores, seconds, attributed = execute_batches(hypotheses,
                                                      get_scorer("L2"))
        assert attributed.all()
        # Equal shares within one group.
        assert np.all(seconds == seconds[0])

    def test_shape_groups_timed_individually(self, rng):
        """Per-shape-group attribution: one measured wall time per
        stacked call, equal shares only *within* a shape group."""
        hypotheses = generate_hypotheses(
            _mixed_shape_families(rng), "target")
        widths = [h.x.matrix.shape[1] for h in hypotheses]
        scorer = get_scorer("L2")
        scores, seconds, attributed = execute_batches(hypotheses, scorer)
        wide = [i for i, w in enumerate(widths) if w == 3]
        narrow = [i for i, w in enumerate(widths) if w == 2]
        assert len(wide) == 1 and len(narrow) == 3
        # The singleton shape group is individually measured.
        assert not attributed[wide[0]]
        # The 3-member group shares one measured elapsed time.
        assert attributed[narrow].all()
        assert np.all(seconds[narrow] == seconds[narrow[0]])
        # Scores stay within the sequential oracle's parity contract.
        reference = reference_for("L2")
        expected = np.array([reference.score(*h.matrices())
                             for h in hypotheses])
        assert_matches_oracle(scores, expected)

    def test_l1_batches_like_every_other_scorer(self, rng):
        """L1 shares only its Y-side work across a batch, but its
        same-shape groups get attributed shares like L2's — and scores
        stay bitwise identical to the sequential oracle."""
        hypotheses = generate_hypotheses(_families(rng), "target")
        scores, _, attributed = execute_batches(hypotheses,
                                                get_scorer("L1"))
        assert attributed.all()
        reference = reference_for("L1")
        expected = np.array([reference.score(*h.matrices())
                             for h in hypotheses])
        assert np.array_equal(scores, expected)

    def test_custom_scorer_without_batch_path_loops(self, rng):
        from repro.scoring.base import Scorer

        class Plain(Scorer):
            name = "plain"

            def score(self, x, y, z=None):
                return float(np.corrcoef(x[:, 0], y[:, 0])[0, 1] ** 2)

        hypotheses = generate_hypotheses(_families(rng), "target")
        scorer = Plain()
        scores, _, attributed = execute_batches(hypotheses, scorer)
        expected = np.array([scorer.score(*h.matrices())
                             for h in hypotheses])
        assert np.array_equal(scores, expected)
        assert attributed.all()    # the loop is timed per shape group

    def test_single_hypothesis_batch_is_measured(self, rng):
        hypotheses = generate_hypotheses(_families(rng, n=1), "target")
        _, _, attributed = execute_batches(hypotheses, get_scorer("L2"))
        assert not attributed.any()

    def test_executor_exposes_attribution(self, rng):
        hypotheses = generate_hypotheses(_families(rng), "target")
        scorer = get_scorer("L2")
        _, _, in_process = HypothesisExecutor().score(hypotheses, scorer)
        assert in_process.all()
        _, _, pooled = HypothesisExecutor(
            n_workers=2, backend="process").score(hypotheses, scorer)
        assert not pooled.any()

    def test_large_shape_group_scored_in_bounded_calls(self, rng,
                                                       monkeypatch):
        """One shape group larger than the stack bound is split into
        several ``score_batch`` calls, each timed on its own, without
        changing a score."""
        from repro.engine_exec import batch as batch_module

        hypotheses = generate_hypotheses(_families(rng, n=7), "target")
        scorer = get_scorer("L2")
        whole, _, _ = execute_batches(hypotheses, scorer)
        calls = []
        original = scorer.score_batch
        monkeypatch.setattr(
            scorer, "score_batch",
            lambda xs, y, z=None: calls.append(len(xs)) or original(xs, y, z))
        x_size = hypotheses[0].x.matrix.size
        monkeypatch.setattr(batch_module, "STACK_ELEMENTS", 3 * x_size)
        split, _, attributed = execute_batches(hypotheses, scorer)
        assert calls == [3, 3, 1]
        assert np.array_equal(split, whole)
        assert attributed.tolist() == [True] * 6 + [False]
