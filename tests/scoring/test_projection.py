"""Unit tests for random-projection scorers."""

import numpy as np
import pytest

from repro.scoring import ProjectedL2Scorer, random_projection
from repro.scoring.projection import PcaL2Scorer
from tests.scoring.reference import (
    ReferencePcaL2,
    assert_matches_oracle,
    reference_for,
)


class TestRandomProjection:
    def test_pass_through_when_small(self, rng):
        x = rng.standard_normal((50, 10))
        out = random_projection(x, 50, rng)
        assert out is x

    def test_reduces_width(self, rng):
        x = rng.standard_normal((50, 200))
        out = random_projection(x, 50, rng)
        assert out.shape == (50, 50)

    def test_approximate_norm_preservation(self, rng):
        """Johnson-Lindenstrauss flavour: scaled sketch keeps norms."""
        x = rng.standard_normal((20, 2000))
        out = random_projection(x, 500, rng)
        ratios = np.linalg.norm(out, axis=1) / np.linalg.norm(x, axis=1)
        assert np.all((ratios > 0.8) & (ratios < 1.2))


class TestProjectedL2Scorer:
    def test_name_encodes_dimension(self):
        assert ProjectedL2Scorer(d=50).name == "L2-P50"
        assert ProjectedL2Scorer(d=500).name == "L2-P500"

    def test_small_input_matches_l2(self, rng):
        from repro.scoring import L2Scorer
        x = rng.standard_normal((100, 5))
        y = (x @ np.ones(5))[:, None] + 0.2 * rng.standard_normal((100, 1))
        p = ProjectedL2Scorer(d=50).score(x, y)
        l2 = L2Scorer().score(x, y)
        assert p == pytest.approx(l2)

    def test_wide_signal_survives_projection(self, rng):
        f = 300
        code = rng.choice((-1.0, 1.0), f) / np.sqrt(f)
        signal = rng.standard_normal(200)
        x = np.outer(signal, 3.0 * code) + rng.standard_normal((200, f))
        y = signal[:, None] + 0.3 * rng.standard_normal((200, 1))
        assert ProjectedL2Scorer(d=50).score(x, y) > 0.3

    def test_wide_noise_stays_low(self, rng):
        x = rng.standard_normal((150, 300))
        y = rng.standard_normal((150, 1))
        assert ProjectedL2Scorer(d=50).score(x, y) < 0.1

    def test_deterministic_given_seed(self, rng):
        x = rng.standard_normal((100, 200))
        y = rng.standard_normal((100, 1))
        a = ProjectedL2Scorer(d=20, seed=3).score(x, y)
        b = ProjectedL2Scorer(d=20, seed=3).score(x, y)
        assert a == b

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            ProjectedL2Scorer(d=0)
        with pytest.raises(ValueError):
            ProjectedL2Scorer(d=10, n_projections=0)


class TestProjectedBatchPath:
    def test_narrow_y_batch_matches_sequential_oracle(self, rng):
        scorer = ProjectedL2Scorer(d=10, seed=7)
        reference = reference_for(scorer)
        y = rng.standard_normal((60, 1))
        z = rng.standard_normal((60, 2))
        # Mixed widths: narrow pass-throughs and wide sketches.
        xs = ([rng.standard_normal((60, 25)) for _ in range(3)]
              + [rng.standard_normal((60, 4)) for _ in range(2)]
              + [rng.standard_normal((60, 18))])
        for condition in (None, z):
            batch = scorer.score_batch(xs, y, condition)
            sequential = np.array([reference.score(x, y, condition)
                                   for x in xs])
            assert_matches_oracle(batch, sequential)

    def test_wide_y_batch_matches_sequential_oracle(self, rng):
        """Y wider than d: each round re-projects Y, but same-shaped
        hypotheses share the draw sequence, so the stacked path must
        still match the per-hypothesis loop."""
        scorer = ProjectedL2Scorer(d=10, seed=7)
        reference = reference_for(scorer)
        y = rng.standard_normal((60, 25))
        xs = ([rng.standard_normal((60, 25)) for _ in range(3)]
              + [rng.standard_normal((60, 4)) for _ in range(2)])
        batch = scorer.score_batch(xs, y)
        sequential = np.array([reference.score(x, y) for x in xs])
        assert_matches_oracle(batch, sequential)

    def test_wide_z_batch_matches_sequential_oracle(self, rng):
        scorer = ProjectedL2Scorer(d=10, seed=3)
        reference = reference_for(scorer)
        y = rng.standard_normal((60, 1))
        z = rng.standard_normal((60, 30))
        xs = ([rng.standard_normal((60, 20)) for _ in range(3)]
              + [rng.standard_normal((60, 5)) for _ in range(2)])
        batch = scorer.score_batch(xs, y, z)
        sequential = np.array([reference.score(x, y, z) for x in xs])
        assert_matches_oracle(batch, sequential)

    def test_wide_y_rounds_stack_one_inner_call_per_round(self, rng):
        """The wide-Y path issues one inner stacked call per (shape
        group, round), not one per hypothesis."""
        scorer = ProjectedL2Scorer(d=10, n_projections=3, seed=1)
        calls = []
        inner_validated = scorer._inner.score_validated

        def counting(validated, target):
            calls.append(len(validated))
            return inner_validated(validated, target)

        scorer._inner.score_validated = counting
        y = rng.standard_normal((60, 25))
        xs = [rng.standard_normal((60, 20)) for _ in range(5)]
        scorer.score_batch(xs, y)
        assert calls == [5, 5, 5]


class TestPcaBatchPath:
    def test_batch_matches_the_oracle(self, rng):
        """The stacked-SVD truncation equals the per-hypothesis loop."""
        scorer = PcaL2Scorer(d=10)
        reference = reference_for(scorer)
        y = rng.standard_normal((60, 1))
        z = rng.standard_normal((60, 2))
        # Mixed widths: narrow pass-throughs and wide truncations.
        xs = ([rng.standard_normal((60, 25)) for _ in range(3)]
              + [rng.standard_normal((60, 4)) for _ in range(2)]
              + [rng.standard_normal((60, 18))])
        for condition in (None, z):
            batch = scorer.score_batch(xs, y, condition)
            sequential = np.array([reference.score(x, y, condition)
                                   for x in xs])
            assert_matches_oracle(batch, sequential)

    def test_wide_z_truncated_once(self, rng):
        scorer = PcaL2Scorer(d=10)
        reference = reference_for(scorer)
        y = rng.standard_normal((60, 1))
        z = rng.standard_normal((60, 25))       # wider than d
        xs = [rng.standard_normal((60, 15)) for _ in range(3)]
        batch = scorer.score_batch(xs, y, z)
        sequential = np.array([reference.score(x, y, z) for x in xs])
        assert np.array_equal(batch, sequential)

    def test_batched_truncate_kernel_bitwise(self, rng):
        from repro.linmodel.batched import as_stack, batched_pca_truncate
        xs = [rng.standard_normal((40, 12)) for _ in range(5)]
        stacked = batched_pca_truncate(as_stack(xs), 7)
        reference = ReferencePcaL2(7, inner=None)
        for pos, x in enumerate(xs):
            assert np.array_equal(stacked[pos], reference._truncate(x))

    def test_empty_batch(self):
        assert PcaL2Scorer(d=5).score_batch([], np.zeros((5, 1))).size == 0


class TestPcaScorerAblation:
    def test_pca_discards_anomaly_random_projection_keeps_it(self, rng):
        """§4.2's claim: PCA models normal behaviour and can drop the
        anomalous direction that actually explains the target."""
        n, f = 300, 80
        # Dominant "normal" variation: a few high-variance directions.
        normal = rng.standard_normal((n, 4)) @ (
            3.0 * rng.standard_normal((4, f)))
        # A recurring low-variance anomaly direction drives the target
        # (recurring so every CV training fold sees it).
        anomaly = ((np.arange(n) % 50) < 8).astype(float)
        direction = rng.standard_normal(f)
        direction /= np.linalg.norm(direction)
        x = normal + np.outer(anomaly, 3.0 * direction) \
            + 0.3 * rng.standard_normal((n, f))
        y = anomaly[:, None] + 0.05 * rng.standard_normal((n, 1))
        pca_score = PcaL2Scorer(d=3).score(x, y)
        rp_score = ProjectedL2Scorer(d=40, seed=0).score(x, y)
        assert rp_score > 0.5
        assert pca_score < 0.2
        assert rp_score > pca_score


class TestValidateOnce:
    """A wrapper validates each X once: the inner L2 takes the validated
    designs through ``score_validated`` and never re-validates them."""

    @pytest.mark.parametrize("scorer", [ProjectedL2Scorer(d=5),
                                        PcaL2Scorer(d=5)],
                             ids=["projected", "pca"])
    @pytest.mark.parametrize("z_width", [0, 2])
    @pytest.mark.parametrize("y_width", [2, 7], ids=["narrow_y", "wide_y"])
    def test_validate_xs_runs_once_per_call(self, scorer, z_width, y_width,
                                            monkeypatch):
        """Also with a Y wider than ``d``, which the projection scorer
        re-projects in every round: each round prepares its projected
        (Y, Z) and scores the already-validated designs."""
        import repro.scoring.base as base
        import repro.scoring.joint as joint
        import repro.scoring.projection as projection

        rng = np.random.default_rng(7)
        y = rng.standard_normal((40, y_width))
        z = rng.standard_normal((40, z_width)) if z_width else None
        # Narrow (plain) and wide (sketched / truncated) designs, one of
        # them column-major as store-built families are.
        xs = [rng.standard_normal((40, w)) for w in (1, 3, 9, 9, 2)]
        xs[2] = np.asfortranarray(xs[2])
        target = scorer.prepare(y, z)

        # The scores the double-validating path gave.
        inner = joint.L2Scorer.score_validated

        def revalidating(self, validated, target):
            return inner(self, joint.validate_xs(validated, target.rows),
                         target)

        with monkeypatch.context() as patch:
            patch.setattr(joint.L2Scorer, "score_validated", revalidating)
            before = scorer.score_prepared(xs, target)

        calls = []
        original = projection.validate_xs

        def spy(xs, n_rows):
            calls.append(len(xs))
            return original(xs, n_rows)

        monkeypatch.setattr(base, "validate_xs", spy)
        monkeypatch.setattr(projection, "validate_xs", spy)
        monkeypatch.setattr(joint, "validate_xs", spy)
        after = scorer.score_prepared(xs, target)
        assert calls == [len(xs)]
        assert after.tobytes() == before.tobytes()
        assert after.tobytes() == scorer.score_batch(xs, y, z).tobytes()
