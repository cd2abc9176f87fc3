"""Unit tests for serialisation accounting."""

import numpy as np

from repro.engine_exec import SerializationAccounting


class TestRoundTrip:
    def test_values_preserved(self, rng):
        acct = SerializationAccounting()
        x = rng.standard_normal((20, 5))
        (restored,) = acct.round_trip(x)
        assert np.array_equal(restored, x)

    def test_none_passes_through(self):
        acct = SerializationAccounting()
        out = acct.round_trip(np.zeros((2, 2)), None)
        assert out[1] is None

    def test_bytes_counted(self):
        acct = SerializationAccounting()
        acct.round_trip(np.zeros((10, 10)))
        assert acct.bytes_moved == 10 * 10 * 8

    def test_non_contiguous_input_handled(self, rng):
        acct = SerializationAccounting()
        x = rng.standard_normal((10, 10))[:, ::2]   # strided view
        (restored,) = acct.round_trip(x)
        assert np.array_equal(restored, x)

    def test_share_computation(self):
        acct = SerializationAccounting()
        acct.serialize_seconds = 1.0
        acct.score_seconds = 3.0
        assert acct.serialization_share == 0.25
        assert acct.total_seconds == 4.0

    def test_share_zero_when_untouched(self):
        assert SerializationAccounting().serialization_share == 0.0

    def test_summary_keys(self):
        summary = SerializationAccounting().summary()
        assert set(summary) == {"calls", "bytes_moved",
                                "serialize_seconds", "score_seconds",
                                "serialization_share"}
