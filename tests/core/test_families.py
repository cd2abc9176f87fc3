"""Unit tests for feature families and the Feature Family Table."""

import numpy as np
import pytest

from repro.core.families import (
    FamilyError,
    FamilySet,
    FeatureFamily,
    families_from_store,
    families_from_table,
    family_table_from_store,
    normalise_query_result,
)
from repro.sql.table import Table
from repro.tsdb import SeriesId, TimeSeriesStore


class TestFeatureFamily:
    def test_members_must_match_columns(self):
        with pytest.raises(FamilyError):
            FeatureFamily(name="f", matrix=np.zeros((5, 2)), members=["a"])

    def test_1d_matrix_promoted(self):
        fam = FeatureFamily(name="f", matrix=np.zeros(5), members=["a"])
        assert fam.matrix.shape == (5, 1)

    def test_nan_interpolated_on_construction(self):
        matrix = np.array([[1.0], [np.nan], [3.0]])
        fam = FeatureFamily(name="f", matrix=matrix, members=["a"])
        assert not np.isnan(fam.matrix).any()

    def test_restrict_by_time(self):
        fam = FeatureFamily(name="f", matrix=np.arange(10.0)[:, None],
                            members=["a"], grid=np.arange(10))
        sub = fam.restrict(3, 7)
        assert sub.grid.tolist() == [3, 4, 5, 6]
        assert sub.matrix[:, 0].tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_restrict_without_grid_fails(self):
        fam = FeatureFamily(name="f", matrix=np.zeros((5, 1)),
                            members=["a"])
        with pytest.raises(FamilyError):
            fam.restrict(0, 3)


class TestFamilySet:
    def _fam(self, name, n=10, f=2):
        return FeatureFamily(name=name, matrix=np.zeros((n, f)),
                             members=[f"{name}:{j}" for j in range(f)],
                             grid=np.arange(n))

    def test_duplicate_names_rejected(self):
        fams = FamilySet([self._fam("a")])
        with pytest.raises(FamilyError):
            fams.add(self._fam("a"))

    def test_mismatched_lengths_rejected(self):
        fams = FamilySet([self._fam("a", n=10)])
        with pytest.raises(FamilyError):
            fams.add(self._fam("b", n=12))

    def test_total_features(self):
        fams = FamilySet([self._fam("a", f=2), self._fam("b", f=5)])
        assert fams.total_features() == 7

    def test_subset(self):
        fams = FamilySet([self._fam("a"), self._fam("b"), self._fam("c")])
        assert fams.subset(["a", "c"]).names() == ["a", "c"]

    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            FamilySet()["zzz"]


class TestFamiliesFromStore:
    @pytest.fixture
    def store(self):
        store = TimeSeriesStore()
        ts = np.arange(20)
        for host in ("dn-1", "dn-2"):
            store.insert_array(SeriesId.make("disk", {"host": host}),
                               ts, np.ones(20))
        store.insert_array(SeriesId.make("cpu", {"host": "dn-1"}),
                           ts, np.ones(20))
        store.insert_array(SeriesId.make("cpu"), ts, np.ones(20))
        return store

    def test_group_by_name(self, store):
        fams = families_from_store(store, group_by="name")
        assert fams.names() == ["cpu", "disk"]
        assert fams["disk"].n_features == 2
        assert fams["cpu"].n_features == 2

    def test_group_by_tag(self, store):
        fams = families_from_store(store, group_by="tag:host")
        assert set(fams.names()) == {"dn-1", "dn-2", "NULL"}
        assert fams["dn-1"].n_features == 2
        assert fams["NULL"].n_features == 1  # untagged cpu

    def test_group_by_callable(self, store):
        fams = families_from_store(
            store, group_by=lambda s: s.name.upper())
        assert set(fams.names()) == {"CPU", "DISK"}

    def test_time_clipping(self, store):
        fams = families_from_store(store, start=5, end=10)
        assert fams["cpu"].n_samples == 5

    def test_bad_group_by(self, store):
        with pytest.raises(FamilyError):
            families_from_store(store, group_by="bogus")

    def test_empty_scan(self):
        with pytest.raises(FamilyError):
            families_from_store(TimeSeriesStore())


class TestFeatureFamilyTable:
    def test_round_trip_store_table_families(self):
        store = TimeSeriesStore()
        ts = np.arange(6)
        store.insert_array(SeriesId.make("m1", {"h": "a"}), ts,
                           np.arange(6.0))
        store.insert_array(SeriesId.make("m1", {"h": "b"}), ts,
                           np.arange(6.0) * 2)
        table = family_table_from_store(store)
        assert table.columns == ["timestamp", "name", "v"]
        fams = families_from_table(table)
        assert fams["m1"].n_features == 2
        assert fams["m1"].n_samples == 6
        # Values survive the round trip.
        col = fams["m1"].members.index("m1{h=a}")
        assert fams["m1"].matrix[:, col].tolist() == list(range(6))

    def test_missing_timestamps_interpolated(self):
        table = Table(["timestamp", "name", "v"], [
            (0, "f", {"x": 1.0}),
            (2, "f", {"x": 3.0}),
            (0, "g", {"y": 5.0}),
            (1, "g", {"y": 6.0}),
            (2, "g", {"y": 7.0}),
        ])
        fams = families_from_table(table)
        assert fams["f"].n_samples == 3
        assert not np.isnan(fams["f"].matrix).any()

    def test_non_map_value_rejected(self):
        table = Table(["timestamp", "name", "v"], [(0, "f", 1.0)])
        with pytest.raises(FamilyError):
            families_from_table(table)

    def test_empty_table_rejected(self):
        with pytest.raises(FamilyError):
            families_from_table(Table.empty(["timestamp", "name", "v"]))


class TestNormaliseQueryResult:
    def test_columns_fold_into_map(self):
        raw = Table(["ts", "grp", "cpu", "mem"], [
            (0, "web", 1.0, 2.0),
            (1, "web", 3.0, 4.0),
        ])
        out = normalise_query_result(raw)
        assert out.columns == ["timestamp", "name", "v"]
        assert out.rows[0] == (0, "web", {"cpu": 1.0, "mem": 2.0})

    def test_prefix_applied(self):
        raw = Table(["ts", "grp", "v1"], [(0, "a", 1.0)])
        out = normalise_query_result(raw, family_prefix="target:")
        assert out.rows[0][1] == "target:a"

    def test_null_timestamp_skipped(self):
        raw = Table(["ts", "grp", "v1"], [(None, "a", 1.0), (1, "a", 2.0)])
        assert len(normalise_query_result(raw)) == 1

    def test_too_few_columns(self):
        with pytest.raises(FamilyError):
            normalise_query_result(Table(["ts", "grp"], []))


class TestRefreshFromPrevious:
    """``families_from_store(previous=...)`` reuses by frozen-column identity
    and never changes the result."""

    @pytest.fixture
    def store(self):
        store = TimeSeriesStore()
        ts = np.arange(20)
        rng = np.random.default_rng(3)
        for host in ("dn-1", "dn-2"):
            store.insert_array(SeriesId.make("disk", {"host": host}),
                               ts, rng.standard_normal(20))
        store.insert_array(SeriesId.make("cpu", {"host": "dn-1"}),
                           ts, rng.standard_normal(20))
        # Ends inside the horizon, so it can grow without moving the grid.
        store.insert_array(SeriesId.make("late", {"host": "dn-1"}),
                           ts[:15], rng.standard_normal(15))
        return store

    @staticmethod
    def assert_equals_cold(fams, store, **kwargs):
        cold = families_from_store(store, **kwargs)
        assert fams.names() == cold.names()
        for name in cold.names():
            assert fams[name].members == cold[name].members
            assert fams[name].matrix.tobytes() == cold[name].matrix.tobytes()
            assert fams[name].grid.tobytes() == cold[name].grid.tobytes()

    def test_same_version_reuses_every_family(self, store):
        first = families_from_store(store)
        again = families_from_store(store, previous=first)
        assert all(again[n] is first[n] for n in first.names())

    def test_only_the_written_family_is_rebuilt(self, store):
        first = families_from_store(store)
        store.insert(SeriesId.make("late", {"host": "dn-1"}), 15, 0.5)
        fresh = families_from_store(store, previous=first)
        assert fresh["late"] is not first["late"]
        assert fresh["disk"] is first["disk"]
        assert fresh["cpu"] is first["cpu"]
        self.assert_equals_cold(fresh, store)

    def test_apply_rebuilds_its_family(self, store):
        first = families_from_store(store)
        store.apply(SeriesId.make("disk", {"host": "dn-2"}),
                    lambda ts, vs: vs * 2.0)
        fresh = families_from_store(store, previous=first)
        assert fresh["disk"] is not first["disk"]
        assert fresh["cpu"] is first["cpu"]
        self.assert_equals_cold(fresh, store)

    def test_new_member_and_new_family(self, store):
        first = families_from_store(store)
        store.insert_array(SeriesId.make("cpu", {"host": "dn-2"}),
                           np.arange(20), np.ones(20))
        store.insert_array(SeriesId.make("mem"), np.arange(20), np.ones(20))
        fresh = families_from_store(store, previous=first)
        assert fresh["cpu"] is not first["cpu"]
        assert fresh["cpu"].n_features == 2
        assert "mem" in fresh and fresh["disk"] is first["disk"]
        self.assert_equals_cold(fresh, store)

    def test_a_moved_grid_rebuilds_everything(self, store):
        first = families_from_store(store)
        store.insert(SeriesId.make("late", {"host": "dn-1"}), 25, 0.5)
        fresh = families_from_store(store, previous=first)
        assert fresh["disk"].n_samples == 26
        assert not any(fresh[n] is first[n] for n in first.names())
        self.assert_equals_cold(fresh, store)

    def test_other_arguments_rebuild_everything(self, store):
        first = families_from_store(store, start=0, end=10)
        fresh = families_from_store(store, start=0, end=12,
                                    previous=first)
        assert not any(fresh[n] is first[n] for n in first.names())
        by_tag = families_from_store(store, group_by="tag:host",
                                     previous=families_from_store(store))
        assert all(f.n_samples == 20 for f in by_tag)
        self.assert_equals_cold(fresh, store, start=0, end=12)

    def test_matrices_are_built_c_contiguous(self, store):
        for family in families_from_store(store):
            assert family.matrix.flags["C_CONTIGUOUS"]

    def test_session_refreshes_across_versions(self, store):
        from repro.core.engine import ExplainItSession
        session = ExplainItSession(store)
        first = session.families()
        store.insert(SeriesId.make("late", {"host": "dn-1"}), 15, 0.5)
        fresh = session.families()
        assert fresh is not first
        assert fresh["disk"] is first["disk"]
        assert fresh["late"] is not first["late"]
        self.assert_equals_cold(fresh, store, start=0, end=20)
