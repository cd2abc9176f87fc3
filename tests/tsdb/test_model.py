"""Unit tests for the tsdb data model."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.tsdb.model import (
    DataPoint,
    SeriesFormatError,
    SeriesId,
    group_key_by_name,
    group_key_by_tag,
    parse_series_expr,
    unique_names,
)


class TestSeriesId:
    def test_make_sorts_tags(self):
        a = SeriesId.make("m", {"b": "2", "a": "1"})
        b = SeriesId.make("m", {"a": "1", "b": "2"})
        assert a == b
        assert hash(a) == hash(b)

    def test_empty_name_rejected(self):
        with pytest.raises(SeriesFormatError):
            SeriesId.make("")

    def test_tag_lookup(self):
        s = SeriesId.make("disk", {"host": "dn-1", "type": "read"})
        assert s.tag("host") == "dn-1"
        assert s.tag("missing") is None
        assert s.tag("missing", "fallback") == "fallback"

    def test_tag_map_round_trip(self):
        tags = {"host": "dn-1", "type": "read"}
        assert SeriesId.make("disk", tags).tag_map() == tags

    def test_with_tags_overrides(self):
        s = SeriesId.make("disk", {"host": "dn-1"})
        s2 = s.with_tags(host="dn-2", extra="x")
        assert s2.tag("host") == "dn-2"
        assert s2.tag("extra") == "x"
        assert s.tag("host") == "dn-1"  # original untouched

    def test_str_rendering(self):
        assert str(SeriesId.make("cpu")) == "cpu"
        assert str(SeriesId.make("disk", {"host": "d1"})) == "disk{host=d1}"

    def test_matches_exact_name(self):
        s = SeriesId.make("disk", {"host": "datanode-1"})
        assert s.matches("disk")
        assert not s.matches("cpu")

    def test_matches_name_glob(self):
        s = SeriesId.make("disk_read_latency")
        assert s.matches("disk_*")
        assert s.matches("*latency")
        assert not s.matches("cpu_*")

    def test_matches_tag_glob(self):
        s = SeriesId.make("disk", {"host": "datanode-3"})
        assert s.matches(tags={"host": "datanode*"})
        assert not s.matches(tags={"host": "namenode*"})

    def test_matches_missing_tag_fails(self):
        s = SeriesId.make("disk", {"host": "d1"})
        assert not s.matches(tags={"rack": "r1"})

    def test_equality_order_and_text_ignore_the_cached_hash(self):
        a = SeriesId.make("disk", {"host": "d1"})
        assert a == SeriesId("disk", (("host", "d1"),))
        assert hash(a) == hash(("disk", (("host", "d1"),)))
        assert str(a) == "disk{host=d1}"
        assert repr(a) == "SeriesId(name='disk', tags=(('host', 'd1'),))"

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_unpickled_id_hashes_in_its_own_process(self, seed):
        """String hashes are salted per process: an id pickled here and
        loaded under another ``PYTHONHASHSEED`` must still find its key
        in a dict built there."""
        series = SeriesId.make("disk", {"host": "d1", "type": "read"})
        code = (
            "import pickle, sys\n"
            "from repro.tsdb.model import SeriesId\n"
            "loaded = pickle.loads(sys.stdin.buffer.read())\n"
            "here = {SeriesId.make('disk', {'host': 'd1', 'type': 'read'}):"
            " 'found'}\n"
            "print(here.get(loaded), hash(loaded) == hash(('disk', ("
            "('host', 'd1'), ('type', 'read')))))\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")]
                                if p]))
        out = subprocess.run([sys.executable, "-c", code],
                             input=pickle.dumps(series), env=env,
                             capture_output=True, check=True)
        assert out.stdout.decode().split() == ["found", "True"]


class TestDataPoint:
    def test_negative_timestamp_rejected(self):
        with pytest.raises(SeriesFormatError):
            DataPoint(series=SeriesId.make("m"), timestamp=-1, value=1.0)

    def test_valid_point(self):
        p = DataPoint(series=SeriesId.make("m"), timestamp=5, value=2.5)
        assert p.timestamp == 5
        assert p.value == 2.5


class TestParseSeriesExpr:
    def test_name_only(self):
        assert parse_series_expr("runtime") == ("runtime", {})

    def test_name_with_tags(self):
        name, tags = parse_series_expr(
            "disk{host=datanode-1, type=read_latency}")
        assert name == "disk"
        assert tags == {"host": "datanode-1", "type": "read_latency"}

    def test_bad_tag_format(self):
        with pytest.raises(SeriesFormatError):
            parse_series_expr("disk{hostdn}")

    def test_garbage_rejected(self):
        with pytest.raises(SeriesFormatError):
            parse_series_expr("{x=1}")

    def test_empty_tag_section(self):
        assert parse_series_expr("disk{}") == ("disk", {})


class TestGroupKeys:
    def test_group_by_name(self):
        s = SeriesId.make("disk", {"host": "d1"})
        assert group_key_by_name(s) == "disk"

    def test_group_by_tag(self):
        s = SeriesId.make("disk", {"host": "d1"})
        assert group_key_by_tag("host")(s) == "d1"

    def test_group_by_missing_tag_is_null(self):
        s = SeriesId.make("disk")
        assert group_key_by_tag("host")(s) == "NULL"

    def test_unique_names(self):
        series = [SeriesId.make("b"), SeriesId.make("a", {"x": "1"}),
                  SeriesId.make("a", {"x": "2"})]
        assert unique_names(series) == ["a", "b"]
