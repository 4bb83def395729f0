"""Tests for the on-disk snapshot format (header, checksum, atomicity)."""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    read_snapshot,
    write_snapshot,
)
from repro.errors import CheckpointError


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "snap.json")


def stamp_version(path, version):
    """Rewrite the snapshot header at *path* to claim *version*."""
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["version"] = version
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n" + lines[1] + "\n")


class TestRoundTrip:
    def test_payload_round_trips(self, path):
        payload = {"kind": "experiment", "steps": 42, "nested": {"a": [1, 2.5, None]}}
        write_snapshot(path, payload)
        assert read_snapshot(path) == payload

    def test_digest_matches_header(self, path):
        digest = write_snapshot(path, {"x": 1})
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header == {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "sha256": digest,
        }

    def test_identical_payload_identical_bytes(self, path, tmp_path):
        other = str(tmp_path / "other.json")
        # Key order must not matter: serialisation is canonical.
        write_snapshot(path, {"a": 1, "b": 2})
        write_snapshot(other, {"b": 2, "a": 1})
        assert open(path, "rb").read() == open(other, "rb").read()

    def test_overwrite_leaves_no_tmp_file(self, path, tmp_path):
        write_snapshot(path, {"x": 1})
        write_snapshot(path, {"x": 2})
        assert read_snapshot(path) == {"x": 2}
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestRejection:
    def test_missing_file(self, path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(path)

    def test_truncated_file(self, path):
        write_snapshot(path, {"x": 1})
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
        with pytest.raises(CheckpointError, match="truncated"):
            read_snapshot(path)

    def test_corrupted_payload_fails_checksum(self, path):
        write_snapshot(path, {"x": 1})
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1].replace("1", "2")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_wrong_format_name(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"format": "something-else", "version": 1}\n{}\n')
        with pytest.raises(CheckpointError, match="not a"):
            read_snapshot(path)

    def test_wrong_version(self, path):
        write_snapshot(path, {"x": 1})
        stamp_version(path, FORMAT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            read_snapshot(path)

    def test_version_one_snapshot_refused(self, path):
        """Snapshots from the version-1 GA kernels would resume diverged."""
        assert FORMAT_VERSION == 7
        write_snapshot(path, {"x": 1})
        stamp_version(path, 1)
        with pytest.raises(CheckpointError, match="format version 1"):
            read_snapshot(path)

    def test_version_two_snapshot_refused(self, path):
        """Version-2 snapshots hold the per-kind layouts, not one with a mode."""
        write_snapshot(path, {"kind": "experiment"})
        stamp_version(path, 2)
        with pytest.raises(CheckpointError, match="format version 2"):
            read_snapshot(path)

    def test_version_three_snapshot_refused(self, path):
        """Version-3 agent states carry an ``outcomes`` list this build drops."""
        write_snapshot(path, {"mode": "strict"})
        stamp_version(path, 3)
        with pytest.raises(CheckpointError, match="format version 3"):
            read_snapshot(path)

    def test_version_four_snapshot_refused(self, path):
        """Version-4 GA states carry the kernel's cost cache this build drops."""
        write_snapshot(path, {"mode": "strict"})
        stamp_version(path, 4)
        with pytest.raises(CheckpointError, match="format version 4"):
            read_snapshot(path)

    def test_version_five_snapshot_refused(self, path):
        """Version-5 agents carry one pull timer each; this build's share rounds."""
        write_snapshot(path, {"mode": "strict"})
        stamp_version(path, 5)
        with pytest.raises(CheckpointError, match="format version 5"):
            read_snapshot(path)

    def test_version_six_snapshot_refused(self, path):
        """Version-6 snapshots carry the process-wide message counter."""
        write_snapshot(path, {"mode": "strict"})
        stamp_version(path, 6)
        with pytest.raises(CheckpointError, match="format version 6"):
            read_snapshot(path)

    def test_malformed_header(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json\n{}\n")
        with pytest.raises(CheckpointError, match="malformed header"):
            read_snapshot(path)

    def test_non_object_payload(self, path):
        import hashlib

        body = "[1,2,3]"
        header = json.dumps(
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "sha256": hashlib.sha256(body.encode()).hexdigest(),
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + body + "\n")
        with pytest.raises(CheckpointError, match="not an object"):
            read_snapshot(path)

    def test_unserialisable_payload(self, path):
        with pytest.raises(CheckpointError, match="not JSON-serialisable"):
            write_snapshot(path, {"x": object()})
