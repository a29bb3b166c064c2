"""Cache integrity layer: digest-verified reads, quarantine, fsck.

Every on-disk artifact carries a sha256 digest that is verified before
anything is unpickled (``repro.perf.cache``).  These tests cover the wire
format itself, the quarantine-not-delete policy for every corruption
class (flipped bits, truncation, foreign files, legacy raw pickles), the
``fsck`` maintenance pass and its CLI wrapper, and the observability
counters the quarantine path feeds.
"""

import pickle

import pytest

from repro.observability import Tracer, build_metrics
from repro.perf import (
    ARTIFACT_MAGIC,
    ArtifactCache,
    decode_artifact,
    encode_artifact,
)
from repro.cli import main as cli_main
from tests.conftest import corrupt_cache_entries


# -- wire format ----------------------------------------------------------


def test_encode_decode_round_trip():
    value = {"rows": [1, 2, 3], "label": "stage1"}
    blob = encode_artifact(value)
    assert blob.startswith(ARTIFACT_MAGIC)
    status, payload = decode_artifact(blob)
    assert status == "ok"
    assert pickle.loads(payload) == value


@pytest.mark.parametrize("mutate", [
    lambda b: b[:-1] + bytes([b[-1] ^ 0x01]),        # flipped payload bit
    lambda b: b[: len(b) // 2],                      # truncated payload
    lambda b: b"\x80\x04" + b[10:],                  # clobbered magic
    lambda b: pickle.dumps("legacy"),                # pre-v2 raw pickle
    lambda b: b"",                                   # empty file
    lambda b: ARTIFACT_MAGIC + b"0" * 64,            # header, no newline
])
def test_decode_rejects_every_corruption_class(mutate):
    blob = encode_artifact([1, 2, 3])
    assert decode_artifact(mutate(blob)) == ("corrupt", None)


def test_digest_covers_payload_only_not_header():
    # Same payload, same digest: the header is deterministic.
    assert encode_artifact("x") == encode_artifact("x")
    assert encode_artifact("x") != encode_artifact("y")


# -- verified reads + quarantine ------------------------------------------


def _seed_cache(tmp_path, stage="stage1", value="artifact"):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.get_or_build(stage, ("k",), lambda: value)
    return cache


def test_corrupt_entry_quarantined_and_rebuilt(tmp_path):
    _seed_cache(tmp_path)
    assert len(corrupt_cache_entries(tmp_path, "stage1")) == 1
    fresh = ArtifactCache(disk_dir=tmp_path)
    assert fresh.get_or_build("stage1", ("k",), lambda: "rebuilt") == "rebuilt"
    # Evidence preserved, store healthy again.
    assert len(list(fresh.quarantine_dir.glob("*.pkl"))) == 1
    assert fresh.fsck() == {"ok": 1, "corrupt": 0, "quarantined": 0}


def test_quarantine_preserves_corrupt_bytes(tmp_path):
    _seed_cache(tmp_path)
    (path,) = tmp_path.glob("*.pkl")
    rotten = bytearray(path.read_bytes())
    rotten[-1] ^= 0x01
    path.write_bytes(bytes(rotten))
    fresh = ArtifactCache(disk_dir=tmp_path)
    fresh.get_or_build("stage1", ("k",), lambda: "rebuilt")
    assert (fresh.quarantine_dir / path.name).read_bytes() == bytes(rotten)


def test_quarantine_counters_reach_metrics_report(tmp_path):
    _seed_cache(tmp_path)
    corrupt_cache_entries(tmp_path, "stage1")
    tracer = Tracer(record_events=False)
    fresh = ArtifactCache(disk_dir=tmp_path)
    fresh.get_or_build("stage1", ("k",), lambda: "rebuilt", tracer=tracer)
    report = build_metrics(tracer)
    assert report.cache_quarantined == {"stage1": 1}
    assert report.total_quarantined == 1
    assert fresh.quarantined == {"stage1": 1}


def test_memory_tier_never_reverifies(tmp_path):
    cache = _seed_cache(tmp_path)
    # Corrupting the disk copy is invisible while the memory tier holds
    # the artifact — integrity checks run on disk reads only.
    corrupt_cache_entries(tmp_path, "stage1")
    assert cache.get_or_build("stage1", ("k",), lambda: "no") == "artifact"


# -- fsck -----------------------------------------------------------------


def test_fsck_clean_store(tmp_path):
    cache = _seed_cache(tmp_path)
    cache.get_or_build("stage2", ("k",), lambda: "two")
    assert cache.fsck() == {"ok": 2, "corrupt": 0, "quarantined": 0}


def test_fsck_quarantines_corruption(tmp_path):
    cache = _seed_cache(tmp_path)
    cache.get_or_build("stage2", ("k",), lambda: "two")
    corrupt_cache_entries(tmp_path, "stage1")
    counts = cache.fsck()
    assert counts == {"ok": 1, "corrupt": 1, "quarantined": 1}
    # The corrupt file left the store.
    assert len(list(tmp_path.glob("*.pkl"))) == 1


def test_fsck_dry_run_leaves_store_untouched(tmp_path):
    cache = _seed_cache(tmp_path)
    corrupt_cache_entries(tmp_path, "stage1")
    counts = cache.fsck(quarantine=False)
    assert counts == {"ok": 0, "corrupt": 1, "quarantined": 0}
    assert len(list(tmp_path.glob("*.pkl"))) == 1


def test_fsck_deep_catches_unpicklable_payload(tmp_path):
    _seed_cache(tmp_path)
    (path,) = tmp_path.glob("*.pkl")
    # A digest-consistent entry whose payload is not a pickle: shallow
    # fsck passes it, deep fsck must not.
    import hashlib
    payload = b"not a pickle"
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    path.write_bytes(ARTIFACT_MAGIC + digest + b"\n" + payload)
    cache = ArtifactCache(disk_dir=tmp_path)
    assert cache.fsck(quarantine=False)["corrupt"] == 0
    assert cache.fsck(deep=True, quarantine=False)["corrupt"] == 1


def test_fsck_cli_exit_codes_and_output(tmp_path, capsys):
    _seed_cache(tmp_path)
    assert cli_main(["fsck", str(tmp_path)]) == 0
    corrupt_cache_entries(tmp_path, "stage1")
    assert cli_main(["fsck", str(tmp_path), "--dry-run"]) == 1
    out = capsys.readouterr().out
    assert "1 corrupt" in out
    # Quarantining run still reports corruption via the exit code.
    assert cli_main(["fsck", str(tmp_path)]) == 1
    assert cli_main(["fsck", str(tmp_path)]) == 0  # now clean


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_fsck_cli_rejects_a_path_that_is_not_a_directory(tmp_path, capsys,
                                                         kind):
    # A mistyped path must fail the health check, not pass it by
    # creating (and then checking) an empty store.
    target = tmp_path / "no" / "such" if kind == "missing" \
        else tmp_path / "entry.pkl"
    if kind == "file":
        target.write_bytes(b"not a cache")
    assert cli_main(["fsck", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {target} is not an existing directory\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        [] if kind == "missing" else ["entry.pkl"])


# -- deterministic corruption helper --------------------------------------


def test_corrupt_cache_entries_targets_stage_deterministically(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.get_or_build("alpha", (1,), lambda: "a1")
    cache.get_or_build("alpha", (2,), lambda: "a2")
    cache.get_or_build("beta", (1,), lambda: "b1")
    before = {p.name: p.read_bytes() for p in tmp_path.glob("*.pkl")}
    victims = corrupt_cache_entries(tmp_path, "alpha", limit=1)
    assert len(victims) == 1
    changed = [name for name, blob in before.items()
               if (tmp_path / name).read_bytes() != blob]
    assert len(changed) == 1 and changed[0].startswith("alpha-")
    # First in sorted name order — reruns pick the same victim.
    assert changed[0] == sorted(n for n in before if n.startswith("alpha"))[0]


def test_corrupt_cache_entries_no_match_returns_zero(tmp_path):
    _seed_cache(tmp_path)
    assert corrupt_cache_entries(tmp_path, "missing-stage") == []
