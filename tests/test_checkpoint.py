from __future__ import annotations

import json
import re
import struct

import numpy as np
import pytest

from helpers import MALFORMED_CHECKPOINTS, section_bytes, write_malformed_checkpoint
from vg2s.checkpoint import (MAGIC, ParamStore, load_checkpoint,
                             save_checkpoint)


def make_store(rng) -> ParamStore:
    store = ParamStore()
    store.add("encoder.embed.w", rng.normal(size=(4, 3)))
    store.add("encoder.embed.b", rng.normal(size=3))
    store.add("latent.mu.w", rng.normal(size=(3, 2)))
    store.add("policy.glimpse.w", rng.normal(size=(2, 2)))
    return store


def without(store: ParamStore, dropped: str) -> ParamStore:
    out = ParamStore()
    for name in store.names():
        if name != dropped:
            out.add(name, store[name].data)
    return out


class TestParamStore:
    def test_duplicate_name_rejected(self, rng):
        store = make_store(rng)
        with pytest.raises(KeyError):
            store.add("encoder.embed.w", np.zeros(2))

    def test_section_selects_prefix(self, rng):
        store = make_store(rng)
        assert len(store.section("encoder.")) == 2
        assert len(store.section("policy.")) == 1
        assert store.section("missing.") == []

    def test_section_bytes_change_detection(self, rng):
        store = make_store(rng)
        before = section_bytes(store, "encoder.")
        store["policy.glimpse.w"].data += 1.0
        assert section_bytes(store, "encoder.") == before
        store["encoder.embed.b"].data += 1.0
        assert section_bytes(store, "encoder.") != before

    def test_update_copies_prefix_only(self, rng):
        a = make_store(rng)
        b = without(make_store(np.random.default_rng(99)), "policy.glimpse.w")
        policy_before = a["policy.glimpse.w"].data.copy()  # outside the prefixes
        a.update(b, prefixes=("encoder.", "latent."))
        for name in ("encoder.embed.w", "encoder.embed.b", "latent.mu.w"):
            np.testing.assert_array_equal(a[name].data, b[name].data)
        np.testing.assert_array_equal(a["policy.glimpse.w"].data, policy_before)

    def test_update_missing_name(self, rng):
        a = make_store(rng)
        b = without(make_store(np.random.default_rng(99)), "latent.mu.w")
        before = a["encoder.embed.w"].data.copy()
        with pytest.raises(ValueError, match=r"^missing parameter 'latent\.mu\.w'$"):
            a.update(b)
        np.testing.assert_array_equal(a["encoder.embed.w"].data, before)  # nothing copied

    def test_update_unknown_name(self, rng):
        a = make_store(rng)
        b = make_store(np.random.default_rng(99))
        b.add("stranger.w", np.zeros(2))
        with pytest.raises(ValueError, match=r"^unknown parameter 'stranger\.w'$"):
            a.update(b)

    def test_update_shape_mismatch(self, rng):
        a = make_store(rng)
        b = make_store(np.random.default_rng(99))
        b["latent.mu.w"].data = np.zeros((5, 5))
        with pytest.raises(ValueError, match=r"^shape mismatch for 'latent\.mu\.w': "
                                             r"\(5, 5\), expected \(3, 2\)$"):
            a.update(b)


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        store = make_store(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert loaded[name].data.tobytes() == store[name].data.tobytes()

    def test_magic_header(self, rng, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_store(rng), path)
        assert path.read_bytes()[:8] == MAGIC == b"VG2SCKPT"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [
        lambda raw, hlen: raw[:12],               # short header
        lambda raw, hlen: raw[:16 + hlen // 2],   # cut manifest
        lambda raw, hlen: raw[:-4],               # cut blob
    ], ids=["header", "manifest", "blob"])
    def test_truncated_file_names_it(self, rng, tmp_path, keep):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_store(rng), path)
        raw = path.read_bytes()
        path.write_bytes(keep(raw, struct.unpack("<Q", raw[8:16])[0]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_negative_offset_names_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        header = json.dumps([{"name": "a", "shape": [1], "byte_offset": -8}]).encode()
        path.write_bytes(MAGIC + struct.pack("<Q", len(header)) + header + bytes(16))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_file_names_it(self, tmp_path, case):
        path = tmp_path / "model.ckpt"
        write_malformed_checkpoint(path, case)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_save_refuses_non_finite(self, rng, tmp_path, bad):
        """A diverged store is refused as load_checkpoint would refuse its
        file, naming the parameter; no file is written."""
        store = make_store(rng)
        name = store.names()[-1]
        store[name].data.flat[0] = bad
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: non-finite values "
                                             f"in {re.escape(repr(name))}$"):
            save_checkpoint(store, path)
        assert not path.exists()

    def test_empty_parameter_loads(self, tmp_path):
        store = ParamStore()
        store.add("a", np.zeros((0, 3)))
        store.add("b", np.ones(2))
        path = tmp_path / "e.ckpt"
        save_checkpoint(store, path)
        loaded = load_checkpoint(path)
        assert loaded["a"].data.shape == (0, 3)
        assert loaded["b"].data.tolist() == [1.0, 1.0]

    def test_identical_stores_identical_files(self, tmp_path):
        a = make_store(np.random.default_rng(5))
        b = make_store(np.random.default_rng(5))
        pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, pa)
        save_checkpoint(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_scalar_parameter(self, tmp_path):
        store = ParamStore()
        store.add("critic.bias", 1.5)
        path = tmp_path / "s.ckpt"
        save_checkpoint(store, path)
        assert load_checkpoint(path)["critic.bias"].data.item() == 1.5
