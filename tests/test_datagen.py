"""Dataset generation: procedural sources, pair construction, file round
trips, reproducibility."""

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from warpsynth import deform as D
from warpsynth import datagen as DG
from warpsynth import fileio
from warpsynth.metrics import mde
from warpsynth.tensor import Tensor


class TestProceduralImage:
    def test_range(self, rng):
        img = DG.procedural_image(rng, 48, 48)
        assert img.data.data.min() >= 0.0 and img.data.data.max() <= 255.0
        assert img.mask.all()

    def test_channels_distinguishable(self):
        diffs = []
        for seed in range(100):
            img = DG.procedural_image(np.random.default_rng(seed), 32, 32)
            means = img.data.data.mean(axis=(1, 2))
            diffs.append(min(abs(means[0] - means[1]), abs(means[1] - means[2]), abs(means[0] - means[2])))
        assert float(np.mean(diffs)) > 1.0

    def test_seed_reproducible(self):
        a = DG.procedural_image(np.random.default_rng(9), 32, 32)
        b = DG.procedural_image(np.random.default_rng(9), 32, 32)
        assert np.array_equal(a.data.data, b.data.data)

    def test_minimum_size(self, rng):
        with pytest.raises(ValueError):
            DG.procedural_image(rng, 16, 16)


class TestChannelSwap:
    def test_swap_definition(self, rng):
        img = DG.procedural_image(rng, 32, 32)
        sw = DG.channel_swap(img)
        assert np.array_equal(sw.data.data[0], img.data.data[1])
        assert np.array_equal(sw.data.data[1], img.data.data[2])
        assert np.array_equal(sw.data.data[2], img.data.data[0])

    def test_order_three(self, rng):
        img = DG.procedural_image(rng, 32, 32)
        thrice = DG.channel_swap(DG.channel_swap(DG.channel_swap(img)))
        assert np.array_equal(thrice.data.data, img.data.data)


class TestMakePair:
    def test_zero_amplitude_preset(self, rng):
        p = D.SimDeformParams(((0, 0), (0, 0)), (0, 0), ((10, 10), (10, 10)), ((5, 5), (5, 5)),
                              ((0, 0), (0, 0)), random=False)
        x = DG.procedural_image(rng, 32, 32)
        _, y_tilde, sd = DG.make_pair(x, p, rng)
        assert np.array_equal(y_tilde.data.data, DG.channel_swap(x).data.data)
        assert np.allclose(sd.deformation.coords.data, D.identity_map(32, 32).coords.data, atol=1e-12)

    def test_sc_preset_constant_parameters(self, rng):
        p = D.PRESETS["SC"].scaled(96)
        x = DG.procedural_image(rng, 96, 96)
        _, _, sd = DG.make_pair(x, p, rng)
        scale = 96 / 400
        assert sd.rigid_params.translation[0].item() == pytest.approx(1 * scale)
        assert sd.rigid_params.translation[1].item() == pytest.approx(-1 * scale)

    def test_lr_preset_moves_pixels(self, rng):
        p = D.PRESETS["LR"].scaled(64)
        x = DG.procedural_image(rng, 64, 64)
        _, _, sd = DG.make_pair(x, p, rng)
        assert mde(sd.deformation, D.identity_map(64, 64)) > 0.0


class TestGenerateDataset:
    def test_round_trip_and_self_consistency(self, tmp_path, rng):
        man = DG.generate_dataset(tmp_path, preset="SC", size=48, counts=(2, 1, 1), seed=4)
        ds = DG.load_dataset(man)
        assert len(ds.train) == 2 and len(ds.val) == 1 and len(ds.test) == 1
        for s in ds.train:
            rebuilt = D.warp(DG.channel_swap(s.x), s.d_true)
            assert np.array_equal(rebuilt.data.data, s.y_tilde.data.data)
            assert np.array_equal(rebuilt.mask, s.y_tilde.mask)

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        DG.generate_dataset(a, preset="LC", size=48, counts=(2, 1, 1), seed=11)
        DG.generate_dataset(b, preset="LC", size=48, counts=(2, 1, 1), seed=11)
        for f in sorted(a.iterdir()):
            assert (b / f.name).read_bytes() == f.read_bytes(), f.name

    def test_manifest_counts_match_files(self, tmp_path):
        man = DG.generate_dataset(tmp_path, preset="SR", size=48, counts=(3, 2, 1), seed=0)
        manifest = json.loads(Path(man).read_text())
        for split, n in manifest["counts"].items():
            assert len(manifest["samples"][split]) == n
            for entry in manifest["samples"][split]:
                for key in ("x", "y_tilde", "d_true", "d_mask"):
                    assert (tmp_path / entry[key]).exists()

    def test_ground_truth_round_trip(self, tmp_path):
        man = DG.generate_dataset(tmp_path, preset="LR", size=48, counts=(2, 1, 1), seed=2)
        manifest = DG.DatasetManifest.load(man)
        params = D.PRESETS["LR"].scaled(48)
        rng = np.random.default_rng(0)
        for _ in range(4):
            sd = D.simulate_deformation(params, rng, 48, 48)
            comp = D.compose(sd.deformation, sd.inverse())
            assert mde(comp, D.identity_map(48, 48)) < 0.1
        del manifest

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(ValueError):
            DG.generate_dataset(tmp_path, preset="XX", size=48, counts=(1, 1, 1))

    def test_desk_default_generates_under_a_minute(self, tmp_path):
        import time
        t0 = time.time()
        DG.generate_dataset(tmp_path, preset="SC", size=96, counts=(200, 20, 50), seed=0)
        assert time.time() - t0 < 60.0

    def test_mask_reconstruction_matches_generation(self, tmp_path):
        man = DG.generate_dataset(tmp_path, preset="LC", size=48, counts=(1, 1, 1), seed=3)
        ds = DG.load_dataset(man)
        s = ds.train[0]
        # LC at 48 px still moves content off the grid: some invalid border
        assert not s.y_tilde.mask.all()
        assert s.y_tilde.mask.any()


    @pytest.mark.parametrize("name", ["image_size", "bogus"])
    def test_split_names_only_the_three_splits(self, name):
        ds = DG.Dataset(train=[1], val=[2], test=[3])
        assert [ds.split(n) for n in ("train", "val", "test")] == [[1], [2], [3]]
        with pytest.raises(ValueError, match="unknown split"):
            ds.split(name)


class TestFlatBinaryFormat:
    def test_array_round_trip(self, tmp_path, rng):
        arr = rng.normal(size=(3, 5, 7))
        fileio.write_array(tmp_path / "t.bin", arr, "image")
        back, kind = fileio.read_array(tmp_path / "t.bin")
        assert kind == "image" and np.array_equal(back, arr)

    def test_mask_round_trip(self, tmp_path):
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        fileio.write_array(tmp_path / "m.bin", mask, "mask")
        back, kind = fileio.read_array(tmp_path / "m.bin")
        assert kind == "mask" and np.array_equal(back.astype(bool), mask)

    def test_header_is_little_endian_scalars(self, tmp_path):
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        fileio.write_array(tmp_path / "a.bin", arr, "tensor")
        raw = (tmp_path / "a.bin").read_bytes()
        assert np.array_equal(np.frombuffer(raw, dtype="<f8").reshape(2, 3), arr)
        hdr = (tmp_path / "a.bin.hdr").read_text()
        assert "dtype=float64" in hdr and "shape=2 3" in hdr

    @pytest.mark.parametrize("size", [8 * 12 - 1, 8 * 12 + 1, 8 * 13])
    def test_wrong_data_size_names_the_file(self, tmp_path, size):
        fileio.write_array(tmp_path / "a.bin", np.zeros((3, 4)), "tensor")
        (tmp_path / "a.bin").write_bytes(bytes(size))
        with pytest.raises(ValueError, match=r"a\.bin: not an array file: .*shape \(3, 4\)"):
            fileio.read_array(tmp_path / "a.bin")

    @pytest.mark.parametrize("key", ["dtype", "shape", "kind"])
    def test_header_line_missing_names_the_file(self, tmp_path, key):
        fileio.write_array(tmp_path / "a.bin", np.zeros((3, 4)), "tensor")
        hdr = tmp_path / "a.bin.hdr"
        hdr.write_text("".join(ln + "\n" for ln in hdr.read_text().splitlines() if not ln.startswith(key)))
        with pytest.raises(ValueError, match=rf"a\.bin: not an array file: the header has no {key} line"):
            fileio.read_array(tmp_path / "a.bin")

    def test_pnm_round_trip(self, tmp_path, rng):
        arr = np.round(rng.uniform(0, 255, size=(3, 6, 5)))
        fileio.write_pnm(tmp_path / "img.ppm", arr)
        back = fileio.read_pnm(tmp_path / "img.ppm")
        assert np.array_equal(back, arr)
        gray = np.round(rng.uniform(0, 255, size=(1, 4, 4)))
        fileio.write_pnm(tmp_path / "img.pgm", gray)
        assert np.array_equal(fileio.read_pnm(tmp_path / "img.pgm"), gray)


class TestCheckpointBundle:
    FILES = ["ckpt.bin"]

    def test_round_trip_leaves_one_file(self, tmp_path, rng):
        arrays = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5), "s": np.array(2.5)}
        fileio.save_checkpoint(tmp_path / "ckpt", arrays.items(), {"epoch": 1})
        back, meta = fileio.load_checkpoint(tmp_path / "ckpt")
        assert meta == {"epoch": 1}
        assert {k: v.tobytes() for k, v in back.items()} == {k: v.tobytes() for k, v in arrays.items()}
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FILES

    @pytest.mark.parametrize("where", ["arrays", "json", "replace"])
    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, rng, monkeypatch, where):
        stem = tmp_path / "ckpt"
        old = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5)}
        fileio.save_checkpoint(stem, old.items(), {"epoch": 1})

        def interrupted(*args, **kwargs):
            raise RuntimeError("interrupted")

        def arrays():
            yield "w", old["w"] + 1.0
            if where == "arrays":
                interrupted()
            yield "b", old["b"] + 1.0

        if where == "json":
            monkeypatch.setattr(fileio.json, "dumps", interrupted)
        if where == "replace":
            monkeypatch.setattr(fileio.os, "replace", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            fileio.save_checkpoint(stem, arrays(), {"epoch": 2})
        monkeypatch.undo()

        back, meta = fileio.load_checkpoint(stem)
        assert meta == {"epoch": 1}
        assert {k: v.tobytes() for k, v in back.items()} == {k: v.tobytes() for k, v in old.items()}
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FILES

    def test_stop_right_after_the_move_leaves_the_new_checkpoint_whole(self, tmp_path, monkeypatch):
        stem = tmp_path / "ckpt"
        fileio.save_checkpoint(stem, [("w", np.zeros(4))], {"epoch": 1})
        real_replace = os.replace

        def replace_then_stop(src, dst):
            real_replace(src, dst)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(fileio.os, "replace", replace_then_stop)
        with pytest.raises(RuntimeError, match="interrupted"):
            fileio.save_checkpoint(stem, [("w", np.ones(4))], {"epoch": 2})
        monkeypatch.undo()

        back, meta = fileio.load_checkpoint(stem)
        assert meta == {"epoch": 2} and np.array_equal(back["w"], np.ones(4))
        assert sorted(p.name for p in tmp_path.iterdir()) == self.FILES

    @pytest.mark.parametrize("content", [
        np.arange(40.0).astype("<f8").tobytes(),  # a bare array buffer: the older three-file layout's .bin
        b"",
        b"[1, 2]\n",
        b'{"arrays": []}\n',
        b'{"arrays": [["w", [2], 8]], "meta": {}}\n' + bytes(16),
    ], ids=["bare-buffer", "empty", "not-a-dict", "no-meta", "wrong-offset"])
    def test_a_file_that_is_not_a_checkpoint_raises(self, tmp_path, content):
        (tmp_path / "ckpt.bin").write_bytes(content)
        with pytest.raises(ValueError, match="ckpt.bin"):
            fileio.load_checkpoint(tmp_path / "ckpt")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
named_arrays = st.lists(
    st.tuples(st.text(), hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))),
    max_size=5, unique_by=lambda pair: pair[0])


class TestCheckpointProperties:
    """A checkpoint reads back exactly what was saved, whatever the names
    (tabs and newlines included) and shapes (0-d and zero-size included),
    and a file one byte too short or too long is refused."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(named_arrays, st.dictionaries(st.text(), json_values, max_size=4))
    def test_round_trip(self, tmp_path_factory, arrays, meta):
        stem = tmp_path_factory.mktemp("ckpt") / "ckpt"
        fileio.save_checkpoint(stem, arrays, meta)
        back, back_meta = fileio.load_checkpoint(stem)
        assert back_meta == meta
        assert list(back) == [name for name, _ in arrays]
        for name, arr in arrays:
            assert back[name].shape == arr.shape and back[name].tobytes() == arr.tobytes()

    @settings(max_examples=30, deadline=None, database=None)
    @given(named_arrays, st.sampled_from([-1, 1]))
    def test_one_byte_off_raises(self, tmp_path_factory, arrays, change):
        stem = tmp_path_factory.mktemp("ckpt") / "ckpt"
        fileio.save_checkpoint(stem, arrays, {"epoch": 1})
        path = Path(f"{stem}.bin")
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] if change < 0 else raw + b"\0")
        with pytest.raises(ValueError, match="ckpt.bin"):
            fileio.load_checkpoint(stem)
