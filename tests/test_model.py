import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import CORRUPTIONS, checkpoint_parts, sealed_checkpoint, write_corrupted
from autodiff_reference import finite_difference_check
from conv_reference import direct_conv2d
from ctcseq.autodiff import Tensor
from ctcseq.ctc import Alphabet
from ctcseq.data import normalize
from ctcseq.losses import combined_loss
from ctcseq.model import (
    CKPT_MAGIC,
    CONTEXT_WINDOW,
    ModelConfig,
    Recognizer,
    adaptive_pool,
    apply_attention,
    causal_mask,
    load_checkpoint,
    motion_prior,
    pool_matrix,
    save_checkpoint,
    sinusoidal_encoding,
)
from ctcseq.training import forward_frames

TOY = ModelConfig(
    feat_channels=8,
    feat_grid=(6, 6),
    pooled_grid=(4, 4),
    embed_dim=8,
    encoder_layers=2,
    heads=2,
    ffn_hidden=16,
    num_classes=4,
)
ABCD = Alphabet(tuple("abcd"))


def toy_frames(rng, t=3, size=24):
    return rng.random((t, 3, size, size))


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(Recognizer(TOY, seed=0), path, ABCD)
    return path.read_bytes()


def with_param(m, index, **changes):
    """The manifest ``m`` with entry ``index`` of its params list updated."""
    params = list(m["params"])
    params[index] = {**params[index], **changes}
    return {**m, "params": params}


def with_swapped_entries(m, a, b):
    """The manifest ``m`` with the params entries named ``a`` and ``b`` exchanged."""
    params = list(m["params"])
    names = [e["name"] for e in params]
    i, j = names.index(a), names.index(b)
    params[i], params[j] = params[j], params[i]
    return {**m, "params": params}


# what load_checkpoint says when the params table or payload_bytes differ from the model's
MISFIT = "does not fit the model its model_config builds"


class TestConfig:
    def test_heads_must_divide_embed(self):
        with pytest.raises(ValueError):
            ModelConfig(embed_dim=10, heads=3)

    def test_pooled_grid_bounded(self):
        with pytest.raises(ValueError):
            ModelConfig(feat_grid=(4, 4), pooled_grid=(5, 5))


class TestFeatureExtractor:
    def test_output_shape(self):
        model = Recognizer(TOY, seed=0)
        out = model.extractor(Tensor(toy_frames(np.random.default_rng(0))))
        assert out.shape == (3, 8, 6, 6)

    def test_zero_input_zero_maps(self):
        model = Recognizer(TOY, seed=0)
        out = model.extractor(Tensor(np.zeros((2, 3, 24, 24))))
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_too_small_input_rejected(self):
        model = Recognizer(TOY, seed=0)
        with pytest.raises(ValueError):
            model.extractor(Tensor(np.zeros((1, 3, 8, 8))))

    def test_matches_direct_relu_stack_then_pool(self):
        cfg = ModelConfig(feat_channels=4, feat_grid=(3, 2), pooled_grid=(2, 2), embed_dim=8, num_classes=4)
        model = Recognizer(cfg, seed=3)
        rng = np.random.default_rng(3)
        frames = x = rng.random((3, 3, 14, 11))
        for conv in (model.extractor.conv1, model.extractor.conv2, model.extractor.conv3, model.extractor.conv4):
            conv.bias.data = rng.normal(0.0, 0.1, size=4)
            x = np.maximum(direct_conv2d(x, conv.weight.data, conv.bias.data, conv.stride, conv.padding), 0.0)
        assert x.shape == (3, 4, 4, 3)
        want = adaptive_pool(Tensor(x), cfg.feat_grid).data
        out = model.extractor(Tensor(frames))
        assert out.shape == (3, 4, 3, 2)
        assert np.allclose(out.data, want, rtol=0.0, atol=1e-12)


class TestSpatialAttention:
    def test_zero_value_weight_gives_zero_maps(self):
        model = Recognizer(TOY, seed=0)
        model.spatial.w_v.data[...] = 0.0
        maps = model.spatial(Tensor(np.random.default_rng(0).random((2, 8, 6, 6))))
        assert np.array_equal(maps.data, np.zeros((2, 6, 6)))

    def test_negative_preactivations_blocked(self):
        model = Recognizer(TOY, seed=0)
        model.spatial.w_a.data[...] = -1.0
        maps = model.spatial(Tensor(np.abs(np.random.default_rng(0).random((1, 8, 6, 6)))))
        assert np.array_equal(maps.data, np.zeros((1, 6, 6)))

    def test_single_cell_hand_computation(self):
        model = Recognizer(TOY, seed=3)
        features = np.random.default_rng(1).normal(size=(1, 8, 6, 6))
        maps = model.spatial(Tensor(features))
        cell = features[0, :, 2, 5]
        hidden = np.maximum(cell @ model.spatial.w_a.data, 0.0)
        expected = np.maximum(hidden @ model.spatial.w_v.data, 0.0)[0]
        assert abs(maps.data[0, 2, 5] - expected) < 1e-12

    def test_nonnegative(self):
        model = Recognizer(TOY, seed=0)
        maps = model.spatial(Tensor(np.random.default_rng(5).normal(size=(4, 8, 6, 6))))
        assert np.all(maps.data >= 0.0)


class TestRefiner:
    def test_single_frame_depends_only_on_itself(self):
        model = Recognizer(TOY, seed=0)
        a = model.refiner(Tensor(np.random.default_rng(0).random((1, 6, 6))))
        b = model.refiner(Tensor(np.random.default_rng(0).random((1, 6, 6))))
        assert np.array_equal(a.data, b.data)

    def test_future_frames_cannot_leak(self):
        model = Recognizer(TOY, seed=0)
        rng = np.random.default_rng(1)
        maps = rng.random((5, 6, 6))
        base = model.refiner(Tensor(maps)).data
        bumped = maps.copy()
        bumped[4] += 1.0
        out = model.refiner(Tensor(bumped)).data
        assert np.array_equal(out[:4], base[:4])

    def test_window_limits_history(self):
        model = Recognizer(TOY, seed=0)
        rng = np.random.default_rng(2)
        maps = rng.random((CONTEXT_WINDOW + 3, 6, 6))
        base = model.refiner(Tensor(maps)).data
        bumped = maps.copy()
        bumped[0] += 1.0  # frame 0 is outside the window of frame CONTEXT_WINDOW + 1
        out = model.refiner(Tensor(bumped)).data
        assert np.array_equal(out[CONTEXT_WINDOW + 1], base[CONTEXT_WINDOW + 1])
        assert not np.array_equal(out[1], base[1])


class TestBlend:
    def test_pure_prior(self):
        model = Recognizer(TOY, seed=0)
        model.blend_raw.data[...] = 60.0  # sigmoid saturates to 1
        t = 2
        priors = np.random.default_rng(0).random((t, 6, 6))
        priors /= priors.reshape(t, -1).sum(axis=1)[:, None, None]
        out = model.blend_with_prior(Tensor(np.zeros((t, 6, 6))), priors)
        assert np.allclose(out.data, priors, atol=1e-12)

    def test_pure_attention_sums_to_one(self):
        model = Recognizer(TOY, seed=0)
        model.blend_raw.data[...] = -60.0
        priors = np.full((3, 6, 6), 1 / 36)
        out = model.blend_with_prior(Tensor(np.random.default_rng(1).normal(size=(3, 6, 6))), priors)
        assert np.allclose(out.data.reshape(3, -1).sum(axis=1), 1.0, atol=1e-12)

    def test_half_blend_hand_evaluation(self):
        cfg = ModelConfig(**{**TOY.__dict__, "feat_grid": (2, 2), "pooled_grid": (2, 2)})
        model = Recognizer(cfg, seed=0)
        model.blend_raw.data[...] = 0.0  # sigmoid(0) = 0.5
        refined = np.array([[[0.0, 1.0], [2.0, 3.0]]])
        priors = np.full((1, 2, 2), 0.25)
        out = model.blend_with_prior(Tensor(refined), priors).data
        soft = np.exp(refined[0] - 3.0)
        soft /= soft.sum()
        assert np.allclose(out[0], 0.5 * 0.25 + 0.5 * soft, atol=1e-12)

    def test_unnormalized_prior_rejected(self):
        model = Recognizer(TOY, seed=0)
        with pytest.raises(ValueError):
            model.blend_with_prior(Tensor(np.zeros((1, 6, 6))), np.ones((1, 6, 6)))

    def test_maps_are_probability_maps(self):
        model = Recognizer(TOY, seed=0)
        rng = np.random.default_rng(3)
        priors = rng.random((4, 6, 6))
        priors /= priors.reshape(4, -1).sum(axis=1)[:, None, None]
        out = model.blend_with_prior(Tensor(rng.normal(size=(4, 6, 6))), priors).data
        assert np.all(out >= 0.0)
        assert np.allclose(out.reshape(4, -1).sum(axis=1), 1.0, atol=1e-9)


class TestApplyAttention:
    def test_uniform_map_scales_channels(self):
        rng = np.random.default_rng(0)
        features = Tensor(rng.normal(size=(2, 8, 6, 6)))
        maps = Tensor(np.full((2, 6, 6), 1 / 36))
        out = apply_attention(features, maps)
        assert np.allclose(out.data, features.data / 36, atol=1e-15)

    def test_one_hot_map_selects_cell(self):
        rng = np.random.default_rng(1)
        features = Tensor(rng.normal(size=(1, 8, 6, 6)))
        maps = np.zeros((1, 6, 6))
        maps[0, 3, 4] = 1.0
        out = apply_attention(features, Tensor(maps)).data
        assert np.array_equal(out[0, :, 3, 4], features.data[0, :, 3, 4])
        out[0, :, 3, 4] = 0.0
        assert np.array_equal(out, np.zeros_like(out))

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(3, 4, 5, 5))
        maps = rng.random((3, 5, 5))
        out = apply_attention(Tensor(features), Tensor(maps)).data
        ref = np.empty_like(features)
        for t in range(3):
            for d in range(4):
                for y in range(5):
                    for x in range(5):
                        ref[t, d, y, x] = features[t, d, y, x] * maps[t, y, x]
        assert np.abs(out - ref).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_attention(Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros((2, 5, 5))))


class TestPooling:
    def test_identity_when_sizes_match(self):
        assert np.array_equal(pool_matrix(6, 6), np.eye(6))

    def test_constant_map_preserved(self):
        x = Tensor(np.full((1, 2, 9, 9), 3.7))
        from ctcseq.model import adaptive_pool

        out = adaptive_pool(x, (4, 4))
        assert np.allclose(out.data, 3.7, atol=1e-12)

    def test_fourteen_to_nine_bin_table(self):
        mat = pool_matrix(14, 9)
        expected = [(0, 2), (1, 4), (3, 5), (4, 7), (6, 8), (7, 10), (9, 11), (10, 13), (12, 14)]
        for i, (start, end) in enumerate(expected):
            row = np.zeros(14)
            row[start:end] = 1.0 / (end - start)
            assert np.allclose(mat[i], row)

    def test_upsampling_rejected(self):
        with pytest.raises(ValueError):
            pool_matrix(4, 5)


class TestPositionalEncoding:
    def test_shape_and_range(self):
        pe = sinusoidal_encoding(10, 8)
        assert pe.shape == (10, 8)
        assert np.all(np.abs(pe) <= 1.0)

    def test_first_position_pattern(self):
        pe = sinusoidal_encoding(3, 6)
        assert np.allclose(pe[0, 0::2], 0.0)
        assert np.allclose(pe[0, 1::2], 1.0)

    def test_odd_dim_supported(self):
        pe = sinusoidal_encoding(4, 7)
        assert pe.shape == (4, 7)


class TestCausalMask:
    def test_plain_causal(self):
        m = causal_mask(4)
        assert np.all(m[np.triu_indices(4, 1)] < -1e8)
        assert np.all(m[np.tril_indices(4)] == 0.0)

    def test_windowed(self):
        m = causal_mask(6, window=2)
        assert m[5, 3] == 0.0
        assert m[5, 2] < -1e8


class TestFullModel:
    def test_logit_shape_contract(self):
        for t in (1, 3, 7):
            model = Recognizer(TOY, seed=0)
            frames = toy_frames(np.random.default_rng(t), t=t)
            dist = forward_frames(model, frames)
            assert dist.log_probs.shape == (t, TOY.num_classes + 1)

    def test_eval_mode_deterministic(self):
        model = Recognizer(TOY, seed=1)
        frames = toy_frames(np.random.default_rng(0), t=4)
        a = forward_frames(model, frames).log_probs.data
        b = forward_frames(model, frames).log_probs.data
        assert np.array_equal(a, b)

    def test_end_to_end_causality(self):
        rng = np.random.default_rng(3)
        model = Recognizer(TOY, seed=2)
        frames = toy_frames(rng, t=5)
        base = forward_frames(model, frames).log_probs.data
        for t_cut in (2, 4):
            bumped = frames.copy()
            bumped[t_cut] = rng.random(frames.shape[1:])
            # earlier priors stay identical: motion at t_cut affects prior
            # rows >= t_cut only, which are allowed to change
            out = forward_frames(model, bumped).log_probs.data
            assert np.array_equal(out[:t_cut], base[:t_cut])

    def test_row_sums(self):
        model = Recognizer(TOY, seed=5)
        frames = toy_frames(np.random.default_rng(2))
        dist = forward_frames(model, frames)
        assert np.allclose(np.exp(dist.log_probs.data).sum(axis=1), 1.0, atol=1e-12)

    def test_training_mode_requires_rng(self):
        model = Recognizer(TOY, seed=0)
        frames = toy_frames(np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_frames(model, frames, training=True)

    @pytest.mark.parametrize(
        "group",
        ["extractor.conv1.weight", "spatial.w_a", "refiner.w_q", "blend_raw",
         "embed.weight", "layers.0.attn.w_o", "layers.1.norm2.gain", "classifier.weight"],
    )
    def test_gradient_check_spot_groups(self, group):
        rng = np.random.default_rng(11)
        model = Recognizer(TOY, seed=7)
        frames = toy_frames(rng, t=2)
        priors = motion_prior(frames, TOY.feat_grid)
        nf = normalize(frames)

        def f():
            dist = model.forward(nf, priors=priors)
            return combined_loss(dist, [0, 2], 0.1).node

        err = finite_difference_check(f, model.named_parameters()[group], 1e-5)
        assert err < 1e-4


class TestMotionPrior:
    def test_static_video_uniform(self):
        frames = np.full((4, 3, 12, 12), 0.5)
        priors = motion_prior(frames, (3, 3))
        assert np.allclose(priors, 1 / 9, atol=1e-12)

    def test_one_frame_clip_uniform(self):
        # a one-frame clip has no motion either
        frames = np.full((1, 3, 12, 12), 0.5)
        priors = motion_prior(frames, (3, 3))
        assert np.allclose(priors, 1 / 9, atol=1e-12)

    def test_sums_to_one(self):
        frames = np.random.default_rng(0).random((5, 3, 16, 16))
        priors = motion_prior(frames, (4, 4))
        assert np.allclose(priors.reshape(5, -1).sum(axis=1), 1.0, atol=1e-9)
        assert np.all(priors >= 0.0)

    def test_motion_concentrates_mass(self):
        frames = np.zeros((2, 3, 16, 16))
        frames[1, :, :8, :8] = 1.0  # square appears in the top-left quadrant
        priors = motion_prior(frames, (4, 4))
        assert priors[1][:2, :2].sum() > 0.5
        assert np.allclose(priors[0], 1 / 16, atol=1e-12)

    @pytest.mark.parametrize("size, grid", [(16, 4), (14, 9), (64, 8), (12, 3)])
    def test_matches_block_mean_oracle(self, size, grid):
        rng = np.random.default_rng(size)
        frames = rng.random((4, 3, size, size))
        frames[2] = frames[1]  # a still frame mid-clip
        # floor/ceil bin edges; for 14 -> 9 neighbouring bins overlap
        bins = [((i * size) // grid, -((-(i + 1) * size) // grid)) for i in range(grid)]
        expected = np.full((4, grid, grid), 1.0 / grid**2)
        for t in (1, 3):
            diff = np.abs(frames[t] - frames[t - 1]).sum(axis=0)
            cells = np.array([[diff[r0:r1, c0:c1].sum() / ((r1 - r0) * (c1 - c0)) for c0, c1 in bins]
                              for r0, r1 in bins])
            expected[t] = cells / cells.sum()
        assert np.allclose(motion_prior(frames, (grid, grid)), expected, rtol=0.0, atol=1e-12)


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path):
        model = Recognizer(TOY, seed=9)
        frames = toy_frames(np.random.default_rng(1))
        before = forward_frames(model, frames).log_probs.data
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, Alphabet(tuple("wxyz")), extra={"note": "test"})
        loaded, letters = load_checkpoint(path)
        after = forward_frames(loaded, frames).log_probs.data
        assert np.array_equal(before, after)
        assert letters == Alphabet(tuple("wxyz"))

    def test_save_rejects_letters_that_do_not_fit_the_classes(self, tmp_path):
        with pytest.raises(ValueError, match=r"alphabet 'abcde' does not fit 4 classes"):
            save_checkpoint(Recognizer(TOY, seed=0), tmp_path / "model.ckpt", Alphabet(tuple("abcde")))
        assert not (tmp_path / "model.ckpt").exists()

    def test_truncated_payload_rejected(self, tmp_path):
        model = Recognizer(TOY, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, ABCD)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"garbage!!")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_file_rejected_naming_the_file(self, tmp_path):
        model = Recognizer(TOY, seed=0)
        full = tmp_path / "model.ckpt"
        save_checkpoint(model, full, ABCD)
        raw = full.read_bytes()
        # every offset of the magic, the manifest length and the CRC, a few
        # inside the JSON manifest, a few inside the payload
        manifest_end = 20 + int.from_bytes(raw[8:16], "little")
        cuts = [*range(21), manifest_end // 2, manifest_end - 1, manifest_end, manifest_end + 5,
                len(raw) // 2, len(raw) - 8, len(raw) - 1]
        path = tmp_path / "cut.ckpt"
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="cut.ckpt"):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected_naming_file_and_parameter(self, tmp_path, value):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(Recognizer(TOY, seed=0), path, ABCD)
        manifest, payload = checkpoint_parts(path.read_bytes())
        names = [e["name"] for e in manifest["params"]]
        shapes = [e["shape"] for e in manifest["params"][: names.index("refiner.w_k")]]
        at = 8 * sum(int(np.prod(shape)) for shape in shapes) + 8 * 5
        payload = payload[:at] + np.float64(value).tobytes() + payload[at + 8 :]
        path.write_bytes(sealed_checkpoint(manifest, payload))
        with pytest.raises(ValueError, match=r"non-finite.*'refiner\.w_k'.*bad\.ckpt"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda m: [m], "checkpoint manifest in .*odd.ckpt is not a JSON object"),
        (lambda m: {k: v for k, v in m.items() if k != "payload_bytes"}, MISFIT),
        (lambda m: {k: v for k, v in m.items() if k != "params"}, MISFIT),
        (lambda m: {**m, "model_config": {**m["model_config"], "channels": 3}}, "malformed model_config or letters"),
        (lambda m: {**m, "params": [{"name": "blend_raw"}, *m["params"][1:]]}, MISFIT),
        (lambda m: {**m, "params": 5}, MISFIT),
        (lambda m: with_param(m, 0, name=["blend_raw"]), MISFIT),
        (lambda m: with_param(m, 0, name="no_such_param"), MISFIT),
        (lambda m: with_param(m, 0, shape=[2]), MISFIT),
        (lambda m: {**m, "params": m["params"][1:]}, MISFIT),
        (lambda m: with_swapped_entries(m, "refiner.w_q", "refiner.w_k"), MISFIT),
        (lambda m: {**m, "payload_bytes": m["payload_bytes"] - 8}, MISFIT),
        (lambda m: {**m, "version": 1}, "unsupported checkpoint version in .*odd.ckpt: 1$"),
        (lambda m: {**m, "model_config": {**m["model_config"], "heads": 2.0}}, "malformed model_config or letters"),
        (lambda m: {**m, "model_config": {**m["model_config"], "feat_grid": [6]}},
         "malformed model_config or letters"),
        (lambda m: {**m, "model_config": {**m["model_config"], "logit_scale": 8.0}},
         "malformed model_config or letters"),
        (lambda m: {**m, "model_config": {**m["model_config"], "context_window": 5}},
         "malformed model_config or letters"),
        # each refiner matrix needs 1.11 EiB, more than any address space, so the allocation fails at once
        (lambda m: {**m, "model_config": {**m["model_config"], "feat_grid": [20000, 20000]}},
         "malformed model_config or letters"),
        (lambda m: {k: v for k, v in m.items() if k != "letters"}, "letters \\(a string\\)"),
        (lambda m: {**m, "letters": ["a", "b", "c", "d"]}, "letters \\(a string\\)"),
        (lambda m: {**m, "letters": "abca"}, "alphabet letters must be distinct"),
        (lambda m: {**m, "letters": "abc"}, "letters 'abc' do not fit 4 classes"),
    ], ids=["not-an-object", "no-payload-bytes", "no-params", "unknown-config-key", "entry-without-shape",
            "params-not-a-list", "list-name", "unknown-name", "wrong-shape", "missing-param", "swapped-entries",
            "short-payload-bytes", "version-1", "float-heads", "one-entry-grid", "logit-scale-key",
            "context-window-key", "unallocatable-grid", "no-letters", "letters-not-a-string", "repeated-letter",
            "letters-not-num-classes"])
    def test_malformed_manifest_rejected_naming_the_file(self, tmp_path, edit, message):
        path = tmp_path / "odd.ckpt"
        save_checkpoint(Recognizer(TOY, seed=0), path, ABCD)
        manifest, payload = checkpoint_parts(path.read_bytes())
        path.write_bytes(sealed_checkpoint(edit(manifest), payload))
        with pytest.raises(ValueError, match="odd.ckpt") as info:
            load_checkpoint(path)
        assert re.search(message, str(info.value))

    def test_v1_file_is_rejected_by_its_version(self, tmp_path):
        # the v1 layout: magic, manifest length, manifest with byte offsets, payload; no CRC
        model = Recognizer(TOY, seed=0)
        params = model.named_parameters()
        offsets = np.cumsum([0] + [8 * p.data.size for p in params.values()])
        manifest = {"model_config": dataclasses.asdict(TOY), "payload_bytes": int(offsets[-1]), "version": 1,
                    "params": [{"name": n, "shape": list(p.data.shape), "offset": int(o)}
                               for (n, p), o in zip(params.items(), offsets)]}
        mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        path = tmp_path / "old.ckpt"
        path.write_bytes(CKPT_MAGIC + len(mbytes).to_bytes(8, "little") + mbytes
                         + b"".join(p.data.astype("<f8").tobytes() for p in params.values()))
        with pytest.raises(ValueError, match=r"^unsupported checkpoint version in .*old\.ckpt: 1$"):
            load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(edits=CORRUPTIONS)
    def test_corrupted_byte_after_the_magic_ends_in_a_named_error(self, checkpoint_bytes, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "corrupt.ckpt"
        after_magic = len(checkpoint_bytes) - 8
        write_corrupted(path, checkpoint_bytes, [(8 + pos % after_magic, byte) for pos, byte in edits])
        if path.read_bytes() == checkpoint_bytes:  # each overwrite wrote the byte already there
            load_checkpoint(path)
        else:
            with pytest.raises(ValueError, match="corrupt.ckpt"):
                load_checkpoint(path)
