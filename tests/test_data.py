import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import CORRUPTIONS, write_corrupted
from ctcseq.ctc import Alphabet
from ctcseq.data import (
    GenConfig,
    SyntheticClip,
    horizontal_flip,
    load_dataset,
    normalize,
    read_tensor,
    save_dataset,
    synthesize,
    write_tensor,
)

ALPHABET = Alphabet(tuple("abcde"))


@pytest.fixture(scope="module")
def tensor_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("tensor") / "t.tnsr"
    write_tensor(path, np.random.default_rng(0).random((3, 3, 4, 4)))
    return path.read_bytes()


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    save_dataset(synthesize(4, 10, ALPHABET, GenConfig(frame_size=8, n_signers=6)), root)
    return root, (root / "train.index").read_bytes()


def small_cfg(**kw):
    defaults = dict(frame_size=32, n_signers=6)
    defaults.update(kw)
    return GenConfig(**defaults)


class TestSynthesize:
    def test_same_seed_is_bitwise_identical(self):
        a = synthesize(11, 12, ALPHABET, small_cfg())
        b = synthesize(11, 12, ALPHABET, small_cfg())
        for ca, cb in zip(a.train + a.dev + a.test, b.train + b.dev + b.test):
            assert np.array_equal(ca.frames, cb.frames)
            assert ca.target == cb.target
            assert (ca.signer_id, ca.handedness) == (cb.signer_id, cb.handedness)

    def test_signer_disjoint_partitions(self):
        split = synthesize(3, 60, ALPHABET, small_cfg())
        seen = {
            name: {c.signer_id for c in clips}
            for name, clips in split.partitions().items()
        }
        assert not (seen["train"] & seen["dev"])
        assert not (seen["train"] & seen["test"])
        assert not (seen["dev"] & seen["test"])

    @pytest.mark.parametrize("n_signers, disjoint", [(5, False), (12, True)])
    def test_signer_disjoint_is_computed_from_the_partitions(self, n_signers, disjoint):
        split = synthesize(0, 40, ALPHABET, GenConfig(frame_size=16, n_signers=n_signers))
        shared = {c.signer_id for c in split.dev} & {c.signer_id for c in split.test}
        assert split.signer_disjoint is disjoint
        assert bool(shared) is not disjoint

    @pytest.mark.parametrize("n_signers, fractions, train, dev, test", [
        (1, (0.70, 0.15), [0], [0], [0]),
        (2, (0.70, 0.15), [0], [1], [1]),
        (3, (0.70, 0.15), [0, 1], [2], [2]),
        (4, (0.70, 0.15), [0, 1, 2], [3], [3]),
        (5, (0.70, 0.15), [0, 1, 2, 3], [4], [4]),
        (6, (0.70, 0.15), [0, 1, 2, 3], [4], [5]),
        (12, (0.70, 0.15), list(range(8)), [8, 9], [10, 11]),
        (12, (0.75, 0.15), list(range(9)), [9, 10], [11]),
    ], ids=["n1", "n2", "n3", "n4", "n5", "n6", "n12", "n12-0.75-0.15"])
    def test_partition_signers(self, n_signers, fractions, train, dev, test):
        """Train takes round(train_fraction * n) signers, dev the next round(dev_fraction * n) but
        never the last, test the rest; dev takes the last signer when none is left."""
        cfg = GenConfig(frame_size=8, n_signers=n_signers, train_fraction=fractions[0], dev_fraction=fractions[1])
        split = synthesize(0, 120, ALPHABET, cfg)
        seen = {name: sorted({c.signer_id for c in clips}) for name, clips in split.partitions().items()}
        assert seen == {"train": train, "dev": dev, "test": test}

    def test_one_signer_fills_every_partition(self):
        split = synthesize(3, 12, ALPHABET, small_cfg(n_signers=1))
        assert [len(c) for c in split.partitions().values()] == [8, 2, 2]
        assert {c.signer_id for c in split.train + split.dev + split.test} == {0}

    def test_split_sizes(self):
        split = synthesize(0, 100, ALPHABET, small_cfg())
        assert len(split.train) == 70
        assert len(split.dev) == 15
        assert len(split.test) == 15

    def test_enough_frames_per_letter(self):
        split = synthesize(5, 30, ALPHABET, small_cfg())
        for clip in split.train + split.dev + split.test:
            assert clip.num_frames >= 2 * len(clip.target)

    def test_frames_in_unit_interval(self):
        split = synthesize(9, 6, ALPHABET, small_cfg())
        for clip in split.train:
            assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0

    def test_letter_frequency_matches_uniform_sampling(self):
        split = synthesize(17, 200, ALPHABET, small_cfg())
        counts = np.zeros(5)
        for clip in split.train + split.dev + split.test:
            for l in clip.target:
                counts[l] += 1
        n = counts.sum()
        p = 1 / 5
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    def test_left_handed_rate(self):
        split = synthesize(23, 400, ALPHABET, small_cfg(left_handed_rate=0.07))
        clips = split.train + split.dev + split.test
        rate = sum(c.handedness == "left" for c in clips) / len(clips)
        assert 0.03 <= rate <= 0.12

    def test_signer_count_costs_no_memory(self):
        """Signers are partitioned as index ranges: a million of them allocate nothing each."""
        tracemalloc.start()
        try:
            split = synthesize(0, 6, ALPHABET, GenConfig(frame_size=16, n_signers=10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6
        assert split.signer_disjoint

    def test_word_list_sampling(self):
        cfg = small_cfg(words=("ab", "cde"))
        split = synthesize(2, 20, ALPHABET, cfg)
        words = {ALPHABET.decode(c.target) for c in split.train + split.dev + split.test}
        assert words <= {"ab", "cde"}

    @pytest.mark.parametrize("seed, n_clips, cfg, digest", [
        (123, 400, GenConfig(train_fraction=0.75, dev_fraction=0.15),
         "ee9438072908c65282a185a093b47ac7d509abec820afcc0ba37136a21dcbba4"),
        (900, 170, GenConfig(train_fraction=0.70, dev_fraction=0.20, left_handed_rate=0.07,
                             words=("ab", "ade", "bce", "cab", "dec", "eda", "bad", "ace")),
         "88886ce8cc3a46e37cfd4662ef24bfe8b0f01d337423bba935c622608d79316d"),
    ], ids=["criterion8", "criterion9"])
    def test_acceptance_data_is_pinned(self, seed, n_clips, cfg, digest):
        """The criteria-8 and 9 clips, bit for bit: a new generator setting must leave them as they are."""
        h = hashlib.sha256()
        for name, clips in synthesize(seed, n_clips, ALPHABET, cfg).partitions().items():
            for clip in clips:
                h.update(repr((name, clip.frames.shape, clip.target, clip.signer_id, clip.handedness)).encode())
                h.update(np.ascontiguousarray(clip.frames, dtype="<f8").tobytes())
        assert h.hexdigest() == digest


class TestFlip:
    def test_involution_is_bitwise(self):
        split = synthesize(1, 4, ALPHABET, small_cfg())
        clip = split.train[0]
        twice = horizontal_flip(horizontal_flip(clip))
        assert np.array_equal(twice.frames, clip.frames)
        assert twice.handedness == clip.handedness

    def test_columns_exchange_exactly(self):
        clip = SyntheticClip(
            frames=np.random.default_rng(0).random((2, 3, 4, 4)),
            target=(0,),
            signer_id=0,
            handedness="right",
        )
        flipped = horizontal_flip(clip)
        assert np.array_equal(flipped.frames[..., 0], clip.frames[..., -1])
        assert flipped.handedness == "left"
        assert flipped.target == clip.target


class TestNormalize:
    def test_mean_pixels_map_to_zero(self):
        frames = np.zeros((1, 3, 2, 2))
        frames[0, 0] = 0.485
        frames[0, 1] = 0.456
        frames[0, 2] = 0.406
        assert np.allclose(normalize(frames), 0.0, atol=1e-15)

    def test_all_ones_frame(self):
        frames = np.ones((1, 3, 2, 2))
        out = normalize(frames)
        expected = [(1 - 0.485) / 0.229, (1 - 0.456) / 0.224, (1 - 0.406) / 0.225]
        for c in range(3):
            assert np.allclose(out[0, c], expected[c], atol=1e-12)

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError):
            normalize(np.zeros((1, 4, 2, 2)))


class TestContainers:
    def test_tensor_round_trip_bitwise(self, tmp_path):
        arr = np.random.default_rng(1).random((3, 2, 5))
        path = tmp_path / "t.tnsr"
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.tnsr"
        path.write_bytes(b"NOTATENSOR")
        with pytest.raises(ValueError):
            read_tensor(path)

    # magic, version, dtype tag, ndim, then four 8-byte dims for a clip
    CLIP_HEADER = 8 + 4 + 4 + 4 + 8 * 4

    @pytest.mark.parametrize(
        "cut", [*range(CLIP_HEADER), CLIP_HEADER, CLIP_HEADER + 3, -800, -8, -1]
    )
    def test_truncated_clip_rejected_naming_the_file(self, tmp_path, cut):
        clip = synthesize(4, 3, ALPHABET, small_cfg()).train[0]
        path = tmp_path / "clip.tnsr"
        write_tensor(path, clip.frames)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="clip.tnsr"):
            read_tensor(path)

    @pytest.mark.parametrize("ndim, shape", [(0xFFFFFFFF, ()), (2, (1 << 63, 1 << 63)), (2, (0, 1 << 63))],
                             ids=["huge-ndim", "overflowing-size", "unindexable-dim"])
    def test_corrupt_header_rejected_naming_the_file(self, tmp_path, ndim, shape):
        path = tmp_path / "odd.tnsr"
        path.write_bytes(b"CTSQTENS" + struct.pack("<I", 1) + b"f64\x00" + struct.pack("<I", ndim)
                         + struct.pack(f"<{len(shape)}Q", *shape))
        with pytest.raises(ValueError, match="odd.tnsr"):
            read_tensor(path)

    @pytest.mark.parametrize("version, tag, message", [(2, b"f64\x00", "unsupported tensor container version 2"),
                                                       (1, b"f32\x00", "unsupported dtype tag")], ids=["version", "dtype"])
    def test_unknown_version_or_dtype_rejected_naming_the_file(self, tmp_path, version, tag, message):
        path = tmp_path / "odd.tnsr"
        path.write_bytes(b"CTSQTENS" + struct.pack("<I", version) + tag + struct.pack("<IQ", 1, 0))
        with pytest.raises(ValueError, match=rf"{message} in .*odd\.tnsr"):
            read_tensor(path)

    @settings(max_examples=300, deadline=None)
    @given(edits=CORRUPTIONS)
    def test_corrupted_bytes_end_in_a_named_error_or_an_array(self, tensor_bytes, tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "corrupt.tnsr"
        write_corrupted(path, tensor_bytes, edits)
        try:
            arr = read_tensor(path)
        except ValueError as exc:
            assert "corrupt.tnsr" in str(exc)
        else:
            assert arr.dtype == np.float64

    @settings(max_examples=200, deadline=None)
    @given(edits=CORRUPTIONS)
    def test_corrupted_index_ends_in_a_named_error_or_a_split(self, dataset_dir, edits):
        root, raw = dataset_dir
        write_corrupted(root / "train.index", raw, edits)
        try:
            split = load_dataset(root)
        except ValueError as exc:
            assert "train.index" in str(exc)
        else:
            assert all(clip.handedness in ("left", "right") for clip in split.train)

    def test_dataset_round_trip(self, tmp_path):
        split = synthesize(4, 10, ALPHABET, small_cfg())
        save_dataset(split, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.alphabet.letters == ALPHABET.letters
        assert loaded.signer_disjoint
        for orig, back in zip(split.train, loaded.train):
            assert np.array_equal(orig.frames, back.frames)
            assert orig.target == back.target
            assert orig.signer_id == back.signer_id
            assert orig.handedness == back.handedness

    def test_index_line_format(self, tmp_path):
        split = synthesize(4, 8, ALPHABET, small_cfg())
        save_dataset(split, tmp_path / "ds")
        line = (tmp_path / "ds" / "train.index").read_text(encoding="utf-8").splitlines()[0]
        rel, word, signer, handedness = line.split("\t")
        assert rel.startswith("clips/train_")
        assert set(word) <= set("abcde")
        assert handedness in ("left", "right")
        int(signer)
