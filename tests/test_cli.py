import hashlib
from pathlib import Path

import pytest

from ctcseq.cli import main

FAST_CONFIG = """
[model]
feat_channels = 6
feat_grid = 6,6
pooled_grid = 3,3
embed_dim = 8
encoder_layers = 1
heads = 2
ffn_hidden = 16

[train]
epochs = 2
batch_size = 4
seed = 7

[data]
frame_size = 32
n_signers = 5
max_letters = 2
"""


def dir_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_CONFIG)
    return str(path)


class TestSynth:
    def test_same_seed_byte_identical_directories(self, tmp_path, cfg_file, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "5", "--n-clips", "10", "--out", str(out),
                         "--config", cfg_file]) == 0
        assert dir_digest(a) == dir_digest(b)

    def test_config_echo_written(self, tmp_path, cfg_file):
        out = tmp_path / "ds"
        main(["synth", "--seed", "1", "--n-clips", "6", "--out", str(out), "--config", cfg_file])
        echo = (out / "config.resolved.ini").read_text()
        assert "[model]" in echo and "[train]" in echo and "[data]" in echo
        assert "frame_size = 32" in echo

    def test_config_seed_is_the_default(self, tmp_path, cfg_file, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--n-clips", "6", "--out", str(a), "--config", cfg_file]) == 0
        assert "seed 7)" in capsys.readouterr().out
        assert main(["synth", "--seed", "7", "--n-clips", "6", "--out", str(b), "--config", cfg_file]) == 0
        assert dir_digest(a) == dir_digest(b)
        assert "seed = 7\n" in (a / "config.resolved.ini").read_text()

    def test_env_seed_override(self, tmp_path, cfg_file, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "5", "--n-clips", "6", "--out", str(a), "--config", cfg_file])
        monkeypatch.setenv("CTCSEQ_SEED", "5")
        main(["synth", "--seed", "99", "--n-clips", "6", "--out", str(b), "--config", cfg_file])
        da, db = dir_digest(a), dir_digest(b)
        del da["config.resolved.ini"], db["config.resolved.ini"]
        assert da == db


class TestPipeline:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ws")
        cfg = root / "fast.ini"
        cfg.write_text(FAST_CONFIG)
        data = root / "data"
        assert main(["synth", "--seed", "3", "--n-clips", "12", "--out", str(data),
                     "--config", str(cfg)]) == 0
        run = root / "run"
        assert main(["train", "--data", str(data), "--config", str(cfg),
                     "--out", str(run)]) == 0
        return root

    def test_train_outputs(self, workspace):
        run = workspace / "run"
        assert (run / "best.ckpt").exists()
        assert (run / "epoch.log").exists()
        assert (run / "config.resolved.ini").exists()

    def test_eval_greedy_equals_beam_width_one_report(self, workspace, tmp_path):
        # the decoders coincide on one-hot-dominated outputs, so sharpen
        # the classifier before comparing
        from ctcseq.model import load_checkpoint, save_checkpoint

        data = workspace / "data"
        model = load_checkpoint(workspace / "run" / "best.ckpt")
        model.classifier.weight.data *= 400.0
        model.classifier.bias.data *= 400.0
        ckpt = tmp_path / "sharp.ckpt"
        save_checkpoint(model, ckpt)

        out_g, out_b = tmp_path / "g", tmp_path / "b"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--decoder", "greedy", "--out", str(out_g)]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--decoder", "beam", "--beam-width", "1", "--out", str(out_b)]) == 0
        greedy_lines = (out_g / "report.tsv").read_text()
        beam_lines = (out_b / "report.tsv").read_text()
        assert greedy_lines == beam_lines

    def test_decode_prints_a_letter_string(self, workspace, capsys):
        data, ckpt = workspace / "data", workspace / "run" / "best.ckpt"
        clip = (data / "dev.index").read_text().splitlines()[0].split("\t")[0]
        assert main(["decode", "--ckpt", str(ckpt), "--clip", str(data / clip)]) == 0
        printed = capsys.readouterr().out.strip()
        assert set(printed) <= set("abcde")

    def test_ablate_prints_and_writes_the_table(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "one_epoch.ini"
        cfg.write_text(FAST_CONFIG.replace("epochs = 2", "epochs = 1"))
        out = tmp_path / "abl"
        assert main(["ablate", "--data", str(workspace / "data"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        header, *rows = printed.splitlines()
        assert header.split() == ["setting", "greedy", "beam", "beam-lm"]
        assert [row.split()[0] for row in rows] == ["ctc", "ctc+mel", "ctc+flip", "ctc+mel+flip"]
        assert all(len(row.split()) == 4 for row in rows)
        assert (out / "ablation.txt").read_text() == printed
        assert "epochs = 1" in (out / "config.resolved.ini").read_text()

    def test_eval_beam_lm(self, workspace, tmp_path, capsys):
        data, ckpt = workspace / "data", workspace / "run" / "best.ckpt"
        corpus = tmp_path / "corpus.txt"
        words = [line.split("\t")[1] for line in (data / "train.index").read_text().splitlines()]
        corpus.write_text("\n".join(words) + "\n")
        lm_path = tmp_path / "model.charlm"
        assert main(["lm-train", "--corpus", str(corpus), "--order", "2",
                     "--out", str(lm_path)]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--decoder", "beam-lm",
                     "--lm", str(lm_path), "--alpha", "0.2"]) == 0
        assert "mean letter accuracy" in capsys.readouterr().out


class TestLmTrainCommand:
    def test_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab\nba\nab\n")
        out = tmp_path / "m.charlm"
        assert main(["lm-train", "--corpus", str(corpus), "--order", "1", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("CHARLM v1 order=1")


class TestErrors:
    @pytest.fixture()
    def decode_files(self, tmp_path):
        """A 5-letter checkpoint and a clip container for ``decode``."""
        import numpy as np

        from ctcseq.data import write_tensor
        from ctcseq.model import ModelConfig, Recognizer, save_checkpoint

        cfg = ModelConfig(feat_channels=4, feat_grid=(4, 4), pooled_grid=(2, 2), embed_dim=8,
                          encoder_layers=1, heads=2, ffn_hidden=8, num_classes=5)
        ckpt, clip = tmp_path / "m.ckpt", tmp_path / "clip.tnsr"
        save_checkpoint(Recognizer(cfg, seed=0), ckpt)
        write_tensor(clip, np.random.default_rng(0).random((4, 3, 16, 16)))
        return ["decode", "--ckpt", str(ckpt), "--clip", str(clip)]

    @pytest.mark.parametrize("shape, fill", [((4, 16, 16), 0.5), ((0, 3, 16, 16), 0.5), ((4, 3, 16, 16), float("nan"))],
                             ids=["rank-3", "zero-frames", "all-nan"])
    def test_decode_rejects_malformed_clip_naming_the_file(self, decode_files, shape, fill, capsys):
        import numpy as np

        from ctcseq.data import write_tensor

        write_tensor(Path(decode_files[4]), np.full(shape, fill))
        assert main(decode_files) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "clip.tnsr" in err

    def test_eval_rejects_non_finite_checkpoint(self, decode_files, tmp_path, capsys):
        from ctcseq.ctc import Alphabet
        from ctcseq.data import GenConfig, save_dataset, synthesize

        ckpt = Path(decode_files[2])
        raw = bytearray(ckpt.read_bytes())
        raw[-8:] = bytes.fromhex("000000000000f87f")  # a little-endian float64 NaN
        ckpt.write_bytes(bytes(raw))
        save_dataset(synthesize(0, 6, Alphabet(tuple("abcde")), GenConfig(frame_size=16)), tmp_path / "data")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "non-finite" in err and "m.ckpt" in err

    def test_decode_beam_lm_without_lm(self, decode_files, capsys):
        assert main(decode_files + ["--decoder", "beam-lm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_decode_rejects_alphabet_of_wrong_size(self, decode_files, capsys):
        assert main(decode_files + ["--alphabet", "ab"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        assert main(decode_files + ["--alphabet", "abcde"]) == 0

    def test_eval_rejects_dataset_alphabet_of_wrong_size(self, decode_files, tmp_path, capsys):
        from ctcseq.ctc import Alphabet
        from ctcseq.data import GenConfig, save_dataset, synthesize

        for letters in ("xyz", "abcde"):
            save_dataset(synthesize(0, 6, Alphabet(tuple(letters)), GenConfig(frame_size=16)), tmp_path / letters)
        assert main(["eval", "--ckpt", decode_files[2], "--data", str(tmp_path / "xyz")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "3 letters" in err and "has 5" in err
        assert main(["eval", "--ckpt", decode_files[2], "--data", str(tmp_path / "abcde")]) == 0

    def test_train_divergence_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(FAST_CONFIG.replace("[train]\n", "[train]\nlr = 1e6\n"))
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--n-clips", "40", "--out", str(data), "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(run)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: non-finite gradient at epoch 1") and err.count("\n") == 1
        assert (run / "diagnostic_dump.txt").read_text().startswith("offending batch:")
        assert "lr = 1000000.0\n" in (run / "config.resolved.ini").read_text()

    def test_synth_rejects_negative_clip_count(self, tmp_path, capsys):
        assert main(["synth", "--n-clips", "-5", "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "n_clips" in err
        assert not (tmp_path / "o").exists()

    def test_decode_rejects_lm_letters_outside_the_alphabet(self, decode_files, tmp_path, capsys):
        from ctcseq.lm import lm_train, save_lm

        lm = tmp_path / "xyz.charlm"
        save_lm(lm_train(["xyz"], order=2), lm)
        assert main(decode_files + ["--decoder", "beam-lm", "--lm", str(lm)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "xyz" in err

    def test_decode_malformed_checkpoint_manifest(self, decode_files, capsys):
        ckpt = Path(decode_files[2])
        ckpt.write_bytes(b"CTSQCKPT" + (2).to_bytes(8, "little") + b"[]")
        assert main(decode_files) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "m.ckpt" in err

    def test_decode_truncated_clip(self, decode_files, capsys):
        clip = Path(decode_files[-1])
        clip.write_bytes(clip.read_bytes()[:22])
        assert main(decode_files) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_missing_file_is_reported(self, tmp_path, capsys):
        code = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--data", str(tmp_path / "nodata")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_flag_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--bogus-flag", "1"])
        assert exc.value.code != 0

    def test_beam_lm_without_model(self, tmp_path, capsys):
        code = main(["eval", "--ckpt", "x", "--data", "y", "--decoder", "beam-lm"])
        assert code == 1

    def test_bad_config_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[train]\nflip_prob = 2.0\n")
        code = main(["synth", "--seed", "1", "--n-clips", "2",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert code == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, line, message", [
        ("model", "heads = 0", ">= 1"),
        ("model", "feat_channels = 0", ">= 1"),
        ("model", "embed_dim = 0", ">= 1"),
        ("model", "ffn_hidden = 0", ">= 1"),
        ("model", "pooled_grid = 0,0", ">= 1"),
        ("data", "glyph_cells = 0", ">= 1"),
        ("data", "frame_size = 0", "frame_size must be >= 1"),
        ("data", "transition_frames = -1", "transition_frames must be >= 0"),
        ("data", "n_signers = 0", "n_signers must be >= 1"),
        ("data", "max_frames_per_letter = 1", "max_frames_per_letter must be >="),
        ("data", "words = xyz", "words use letters 'xyz'"),
        ("data", "channels = 4", "unknown config key"),
        ("data", "signer_disjoint = true", "unknown config key"),
        ("model", "encoder_layers = -3", "encoder_layers must be >= 0"),
        # settings that are module constants, as older echoes still carry them
        ("model", "dropout_encoder = 0.3", "unknown config key"),
        ("model", "dropout_attention = 0.1", "unknown config key"),
        ("model", "logit_scale = 8.0", "unknown config key"),
        ("train", "beta1 = 0.9", "unknown config key"),
        ("train", "beta2 = 0.999", "unknown config key"),
        ("train", "eps = 1e-08", "unknown config key"),
        ("train", "weight_decay = 0.01", "unknown config key"),
        ("train", "grad_clip = 5.0", "unknown config key"),
        ("data", "min_frames_per_letter = 2", "unknown config key"),
        ("data", "background_noise = 0.02", "unknown config key"),
        ("data", "position_jitter = 1.5", "unknown config key"),
    ])
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, section, line, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        code = main(["synth", "--seed", "1", "--n-clips", "2",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()
