import argparse
import dataclasses
import hashlib
import re
import shlex
from pathlib import Path

import pytest

from conftest import checkpoint_parts, sealed_checkpoint
from ctcseq.cli import build_parser, main
from ctcseq.config import SECTIONS
from ctcseq.ctc import Alphabet

ABCDE = Alphabet(tuple("abcde"))

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


# every option of every command; a new flag, or a value the code can work out
# turned back into one, is an edit here
OPTIONS = {
    "synth": {"--seed", "--n-clips", "--out", "--config", "--alphabet"},
    "train": {"--data", "--config", "--out"},
    "eval": {"--ckpt", "--decoder", "--beam-width", "--lm", "--alpha", "--data", "--split", "--out"},
    "decode": {"--ckpt", "--decoder", "--beam-width", "--lm", "--alpha", "--clip"},
    "lm-train": {"--corpus", "--order", "--smoothing-alpha", "--out"},
    "ablate": {"--data", "--config", "--out"},
}


def test_each_command_has_exactly_its_options():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
            for name, p in commands.choices.items()} == OPTIONS


def test_readme_synopsis_parses():
    """Every ``ctcseq`` line of the README's CLI block names real options."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    lines = [ln.split("#", 1)[0] for ln in block.splitlines() if ln.startswith("ctcseq ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def dir_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_CONFIG, encoding="utf-8")
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
        echo = (out / "config.resolved.ini").read_text(encoding="utf-8")
        assert "[model]" in echo and "[train]" in echo and "[data]" in echo
        assert "frame_size = 32" in echo

    def test_config_seed_is_the_default(self, tmp_path, cfg_file, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--n-clips", "6", "--out", str(a), "--config", cfg_file]) == 0
        assert "seed 7)" in capsys.readouterr().out
        assert main(["synth", "--seed", "7", "--n-clips", "6", "--out", str(b), "--config", cfg_file]) == 0
        assert dir_digest(a) == dir_digest(b)
        assert "seed = 7\n" in (a / "config.resolved.ini").read_text(encoding="utf-8")

    def test_env_seed_override(self, tmp_path, cfg_file, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "5", "--n-clips", "6", "--out", str(a), "--config", cfg_file])
        monkeypatch.setenv("CTCSEQ_SEED", "5")
        main(["synth", "--seed", "99", "--n-clips", "6", "--out", str(b), "--config", cfg_file])
        assert dir_digest(a) == dir_digest(b)  # the echo too: it records seed 5


class TestPipeline:
    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ws")
        cfg = root / "fast.ini"
        cfg.write_text(FAST_CONFIG, encoding="utf-8")
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
        model, letters = load_checkpoint(workspace / "run" / "best.ckpt")
        model.classifier.weight.data *= 400.0
        model.classifier.bias.data *= 400.0
        ckpt = tmp_path / "sharp.ckpt"
        save_checkpoint(model, ckpt, letters)

        out_g, out_b = tmp_path / "g", tmp_path / "b"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--decoder", "greedy", "--out", str(out_g)]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--decoder", "beam", "--beam-width", "1", "--out", str(out_b)]) == 0
        greedy_lines = (out_g / "report.tsv").read_text(encoding="utf-8")
        beam_lines = (out_b / "report.tsv").read_text(encoding="utf-8")
        assert greedy_lines == beam_lines

    def test_decode_prints_a_letter_string(self, workspace, capsys):
        data, ckpt = workspace / "data", workspace / "run" / "best.ckpt"
        clip = (data / "dev.index").read_text(encoding="utf-8").splitlines()[0].split("\t")[0]
        assert main(["decode", "--ckpt", str(ckpt), "--clip", str(data / clip)]) == 0
        printed = capsys.readouterr().out.strip()
        assert set(printed) <= set("abcde")

    def test_ablate_prints_and_writes_the_table(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "one_epoch.ini"
        cfg.write_text(FAST_CONFIG.replace("epochs = 2", "epochs = 1"), encoding="utf-8")
        out = tmp_path / "abl"
        assert main(["ablate", "--data", str(workspace / "data"), "--config", str(cfg),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        header, *rows = printed.splitlines()
        assert header.split() == ["setting", "greedy", "beam", "beam-lm"]
        assert [row.split()[0] for row in rows] == ["ctc", "ctc+mel", "ctc+flip", "ctc+mel+flip"]
        assert all(len(row.split()) == 4 for row in rows)
        assert (out / "ablation.txt").read_text(encoding="utf-8") == printed
        assert "epochs = 1" in (out / "config.resolved.ini").read_text(encoding="utf-8")

    def test_eval_beam_lm(self, workspace, tmp_path, capsys):
        data, ckpt = workspace / "data", workspace / "run" / "best.ckpt"
        corpus = tmp_path / "corpus.txt"
        words = [line.split("\t")[1] for line in (data / "train.index").read_text(encoding="utf-8").splitlines()]
        corpus.write_text("\n".join(words) + "\n", encoding="utf-8")
        lm_path = tmp_path / "model.charlm"
        assert main(["lm-train", "--corpus", str(corpus), "--order", "2",
                     "--out", str(lm_path)]) == 0
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--decoder", "beam-lm",
                     "--lm", str(lm_path), "--alpha", "0.2"]) == 0
        assert "mean letter accuracy" in capsys.readouterr().out


class TestLmTrainCommand:
    def test_round_trip(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("ab\nba\nab\n", encoding="utf-8")
        out = tmp_path / "m.charlm"
        assert main(["lm-train", "--corpus", str(corpus), "--order", "1", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("CHARLM v1 order=1")

    @pytest.mark.parametrize("line, char", [("·ab", "'·'"), ("a\tb", "'\\t'")], ids=["marker", "tab"])
    def test_reserved_character_is_one_error_line(self, tmp_path, capsys, line, char):
        """A CHARLM v1 file cannot hold its empty-context marker or its field separator."""
        corpus = tmp_path / "c.txt"
        corpus.write_text(f"ab\n{line}\nba\n", encoding="utf-8")
        out = tmp_path / "m.charlm"
        assert main(["lm-train", "--corpus", str(corpus), "--order", "2", "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err == f"error: language model corpus holds the reserved character {char}\n"
        assert not out.exists()

    def test_corpus_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_bytes(b"ab\n\xffba\n")
        out = tmp_path / "m.charlm"
        assert main(["lm-train", "--corpus", str(corpus), "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(f"error: {corpus} is not UTF-8 text: ") and err.count("\n") == 1
        assert "can't decode byte 0xff" in err and not out.exists()


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
        save_checkpoint(Recognizer(cfg, seed=0), ckpt, ABCDE)
        write_tensor(clip, np.random.default_rng(0).random((4, 3, 16, 16)))
        return ["decode", "--ckpt", str(ckpt), "--clip", str(clip)]

    @pytest.mark.parametrize("shape, fill", [((4, 16, 16), 0.5), ((0, 3, 16, 16), 0.5), ((4, 3, 16, 16), float("nan")),
                                             ((4, 3, 16, 16), 255.0), ((4, 3, 16, 16), -1.0)],
                             ids=["rank-3", "zero-frames", "all-nan", "above-1", "below-0"])
    def test_decode_rejects_malformed_clip_naming_the_file(self, decode_files, shape, fill, capsys):
        import numpy as np

        from ctcseq.data import write_tensor

        write_tensor(Path(decode_files[4]), np.full(shape, fill))
        assert main(decode_files) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "clip.tnsr" in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("shape, fill", [((4, 32, 32), 0.5), ((0, 3, 32, 32), 0.5), ((4, 3, 32, 32), float("nan")),
                                             ((4, 3, 32, 32), 255.0), ((4, 3, 32, 32), -1.0)],
                             ids=["rank-3", "zero-frames", "all-nan", "above-1", "below-0"])
    def test_dataset_with_malformed_clip_names_index_line_and_file(self, decode_files, cfg_file, tmp_path, capsys,
                                                                   command, shape, fill):
        import numpy as np

        from ctcseq.data import GenConfig, save_dataset, synthesize, write_tensor

        data = tmp_path / "data"
        save_dataset(synthesize(0, 12, Alphabet(tuple("abcde")), GenConfig(frame_size=32, n_signers=5)), data)
        write_tensor(data / "clips" / "train_00000.tnsr", np.full(shape, fill))
        args = {"train": ["train", "--data", str(data), "--config", cfg_file, "--out", str(tmp_path / "run")],
                "eval": ["eval", "--ckpt", decode_files[2], "--data", str(data)]}[command]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "train.index line 1: clip " in err and "train_00000.tnsr" in err

    @pytest.mark.parametrize("content, message", [
        (b"aab\n", "alphabet letters must be distinct"),
        (b"", "alphabet must contain at least one letter"),
        (b"\xffabc\n", "can't decode byte 0xff"),
        (b"a\x0bb\n", "alphabet letters must be single printable characters, not a space or '·': '\\x0b'"),
    ], ids=["repeated", "empty", "not-utf8", "vertical-tab"])
    def test_malformed_alphabet_names_the_file(self, cfg_file, tmp_path, capsys, content, message):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        data = tmp_path / "data"
        save_dataset(synthesize(0, 12, Alphabet(tuple("abcde")), GenConfig(frame_size=16, n_signers=5)), data)
        (data / "alphabet.txt").write_bytes(content)
        assert main(["train", "--data", str(data), "--config", cfg_file, "--out", str(tmp_path / "run")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert f"{data / 'alphabet.txt'}: " in err and message in err

    def test_eval_rejects_non_finite_checkpoint(self, decode_files, tmp_path, capsys):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        ckpt = Path(decode_files[2])
        manifest, payload = checkpoint_parts(ckpt.read_bytes())
        nan = bytes.fromhex("000000000000f87f")  # a little-endian float64 NaN
        ckpt.write_bytes(sealed_checkpoint(manifest, payload[:-8] + nan))
        save_dataset(synthesize(0, 6, Alphabet(tuple("abcde")), GenConfig(frame_size=16)), tmp_path / "data")
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: non-finite value in parameter 'classifier.bias' of checkpoint {ckpt}\n"

    def test_model_too_large_to_allocate_is_one_error_line(self, tmp_path, capsys):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        save_dataset(synthesize(0, 6, Alphabet(tuple("abcde")), GenConfig(frame_size=16)), tmp_path / "data")
        cfg = tmp_path / "huge.ini"
        # each refiner matrix needs 1.11 EiB, more than any address space, so the allocation fails at once
        cfg.write_text("[model]\nfeat_grid = 20000x20000\n", encoding="utf-8")
        code = main(["train", "--data", str(tmp_path / "data"), "--config", str(cfg), "--out", str(tmp_path / "run")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_decode_beam_lm_without_lm(self, decode_files, capsys):
        assert main(decode_files + ["--decoder", "beam-lm"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_decode_prints_the_checkpoints_letters(self, decode_files, capsys):
        from ctcseq.model import load_checkpoint, save_checkpoint

        ckpt = Path(decode_files[2])
        model, _ = load_checkpoint(ckpt)
        model.classifier.bias.data[0] = 5.0  # every frame's argmax is the first letter
        save_checkpoint(model, ckpt, Alphabet(tuple("vwxyz")))
        assert main(decode_files) == 0
        assert capsys.readouterr().out == "v\n"
        with pytest.raises(SystemExit) as exc:
            main(decode_files + ["--alphabet", "vwxyz"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alphabet vwxyz" in capsys.readouterr().err

    def test_eval_rejects_dataset_alphabet_of_wrong_size(self, decode_files, tmp_path, capsys):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        for letters in ("xyz", "abcde"):
            save_dataset(synthesize(0, 6, Alphabet(tuple(letters)), GenConfig(frame_size=16)), tmp_path / letters)
        assert main(["eval", "--ckpt", decode_files[2], "--data", str(tmp_path / "xyz")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "letters 'xyz'" in err and "has 'abcde'" in err
        assert main(["eval", "--ckpt", decode_files[2], "--data", str(tmp_path / "abcde")]) == 0

    def test_eval_rejects_dataset_with_other_letters(self, decode_files, tmp_path, capsys):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        data = tmp_path / "vwxyz"
        save_dataset(synthesize(0, 6, Alphabet(tuple("vwxyz")), GenConfig(frame_size=16)), data)
        assert main(["eval", "--ckpt", decode_files[2], "--data", str(data)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: the dataset in {data} has letters 'vwxyz', "
                                     f"but the checkpoint {decode_files[2]} has 'abcde'\n")

    def test_train_divergence_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(FAST_CONFIG.replace("[train]\n", "[train]\nlr = 1e6\n"), encoding="utf-8")
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--n-clips", "40", "--out", str(data), "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(run)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: non-finite gradient at epoch 1") and err.count("\n") == 1
        assert (run / "diagnostic_dump.txt").read_text(encoding="utf-8").startswith("offending batch:")
        assert "lr = 1000000.0\n" in (run / "config.resolved.ini").read_text(encoding="utf-8")

    def test_train_on_empty_dev_partition_is_one_error_line(self, tmp_path, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["synth", "--n-clips", "3", "--out", str(data)]) == 0
        assert "train/dev/test = 2/0/1" in capsys.readouterr().out
        assert main(["train", "--data", str(data), "--out", str(run)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: cannot train: the dev partition is empty (2 train clips, 0 dev clips)\n"
        assert not (run / "best.ckpt").exists()

    def test_synth_with_one_letter_alphabet_is_one_error_line(self, tmp_path, capsys):
        assert main(["synth", "--n-clips", "4", "--out", str(tmp_path / "d"), "--alphabet", "a"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: synthesis needs an alphabet of at least 2 letters\n"
        assert not (tmp_path / "d").exists()

    def test_eval_on_empty_partition_is_one_error_line(self, decode_files, tmp_path, capsys):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        data = tmp_path / "data"
        save_dataset(synthesize(0, 6, ABCDE, GenConfig(frame_size=16)), data)
        (data / "test.index").write_text("", encoding="utf-8")
        assert main(["eval", "--ckpt", decode_files[2], "--data", str(data), "--split", "test"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: no clips in partition 'test'\n"

    def test_malformed_seed_variable_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CTCSEQ_SEED", "abc")
        assert main(["synth", "--n-clips", "4", "--out", str(tmp_path / "d")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: CTCSEQ_SEED must be an integer: 'abc'\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("how", ["variable", "flag"])
    def test_negative_seed_is_named(self, tmp_path, capsys, monkeypatch, how):
        args = ["synth", "--n-clips", "4", "--out", str(tmp_path / "d")]
        if how == "variable":
            monkeypatch.setenv("CTCSEQ_SEED", "-1")
        else:
            args += ["--seed", "-1"]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be >= 0: -1\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("size, conv", [(4, "1x1"), (16, "4x4")])
    def test_decode_of_a_clip_too_small_for_the_feature_grid_names_the_clip(self, tmp_path, capsys, size, conv):
        import numpy as np

        from ctcseq.data import write_tensor
        from ctcseq.model import ModelConfig, Recognizer, save_checkpoint

        ckpt, clip = tmp_path / "m.ckpt", tmp_path / "clip.tnsr"
        save_checkpoint(Recognizer(ModelConfig(num_classes=5), seed=0), ckpt, ABCDE)
        write_tensor(clip, np.random.default_rng(0).random((4, 3, size, size)))
        assert main(["decode", "--ckpt", str(ckpt), "--clip", str(clip)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: {clip}: input frames too small: {size}x{size} frames give "
                                     f"conv output {conv}, below feature grid 8x8\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_dataset_too_small_for_the_feature_grid_names_the_clip(self, cfg_file, tmp_path, capsys, command):
        from ctcseq.data import GenConfig, save_dataset, synthesize
        from ctcseq.model import ModelConfig, Recognizer, save_checkpoint

        data, ckpt = tmp_path / "data", tmp_path / "m.ckpt"
        save_dataset(synthesize(0, 12, Alphabet(tuple("abcde")), GenConfig(frame_size=16, n_signers=5)), data)
        save_checkpoint(Recognizer(ModelConfig(num_classes=5), seed=0), ckpt, ABCDE)
        args = {"train": ["train", "--data", str(data), "--config", cfg_file, "--out", str(tmp_path / "run")],
                "eval": ["eval", "--ckpt", str(ckpt), "--data", str(data)]}[command]
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert re.fullmatch({"train": r"error: clip \d+: input frames too small: 16x16 frames give conv output 4x4, "
                                      r"below feature grid 6x6\n",
                             "eval": r"error: dev_00000: input frames too small: 16x16 frames give conv output 4x4, "
                                     r"below feature grid 8x8\n"}[command], err)

    def test_synth_rejects_negative_clip_count(self, tmp_path, capsys):
        assert main(["synth", "--n-clips", "-5", "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "n_clips" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("letters, letter", [("ab\rc", "'\\r'"), (" ab", "' '"), ("a\u2028b", "'\\u2028'")],
                             ids=["carriage-return", "space", "line-separator"])
    def test_synth_rejects_a_letter_that_is_not_printable_or_is_a_space(self, tmp_path, capsys, letters, letter):
        assert main(["synth", "--n-clips", "4", "--alphabet", letters, "--out", str(tmp_path / "o")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: alphabet letters must be single printable characters, "
                                     f"not a space or '·': {letter}\n")
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
        ckpt.write_bytes(sealed_checkpoint([], b""))
        assert main(decode_files) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: checkpoint manifest in {ckpt} is not a JSON object\n"

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
        cfg.write_text("[train]\nflip_prob = 2.0\n", encoding="utf-8")
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
        ("data", "frame_size = 0", "frame_size must be >= 1"),
        ("data", "n_signers = 0", "n_signers must be >= 1"),
        ("train", "lm_order = 0", "lm_order must be >= 1: 0"),
        ("data", "words = xyz", "words use letters 'xyz'"),
        ("data", "channels = 4", "unknown config key"),
        ("data", "signer_disjoint = true", "unknown config key"),
        ("model", "encoder_layers = -3", "encoder_layers must be >= 0"),
        # settings that are module constants, as older echoes still carry them
        ("model", "dropout_encoder = 0.3", "unknown config key"),
        ("model", "dropout_attention = 0.1", "unknown config key"),
        ("model", "logit_scale = 8.0", "unknown config key"),
        ("model", "context_window = 5", "unknown config key"),
        ("train", "beta1 = 0.9", "unknown config key"),
        ("train", "beta2 = 0.999", "unknown config key"),
        ("train", "eps = 1e-08", "unknown config key"),
        ("train", "weight_decay = 0.01", "unknown config key"),
        ("train", "grad_clip = 5.0", "unknown config key"),
        ("data", "min_frames_per_letter = 2", "unknown config key"),
        ("data", "background_noise = 0.02", "unknown config key"),
        ("data", "position_jitter = 1.5", "unknown config key"),
        ("data", "max_frames_per_letter = 1", "unknown config key"),
        ("data", "transition_frames = -1", "unknown config key"),
        ("data", "glyph_cells = 0", "unknown config key"),
        # malformed files and values name the file or the key
        ("train", "lr = 1\nlr = 2", "bad.ini' [line 3]: option 'lr' in section 'train' already exists"),
        ("train", "[model", "bad.ini' [line 2]: '[model\\n'"),
        ("train", "lr = %x", "[train] lr: could not convert string to float: '%x'"),
        ("train", "lr = fast", "[train] lr: could not convert string to float: 'fast'"),
        ("model", "feat_grid = 8", "[model] feat_grid: expected two integers, got '8'"),
        # values that compare as in range: nan and inf, a negative fraction whose sum is in (0, 1)
        ("train", "lr = nan", "lr must be positive and finite: nan"),
        ("train", "lr = inf", "lr must be positive and finite: inf"),
        ("data", "train_fraction = -0.5\ndev_fraction = 0.9", "train_fraction must be in [0, 1): -0.5"),
        ("data", "train_fraction = 0.5\ndev_fraction = -0.2", "dev_fraction must be in [0, 1): -0.2"),
        ("data", "train_fraction = 0.6\ndev_fraction = 0.4", "train_fraction + dev_fraction must be in (0, 1)"),
    ])
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, section, line, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n", encoding="utf-8")
        code = main(["synth", "--seed", "1", "--n-clips", "2",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()

    # one out-of-range value for every config key; a new key without one fails the test below
    BAD_VALUES = {
        "model": {"feat_channels": "0", "feat_grid": "0x8", "pooled_grid": "9x9", "embed_dim": "0",
                  "encoder_layers": "-1", "heads": "0", "ffn_hidden": "0", "num_classes": "0"},
        "train": {"lr": "0", "epochs": "0", "mel_weight": "2", "flip_prob": "2", "beam_width": "0", "lm_alpha": "2",
                  "lm_order": "0", "seed": "-1", "batch_size": "0"},
        "data": {"frame_size": "0", "min_letters": "0", "max_letters": "1", "n_signers": "0", "left_handed_rate": "2",
                 "train_fraction": "1", "dev_fraction": "-0.1", "words": "xyz"},
    }

    @pytest.mark.parametrize("section, key", [(section, f.name) for section, cls in SECTIONS.items()
                                              for f in dataclasses.fields(cls)])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {self.BAD_VALUES[section][key]}\n", encoding="utf-8")
        code = main(["synth", "--seed", "1", "--n-clips", "2",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and re.search(rf"\b{key}\b", err), err
        assert not (tmp_path / "o").exists()

    def test_config_directory_is_one_error_line(self, tmp_path, capsys):
        (tmp_path / "cfgdir").mkdir()
        code = main(["synth", "--seed", "1", "--n-clips", "2",
                     "--out", str(tmp_path / "o"), "--config", str(tmp_path / "cfgdir")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "cfgdir" in err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff[train]\nlr = 1e-3\n")
        code = main(["synth", "--seed", "1", "--n-clips", "2",
                     "--out", str(tmp_path / "o"), "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg} is not UTF-8 text: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value, message", [
        (1, "azq", "train.index line 1: letter 'z' of 'azq' is not in alphabet.txt"),
        (3, None, "train.index line 1: expected 4 tab-separated fields, got 3"),
        (3, "both", "train.index line 1: handedness must be left or right, got 'both'"),
        (1, "", "train.index line 1: empty target word"),
    ], ids=["letter", "fields", "handedness", "empty-word"])
    def test_malformed_index_line_names_file_and_line(self, tmp_path, cfg_file, capsys, field, value, message):
        from ctcseq.data import GenConfig, save_dataset, synthesize

        data = tmp_path / "data"
        save_dataset(synthesize(0, 12, Alphabet(tuple("abcde")), GenConfig(frame_size=32, n_signers=5)), data)
        index = data / "train.index"
        lines = index.read_text(encoding="utf-8").splitlines()
        fields = lines[0].split("\t")
        if value is None:
            del fields[field]
        else:
            fields[field] = value
        index.write_text("\n".join(["\t".join(fields), *lines[1:]]) + "\n", encoding="utf-8")
        assert main(["train", "--data", str(data), "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert message in err
