"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line on the real stdout so the run reads as a checklist.

Criterion 5's posterior-value clause is expected to fail: the required
value is unattainable for any frame-factorized 5-frame distribution whose
greedy decode is "oat" (the achievable maximum is 9/16; see
scripts/derive_decoder_example.py). The test asserts the stated value
anyway rather than weakening it.
"""
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from autodiff_reference import finite_difference_check
from beam_reference import greedy_beam_disagreement_example
from ctc_reference import collapse_partition, sequence_probability_bruteforce
from ctcseq.ctc import Alphabet, ctc_loss
from ctcseq.data import GenConfig, normalize, synthesize
from ctcseq.decoder import (
    beam_decode,
    beam_search,
    greedy_decode,
    lm_fused_beam_decode,
)
from ctcseq.lm import EOS, lm_train, load_lm, save_lm
from ctcseq.losses import combined_loss, max_entropy_loss
from ctcseq.metrics import letter_accuracy
from ctcseq.model import ModelConfig, Recognizer, load_checkpoint, motion_prior, save_checkpoint
from ctcseq.training import TrainConfig, ablate, evaluate, train
from conftest import dist_of


def report(number: int, label: str):
    """Print PASS/FAIL for one criterion on the unbuffered real stdout."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:2d} [{status}] {label}", file=sys.__stdout__, flush=True)
            return False

    return _Ctx()


def random_dist(rng, t, cprime):
    probs = rng.random((t, cprime)) + 1e-3
    return probs / probs.sum(axis=1, keepdims=True)


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


def test_criterion_01_ctc_oracle_equivalence():
    with report(1, "CTC forward DP matches brute-force path enumeration (200 instances)"):
        start = time.monotonic()
        rng = np.random.default_rng(1001)
        for _ in range(200):
            t = int(rng.integers(1, 7))
            c = int(rng.integers(1, 4))
            k = int(rng.integers(0, 4))
            probs = random_dist(rng, t, c + 1)
            target = [int(x) for x in rng.integers(0, c, size=k)]
            res = ctc_loss(dist_of(probs), target)
            got = math.exp(-res.loss.item())
            want = sequence_probability_bruteforce(probs, target)
            assert abs(got - want) < 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_collapse_map_partition():
    with report(2, "brute-force masses over all label sequences sum to 1"):
        rng = np.random.default_rng(1002)
        for _ in range(20):
            t = int(rng.integers(1, 5))
            c = int(rng.integers(1, 3))
            probs = random_dist(rng, t, c + 1)
            total = sum(collapse_partition(probs).values())
            assert abs(total - 1.0) < 1e-9


def test_criterion_03_full_model_gradient_check():
    with report(3, "full-model CTC+MEL gradients pass finite differences per group"):
        start = time.monotonic()
        rng = np.random.default_rng(1003)
        model = Recognizer(TOY, seed=33)
        frames = rng.random((3, 3, 24, 24))
        priors = motion_prior(frames, TOY.feat_grid)
        nf = normalize(frames)
        target = [0, 2]

        def f():
            dist = model.forward(nf, priors=priors)
            return combined_loss(dist, target, 0.1).node

        worst = {}
        for name, param in model.named_parameters().items():
            err = finite_difference_check(f, param, 1e-5)
            worst[name] = err
            assert err < 1e-4, f"group {name}: finite-difference error {err:.3e}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_04_beam_exactness():
    with report(4, "exhaustive beam equals brute-force MAP sequence (100 instances)"):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            t = int(rng.integers(1, 5))
            probs = random_dist(rng, t, 3)
            table = collapse_partition(probs)
            map_mass = max(table.values())
            got = tuple(beam_decode(dist_of(probs), 3**t + 5))
            assert table[got] == pytest.approx(map_mass, abs=1e-12)


def test_criterion_05_decoder_example_outputs():
    with report(5, "decoder example: greedy returns 'oat', beam (BW>=5) returns 'cat'"):
        probs, alphabet = greedy_beam_disagreement_example()
        assert alphabet.decode(greedy_decode(dist_of(probs))) == "oat"
        for width in (5, 8, 20):
            assert alphabet.decode(beam_decode(dist_of(probs), width)) == "cat"


def test_criterion_05_decoder_example_posterior_value():
    with report(5, "decoder example: merged posterior of 'cat' equals 0.6"):
        # Unattainable: the maximum over all 5-frame row-stochastic
        # constructions with greedy output "oat" is 9/16 = 0.5625
        # (scripts/derive_decoder_example.py). Asserted as specified.
        probs, alphabet = greedy_beam_disagreement_example()
        p_cat = sequence_probability_bruteforce(probs, alphabet.encode("cat"))
        hyp = beam_search(dist_of(probs), 1000)[0]
        assert abs(math.exp(hyp.log_total) - p_cat) < 1e-9
        assert abs(p_cat - 0.6) < 1e-9, (
            f"P('cat') = {p_cat:.12f}; 0.6 is unreachable (max 9/16), see decisions ledger"
        )


def test_criterion_06_mel_bounds():
    with report(6, "maximum-entropy loss hits its bounds and stays inside them"):
        uniform = dist_of(np.full((5, 8), 1 / 8))
        assert abs(max_entropy_loss(uniform).item()) < 1e-12
        one_hot = np.zeros((4, 8))
        one_hot[:, 3] = 1.0
        spiked = dist_of(one_hot)
        assert abs(max_entropy_loss(spiked).item() - 3.0) < 1e-12
        rng = np.random.default_rng(1006)
        for _ in range(20):
            probs = random_dist(rng, 4, 8)
            mel = max_entropy_loss(dist_of(probs)).item()
            assert 0.0 < mel < 3.0


def test_criterion_07_causality():
    with report(7, "future-frame perturbations never change earlier logits (50 trials)"):
        rng = np.random.default_rng(1007)
        model = Recognizer(TOY, seed=77)
        for _ in range(50):
            t_total = int(rng.integers(2, 7))
            frames = rng.random((t_total, 3, 24, 24))
            priors = motion_prior(frames, TOY.feat_grid)
            base = model.forward(normalize(frames), priors=priors).log_probs.data
            t_cut = int(rng.integers(1, t_total))
            bumped = frames.copy()
            bumped[t_cut:] = rng.random((t_total - t_cut,) + frames.shape[1:])
            out = model.forward(
                normalize(bumped), priors=motion_prior(bumped, TOY.feat_grid)
            ).log_probs.data
            assert np.array_equal(out[:t_cut], base[:t_cut])


def test_criterion_08_end_to_end_learning():
    with report(8, "default config reaches dev letter accuracy >= 0.90 (beam, BW 20)"):
        start = time.monotonic()
        alphabet = Alphabet(tuple("abcde"))
        gen = GenConfig(train_fraction=0.75, dev_fraction=0.15)
        split = synthesize(123, 400, alphabet, gen)
        assert len(split.train) == 300 and len(split.dev) == 60
        cfg = TrainConfig(seed=123)
        model = Recognizer(ModelConfig(num_classes=5), seed=cfg.seed)
        result = train(model, split, cfg)
        rep = evaluate(model, split.dev, decoder="beam", beam_width=cfg.beam_width)
        elapsed = time.monotonic() - start
        assert elapsed < 1800.0, f"end-to-end run took {elapsed:.0f}s"
        assert rep.mean_letter_accuracy >= 0.90, (
            f"dev beam accuracy {rep.mean_letter_accuracy:.4f} "
            f"(greedy-epoch log: {[(r.epoch, round(r.dev_acc_greedy, 3)) for r in result.log]})"
        )


def test_criterion_09_ablation_direction():
    with report(9, "MEL+flip beats plain CTC; beam+LM >= greedy per row (3-seed mean)"):
        alphabet = Alphabet(tuple("abcde"))
        gen = GenConfig(
            train_fraction=0.70,
            dev_fraction=0.20,
            left_handed_rate=0.07,
            words=("ab", "ade", "bce", "cab", "dec", "eda", "bad", "ace"),
        )
        model_cfg = replace(TOY, num_classes=5)
        rows_sum = {label: {d: 0.0 for d in ("greedy", "beam", "beam-lm")}
                    for label in ("ctc", "ctc+mel", "ctc+flip", "ctc+mel+flip")}
        seeds = (0, 1, 2)
        tables = []
        for seed in seeds:
            split = synthesize(900 + seed, 170, alphabet, gen)
            cfg = TrainConfig(seed=seed, epochs=8, batch_size=8)
            table = ablate(split, cfg, model_cfg)
            tables.append(table.to_text())
            for label, cells in table.rows:
                for dec_name, acc in cells.items():
                    rows_sum[label][dec_name] += acc / len(seeds)
        raw = "\n".join(tables)
        full = rows_sum["ctc+mel+flip"]["beam-lm"]
        plain = rows_sum["ctc"]["greedy"]
        assert rows_sum["ctc+mel+flip"]["beam-lm"] >= rows_sum["ctc"]["beam-lm"] - 1e-12, raw
        assert rows_sum["ctc+mel+flip"]["greedy"] >= rows_sum["ctc"]["greedy"] - 1e-12, raw
        for label, cells in rows_sum.items():
            assert cells["beam-lm"] >= cells["greedy"] - 1e-12, f"row {label}:\n{raw}"
        print(f"  averaged table: full={full:.4f} plain={plain:.4f}", file=sys.__stdout__)


def _fused_scores_by_hand(probs, letters, lm, alpha):
    """Independent enumeration of the fusion algebra (scalar math only)."""
    t_total, cprime = probs.shape
    blank = cprime - 1
    beams = {(): (1.0, 0.0)}  # prefix -> (blank mass, nonblank mass)
    for t in range(t_total):
        nxt = {}
        extended = set()
        for prefix, (pb, pnb) in beams.items():
            total = pb + pnb
            b, n = nxt.get(prefix, (0.0, 0.0))
            nxt[prefix] = (b + total * probs[t, blank], n)
            if prefix:
                b, n = nxt.get(prefix, (0.0, 0.0))
                nxt[prefix] = (b, n + pnb * probs[t, prefix[-1]])
            for letter in range(blank):
                base = pb if (prefix and letter == prefix[-1]) else total
                grown = prefix + (letter,)
                b, n = nxt.get(grown, (0.0, 0.0))
                nxt[grown] = (b, n + base * probs[t, letter])
                extended.add(grown)
        beams = {p: m for p, m in nxt.items() if m[0] + m[1] > 0.0}
        norm = sum(pb + pnb for pb, pnb in beams.values())
        scores = {}
        for prefix, (pb, pnb) in beams.items():
            s_b = (pb + pnb) / norm
            if prefix in extended and prefix:
                context = "".join(letters[i] for i in prefix[:-1])
                p_lm = lm.cond_prob(letters[prefix[-1]], context)
                scores[prefix] = (1 - alpha) * s_b + alpha * p_lm
            else:
                scores[prefix] = s_b
    norm = sum(pb + pnb for pb, pnb in beams.values())
    final = {}
    for prefix, (pb, pnb) in beams.items():
        s_b = (pb + pnb) / norm
        word = "".join(letters[i] for i in prefix)
        final[prefix] = (1 - alpha) * s_b + alpha * lm.cond_prob(EOS, word)
    return final


def test_criterion_10_fusion():
    with report(10, "score fusion: alpha=0 degenerates to plain beam; alpha=1 matches hand enumeration"):
        rng = np.random.default_rng(1010)
        alphabet = Alphabet(("a", "b", "c"))
        lm = lm_train(["abc", "bca", "aab"], order=2)
        for _ in range(100):
            probs = random_dist(rng, int(rng.integers(1, 6)), 4)
            width = int(rng.integers(1, 7))
            assert lm_fused_beam_decode(dist_of(probs), width, lm, 0.0, alphabet) == beam_decode(dist_of(probs), width)

        letters = Alphabet(("a", "b"))
        lm2 = lm_train(["ab", "ba", "ab"], order=2, smoothing_alpha=0.5)
        probs = random_dist(np.random.default_rng(77), 3, 3)
        hyps = beam_search(dist_of(probs), 999, lm=lm2, alpha=1.0, alphabet=letters)
        expected = _fused_scores_by_hand(probs, letters.letters, lm2, 1.0)
        assert len(hyps) == len(expected)
        for h in hyps:
            assert abs(h.score - expected[h.prefix]) < 1e-12


def test_criterion_11_letter_accuracy():
    with report(11, "letter accuracy: examples and the clamp at zero"):
        assert letter_accuracy("cat", "cat") == 1.0
        assert letter_accuracy("catsss", "cat") == 0.0
        assert letter_accuracy("xyzxyz", "ab") == 0.0
        assert letter_accuracy("ca", "cat") == pytest.approx(2 / 3)
        # S + D + I can exceed N; accuracy must clamp, never go negative
        assert letter_accuracy(list("aaaaaaaa"), list("b")) == 0.0


def test_criterion_12_determinism_and_round_trips(tmp_path):
    with report(12, "bitwise seed reproducibility and file round-trips"):
        alphabet = Alphabet(tuple("abc"))
        split = synthesize(5, 12, alphabet, GenConfig(frame_size=32, n_signers=5, max_letters=2))
        small = ModelConfig(
            feat_channels=6, feat_grid=(6, 6), pooled_grid=(3, 3), embed_dim=8,
            encoder_layers=1, heads=2, ffn_hidden=16, num_classes=3,
        )
        cfg = TrainConfig(epochs=1, seed=9, batch_size=4)
        r1 = train(Recognizer(small, seed=9), split, cfg)
        r2 = train(Recognizer(small, seed=9), split, cfg)
        assert r1.log[0].train_loss == r2.log[0].train_loss

        model = r1.model
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, alphabet)
        loaded, letters = load_checkpoint(path)
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(loaded, path2, letters)
        assert path.read_bytes() == path2.read_bytes()

        lm = lm_train(["abc", "cab", "bbc"], order=2, smoothing_alpha=0.75)
        lm_path = tmp_path / "model.charlm"
        save_lm(lm, lm_path)
        save_lm(load_lm(lm_path), tmp_path / "model2.charlm")
        assert lm_path.read_bytes() == (tmp_path / "model2.charlm").read_bytes()
