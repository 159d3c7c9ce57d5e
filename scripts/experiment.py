#!/usr/bin/env python3
"""Train an acceptance setup over seeds; print each seed's wall time and dev
letter-accuracy table under the three decoders, then the mean table.

  crit8  the default model and training config (the ctc+mel+flip row) on
         400 clips of 2-4 random letters
  crit9  the four-row ablation of a toy model on 170 clips of 8 words
"""
from __future__ import annotations

import argparse
import time

from ctcseq.ctc import Alphabet
from ctcseq.data import GenConfig, synthesize
from ctcseq.decoder import DECODERS
from ctcseq.lm import lm_train
from ctcseq.model import ModelConfig, Recognizer
from ctcseq.training import ABLATION_ROWS, AblationTable, TrainConfig, ablate, train_and_score

ABCDE = Alphabet(tuple("abcde"))


def crit8(seed: int, epochs: int) -> AblationTable:
    split = synthesize(seed, 400, ABCDE, GenConfig(train_fraction=0.75, dev_fraction=0.15))
    cfg = TrainConfig(seed=seed, epochs=epochs)
    lm = lm_train([ABCDE.decode(c.target) for c in split.train], order=cfg.lm_order)
    model = Recognizer(ModelConfig(num_classes=5), seed)
    return AblationTable([(ABLATION_ROWS[-1][0], train_and_score(model, split, cfg, lm))])


def crit9(seed: int, epochs: int) -> AblationTable:
    gen = GenConfig(train_fraction=0.70, dev_fraction=0.20, left_handed_rate=0.07,
                    words=("ab", "ade", "bce", "cab", "dec", "eda", "bad", "ace"))
    model_cfg = ModelConfig(feat_channels=8, feat_grid=(6, 6), pooled_grid=(4, 4), embed_dim=8,
                            encoder_layers=2, heads=2, ffn_hidden=16, num_classes=5)
    return ablate(synthesize(900 + seed, 170, ABCDE, gen), TrainConfig(seed=seed, epochs=epochs), model_cfg)


SETUPS = {"crit8": (crit8, [123], 20), "crit9": (crit9, [0, 1, 2], 8)}  # (one seed's table, seeds, epochs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--setup", choices=SETUPS, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", help="default: the setup's")
    parser.add_argument("--epochs", type=int, help="default: the setup's")
    args = parser.parse_args()
    run, seeds, epochs = SETUPS[args.setup]
    seeds = seeds if args.seeds is None else args.seeds
    epochs = epochs if args.epochs is None else args.epochs

    sums: dict[str, dict[str, float]] = {}
    for seed in seeds:
        start = time.time()
        table = run(seed, epochs)
        print(f"seed {seed} ({time.time() - start:.0f}s):")
        print(table.to_text())
        for label, cells in table.rows:
            row = sums.setdefault(label, dict.fromkeys(DECODERS, 0.0))
            for name, acc in cells.items():
                row[name] += acc / len(seeds)
    print(f"mean over seeds {seeds}:")
    print(AblationTable(rows=list(sums.items())).to_text())


if __name__ == "__main__":
    main()
