#!/usr/bin/env python3
"""Run the loss/augmentation ablation on a synthetic dataset with the
documented left-handed imbalance and print the 4 x 3 accuracy table,
optionally averaged over seeds."""
from __future__ import annotations

import argparse

from ctcseq.ctc import Alphabet
from ctcseq.data import GenConfig, synthesize
from ctcseq.decoder import DECODERS
from ctcseq.model import ModelConfig
from ctcseq.training import AblationTable, TrainConfig, ablate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--n-clips", type=int, default=170)
    parser.add_argument("--epochs", type=int, default=8)
    args = parser.parse_args()

    alphabet = Alphabet(tuple("abcde"))
    gen = GenConfig(
        train_fraction=0.70,
        dev_fraction=0.20,
        left_handed_rate=0.07,
        words=("ab", "ade", "bce", "cab", "dec", "eda", "bad", "ace"),
    )
    model_cfg = ModelConfig(
        feat_channels=8, feat_grid=(6, 6), pooled_grid=(4, 4), embed_dim=8,
        encoder_layers=2, heads=2, ffn_hidden=16, num_classes=5,
    )
    sums: dict[str, dict[str, float]] = {}
    for seed in args.seeds:
        split = synthesize(900 + seed, args.n_clips, alphabet, gen)
        cfg = TrainConfig(seed=seed, epochs=args.epochs)
        table = ablate(split, cfg, model_cfg)
        print(f"seed {seed}:")
        print(table.to_text())
        for label, cells in table.rows:
            row = sums.setdefault(label, {d: 0.0 for d in DECODERS})
            for name, acc in cells.items():
                row[name] += acc / len(args.seeds)
    print(f"mean over seeds {args.seeds}:")
    print(AblationTable(rows=list(sums.items())).to_text())


if __name__ == "__main__":
    main()
