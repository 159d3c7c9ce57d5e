"""Command-line entry point: synth, train, eval, decode, lm-train, ablate.

Every command validates its configuration before touching the filesystem
and writes outputs only under its --out path; synth, train and ablate drop
a fully resolved config echo next to what they write. The CTCSEQ_SEED
environment variable overrides the seed everywhere one is used.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import decoder as dec
from .autodiff import no_grad
from .config import default_config, load_config, save_config
from .ctc import Alphabet
from .data import load_dataset, read_clip, read_utf8, save_dataset, synthesize
from .lm import lm_train, load_lm, save_lm
from .model import Recognizer, load_checkpoint
from .training import TrainConfig, TrainingDiverged, ablate, evaluate, forward_frames, train

def _load_configs(path: str | None, seed_flag: int | None = None) -> dict:
    """The configs of ``path``, seeded by CTCSEQ_SEED, else ``seed_flag``, else the file."""
    configs = load_config(path) if path else default_config()
    env = os.environ.get("CTCSEQ_SEED")
    try:
        seed = int(env) if env else seed_flag if seed_flag is not None else configs["train"].seed
    except ValueError:
        raise ValueError(f"CTCSEQ_SEED must be an integer: {env!r}") from None
    configs["train"] = dataclasses.replace(configs["train"], seed=seed)
    return configs


def _training_inputs(args):
    """The configs and dataset of ``args``, the classifier sized to the dataset's letters."""
    configs = _load_configs(args.config)
    split = load_dataset(args.data)
    configs["model"] = dataclasses.replace(configs["model"], num_classes=len(split.alphabet.letters))
    return configs, split


def _cmd_synth(args) -> int:
    configs = _load_configs(args.config, args.seed)
    alphabet = Alphabet(tuple(args.alphabet))
    seed = configs["train"].seed
    split = synthesize(seed, args.n_clips, alphabet, configs["data"])
    out = Path(args.out)
    save_dataset(split, out)
    save_config(configs, out / "config.resolved.ini")
    sizes = {name: len(clips) for name, clips in split.partitions().items()}
    print(f"wrote {args.n_clips} clips to {out} (train/dev/test = "
          f"{sizes['train']}/{sizes['dev']}/{sizes['test']}, seed {seed})")
    return 0


def _cmd_train(args) -> int:
    configs, split = _training_inputs(args)
    out = Path(args.out)
    model = Recognizer(configs["model"], seed=configs["train"].seed)
    save_config(configs, out / "config.resolved.ini")  # before train(), so a diverged run keeps its echo
    result = train(model, split, configs["train"], out_dir=out)
    print(f"best dev accuracy {result.best_dev_acc:.4f} at epoch {result.best_epoch}; "
          f"checkpoint at {out / 'best.ckpt'}")
    return 0


def _cmd_eval(args) -> int:
    model, letters = load_checkpoint(args.ckpt)
    split = load_dataset(args.data)
    if split.alphabet != letters:
        raise ValueError(f"the dataset in {args.data} has letters {''.join(split.alphabet.letters)!r}, "
                         f"but the checkpoint {args.ckpt} has {''.join(letters.letters)!r}")
    clips = split.partitions()[args.split]
    if not clips:
        raise ValueError(f"no clips in partition {args.split!r}")
    lm = load_lm(args.lm) if args.lm else None
    report = evaluate(
        model, clips, decoder=args.decoder, beam_width=args.beam_width,
        lm=lm, alpha=args.alpha, alphabet=split.alphabet, prefix=args.split,
    )
    print(report.to_table(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.tsv").write_text(report.to_lines(), encoding="utf-8")
        (out / "report.txt").write_text(report.to_table(), encoding="utf-8")
    return 0


def _cmd_decode(args) -> int:
    model, letters = load_checkpoint(args.ckpt)
    with no_grad():
        dist = forward_frames(model, read_clip(args.clip), name=args.clip)
    lm = load_lm(args.lm) if args.lm else None
    pred = dec.decode(dist, args.decoder, args.beam_width, lm, args.alpha, letters)
    print(letters.decode(pred))
    return 0


def _cmd_lm_train(args) -> int:
    lines = [ln.strip() for ln in read_utf8(Path(args.corpus)).splitlines()]
    corpus = [ln for ln in lines if ln]
    model = lm_train(corpus, order=args.order, smoothing_alpha=args.smoothing_alpha)
    save_lm(model, args.out)
    print(f"trained order-{args.order} model on {len(corpus)} sequences -> {args.out}")
    return 0


def _cmd_ablate(args) -> int:
    configs, split = _training_inputs(args)
    table = ablate(split, configs["train"], configs["model"])
    print(table.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "ablation.txt").write_text(table.to_text(), encoding="utf-8")
        save_config(configs, out / "config.resolved.ini")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctcseq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=None, help="default: the [train] seed of --config, else 0")
    p.add_argument("--n-clips", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--alphabet", default="abcde")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train a recognizer")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_train)

    decoding = argparse.ArgumentParser(add_help=False)  # the options eval and decode share
    decoding.add_argument("--ckpt", required=True)
    decoding.add_argument("--decoder", choices=dec.DECODERS, default="greedy")
    decoding.add_argument("--beam-width", type=int, default=TrainConfig.beam_width)
    decoding.add_argument("--lm", default=None)
    decoding.add_argument("--alpha", type=float, default=TrainConfig.lm_alpha)

    p = sub.add_parser("eval", parents=[decoding], help="evaluate a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "dev", "test"), default="dev")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("decode", parents=[decoding], help="decode a single clip container")
    p.add_argument("--clip", required=True)
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("lm-train", help="train a character n-gram model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", type=int, default=TrainConfig.lm_order)
    p.add_argument("--smoothing-alpha", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_lm_train)

    p = sub.add_parser("ablate", help="run the loss/augmentation ablation")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
