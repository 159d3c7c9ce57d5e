"""The benchmark's tracer reaches every stage it times.

``bench/tracing.py`` records spans by replacing the names that training and
decoding look up at call time. A change that stops calling one of them (a
cached motion prior, say) would read 0 ms there and still give finite
metrics, so this checks the span and counter counts of a tiny traced run
against the number of forwards, training clips and optimizer steps.
"""
import importlib.util
import math
from collections import Counter
from pathlib import Path

from ctcseq import training
from ctcseq.ctc import Alphabet
from ctcseq.data import GenConfig, synthesize
from ctcseq.decoder import DECODERS
from ctcseq.lm import lm_train
from ctcseq.model import ModelConfig, Recognizer
from ctcseq.training import TrainConfig

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
STAGE_SPANS = ("model.conv_stack", "model.spatial", "model.refiner", "model.blend", "model.embed",
               "model.encoder", "model.classifier")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_stage_is_reached():
    alphabet = Alphabet(tuple("abcde"))
    split = synthesize(3, 16, alphabet, GenConfig(frame_size=32, min_letters=2, max_letters=3, n_signers=6))
    cfg = TrainConfig(epochs=1, batch_size=4, flip_prob=1.0)
    model = Recognizer(ModelConfig(num_classes=5), seed=cfg.seed)
    lm = lm_train([alphabet.decode(c.target) for c in split.train], order=cfg.lm_order)
    n_conv = sum(1 for name in model.named_parameters() if name.startswith("extractor.") and name.endswith(".weight"))

    tracer = load_tracing().Tracer({})
    tracer.install()
    tracer.instrument_lm(lm)
    tracer.instrument_model(model)
    try:
        result = training.train(model, split, cfg)  # looked up here, where the tracer replaced it
        for decoder in DECODERS:
            training.evaluate(model, split.dev, decoder=decoder, beam_width=cfg.beam_width, lm=lm,
                              alpha=cfg.lm_alpha, alphabet=alphabet)
    finally:
        tracer.remove()

    clips = len(split.train) - result.skipped_clips
    steps = cfg.epochs * math.ceil(len(split.train) / cfg.batch_size)
    dev_passes = cfg.epochs + len(DECODERS)  # train()'s greedy pass per epoch, then one evaluate per decoder
    forwards = clips + dev_passes * len(split.dev)
    per_forward = ("model.forward", *STAGE_SPANS, "model.apply_attention", "model.motion_prior", "data.normalize")
    per_clip = ("losses.combined", "losses.mel", "ctc.loss", "ctc.vjp", "autodiff.backward", "data.flip")
    expected = Counter({
        **dict.fromkeys(per_forward, forwards),
        "model.adaptive_pool": 2 * forwards,
        **dict.fromkeys(per_clip, clips),
        **dict.fromkeys(("training.adamw_step", "training.clip_grad_norm"), steps),
        "training.train": 1,
        "training.evaluate": dev_passes,
        "metrics.evaluate_clips": dev_passes,
        "decoder.greedy": (cfg.epochs + 1) * len(split.dev),
        "decoder.beam": len(split.dev),
        "decoder.beam_lm": len(split.dev),
    })
    assert Counter(name for name, *_ in tracer.spans) == expected
    assert tracer.counters["model.conv_stack.graph_vjp.calls"] == n_conv * clips
    assert tracer.counters["lm.cond_prob.calls"] == cfg.beam_width * len(split.dev)
    assert tracer.counters["model.conv_stack.fwd_flop"] > 0
