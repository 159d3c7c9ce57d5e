"""The benchmark's workloads, their inputs, correctness checks and metrics.

Every workload runs the same two measured phases, so every end-to-end
metric is measured on every workload:

- train: rounds of ``training.train`` on a fixed clip set, each round on a
  fresh model built from the same seed, so ``train_loss`` must repeat bit
  for bit;
- eval: one ``training.evaluate`` call per clip and decoder over a fixed
  list of held-out clips, in whole passes while time remains.

The workloads differ in clip geometry, alphabet, epochs and the share of
the time each phase gets (see ``SPECS`` and README.md).
"""
from __future__ import annotations

import json
import math
import resource
import statistics
import string
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from weakref import WeakSet

import numpy as np

from ctcseq import data, decoder, lm as lm_mod, training
from ctcseq.ctc import Alphabet
from ctcseq.data import DatasetSplit, GenConfig
from ctcseq.model import ModelConfig, Recognizer

import tracing

DECODERS = ("greedy", "beam", "beam-lm")
SETUP_REPS = 3
# Model initialisation, shuffling, beam width and LM settings come from the
# default TrainConfig; --seed changes only the synthesized clips.
TRAIN_CONFIG = training.TrainConfig()
LOGSUMEXP_TOL = 1e-9


@dataclass(frozen=True)
class Spec:
    """One workload. Clip counts are per letter count in ``letters_range``,
    so every seed gets the same mix of clip lengths."""

    letters: str
    frame_size: int
    letters_range: tuple[int, int]
    train_per_len: int
    dev_per_len: int  # train()'s own per-epoch greedy dev pass
    eval_per_len: int  # 100 or more eval clips give decode_ms_p90 ten samples above it
    epochs: int
    rounds: int  # train() rounds per pass, each followed by 1/rounds of the eval clips
    eval_trained: bool  # decode evaluates the untrained model
    trace_eval_clips: int

    @property
    def lengths(self) -> range:
        return range(self.letters_range[0], self.letters_range[1] + 1)


SPECS = {
    "train": Spec("abcde", 64, (2, 4), train_per_len=16, dev_per_len=4,
                  eval_per_len=34, epochs=2, rounds=5, eval_trained=True, trace_eval_clips=21),
    "train_long": Spec(string.ascii_lowercase, 32, (8, 12), train_per_len=4,
                       dev_per_len=1, eval_per_len=20, epochs=2, rounds=5, eval_trained=True,
                       trace_eval_clips=10),
    "decode": Spec(string.ascii_lowercase, 32, (6, 10), train_per_len=4,
                   dev_per_len=1, eval_per_len=20, epochs=1, rounds=8, eval_trained=False,
                   trace_eval_clips=10),
}


def tiny(spec: Spec) -> Spec:
    """The same workload with one clip of each kind per length (smoke test)."""
    return replace(spec, train_per_len=1, dev_per_len=1, eval_per_len=1, rounds=2,
                   trace_eval_clips=2)


@dataclass
class Inputs:
    alphabet: Alphabet
    split: DatasetSplit  # train clips plus the small dev set train() scores
    eval_clips: list
    model: Recognizer  # untrained
    lm: lm_mod.CharNGramModel
    clip_ids: dict[int, str]


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Synthesize the clips, build the model and train the 3-gram LM.

    Each letter count gets its own ``synthesize`` seed, ``seed * 64 + k``.
    """
    alphabet = Alphabet(tuple(spec.letters))
    train, dev, evals = [], [], []
    n_train, n_dev = spec.train_per_len, spec.dev_per_len
    for k in spec.lengths:
        gen = GenConfig(frame_size=spec.frame_size, min_letters=k, max_letters=k)
        split = data.synthesize(seed * 64 + k, n_train + n_dev + spec.eval_per_len, alphabet, gen)
        clips = split.train + split.dev + split.test
        train += clips[:n_train]
        dev += clips[n_train : n_train + n_dev]
        evals += clips[n_train + n_dev :]
    model = Recognizer(ModelConfig(num_classes=len(spec.letters)), seed=TRAIN_CONFIG.seed)
    lm = lm_mod.lm_train([alphabet.decode(c.target) for c in train], order=TRAIN_CONFIG.lm_order)
    clip_ids = {}
    for role, clips in (("train", train), ("dev", dev), ("eval", evals)):
        for i, clip in enumerate(clips):
            clip_ids[id(clip)] = clip_ids[id(clip.frames)] = f"{role}{i}"
    return Inputs(alphabet, DatasetSplit(train, dev, [], alphabet), evals, model, lm, clip_ids)


# ---------------------------------------------------------------------------
# correctness checks


def collapse_argmax(log_probs: np.ndarray) -> list[int]:
    """The benchmark's own greedy decode: argmax path, merge repeats, drop blank."""
    path = log_probs.argmax(axis=1)
    keep = np.r_[True, path[1:] != path[:-1]] & (path != log_probs.shape[1] - 1)
    return path[keep].tolist()


class Checks:
    """Counts operations and failures; hooks check outputs as they are made.

    An operation is one ``train()`` call (counted once per epoch) or one
    ``evaluate`` call. An exception or any failed check inside it fails it.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._bad = False
        self._patches: list[tuple] = []
        self._watched = WeakSet()

    @contextmanager
    def operation(self, label: str, count: int = 1):
        self._bad = False
        self.attempted += count
        try:
            yield
        except Exception:  # a failed operation is counted and reported, never dropped
            self._note(f"{label}: {traceback.format_exc()}")
        if self._bad:
            self.failed += count

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self._note(message)

    def _note(self, message: str) -> None:
        self._bad = True
        if len(self.errors) < 20:
            self.errors.append(message)

    def watch_model(self, model) -> None:
        """Check that every forward's log-prob rows normalize."""
        if model in self._watched:
            return
        self._watched.add(model)
        forward = model.forward

        def checked_forward(*args, **kwargs):
            dist = forward(*args, **kwargs)
            lp = dist.log_probs.data
            top = lp.max(axis=1)
            lse = top + np.log(np.exp(lp - top[:, None]).sum(axis=1))
            worst = float(np.max(np.abs(lse)))
            self.require(worst <= LOGSUMEXP_TOL, f"forward: log-prob row logsumexp off 0 by {worst}")
            return dist

        model.forward = checked_forward

    def install_decoder_checks(self) -> None:
        """Check every decoded label, and greedy against collapse_argmax."""
        for attr in ("greedy_decode", "beam_decode", "lm_fused_beam_decode"):
            fn = getattr(decoder, attr)
            self._patches.append((attr, fn))
            setattr(decoder, attr, self._checked_decoder(attr, fn))

    def remove_decoder_checks(self) -> None:
        while self._patches:
            attr, fn = self._patches.pop()
            setattr(decoder, attr, fn)

    def _checked_decoder(self, attr, fn):
        def checked(dist, *args, **kwargs):
            pred = fn(dist, *args, **kwargs)
            lp = dist.log_probs.data
            letters = lp.shape[1] - 1
            self.require(all(isinstance(p, int) and 0 <= p < letters for p in pred),
                         f"{attr}: label outside the letters in {pred}")
            if attr == "greedy_decode":
                own = collapse_argmax(lp)
                self.require(pred == own, f"greedy_decode gave {pred}, argmax collapse {own}")
            return pred

        return checked

    def train_result(self, result, spec: Spec, reference_loss: float | None) -> None:
        losses = [r.train_loss for r in result.log]
        self.require(len(losses) == spec.epochs, f"train: {len(losses)} epoch records")
        self.require(all(math.isfinite(v) for v in losses), f"train: non-finite loss in {losses}")
        self.require(result.skipped_clips == 0, f"train: skipped {result.skipped_clips} clips")
        if reference_loss is not None:
            self.require(losses[-1] == reference_loss,
                         f"train: loss {losses[-1]!r} differs from first round {reference_loss!r}")

    def eval_report(self, report, clip) -> None:
        ok = (len(report.per_clip) == 1 and 0.0 <= report.mean_letter_accuracy <= 1.0
              and report.reference_letters == len(clip.target))
        self.require(ok, f"evaluate: malformed report {report.per_clip}")


# ---------------------------------------------------------------------------
# measured phases


_PROBE_MATRIX = np.random.default_rng(0).random((64, 64)) / 64.0


def host_probe() -> float:
    """Seconds taken by a fixed piece of work that does not touch ctcseq:
    numpy scalar calls from a Python loop, as in beam search, and small
    matrix products with element-wise ops, as in the network.

    Its median is reported beside the metrics (not folded into them): on a
    shared host it shows when a whole run ran in a faster or slower spell.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float(np.logaddexp(i * 1e-3, 0.5))
    m = _PROBE_MATRIX
    for _ in range(200):
        m = np.tanh(m @ _PROBE_MATRIX + acc * 1e-9)
    return time.perf_counter() - start


class Samples:
    """What the measured calls produced: round times, train results,
    per-decoder evaluate latencies, and a host probe before each round and
    each eval block."""

    def __init__(self):
        self.round_s: list[float] = []
        self.results: list = []
        self.eval_s = {d: [] for d in DECODERS}
        self.probe_s: list[float] = []


def train_round(spec, inputs, checks, samples, instrument=None):
    """One ``train()`` on a fresh model; returns the model, or None when
    ``train()`` raised."""
    cfg = replace(TRAIN_CONFIG, epochs=spec.epochs)
    model = Recognizer(inputs.model.cfg, seed=cfg.seed)
    checks.watch_model(model)
    if instrument is not None:
        instrument(model)
    samples.probe_s.append(host_probe())
    with checks.operation("train", count=spec.epochs):
        start = time.perf_counter()
        try:
            result = training.train(model, inputs.split, cfg)
        finally:
            samples.round_s.append(time.perf_counter() - start)
        first = samples.results[0].log[-1].train_loss if samples.results else None
        checks.train_result(result, spec, first)
        samples.results.append(result)
        return model
    return None


def eval_block(model, inputs, clips, checks, samples):
    """One ``evaluate`` call per clip and decoder."""
    cfg = TRAIN_CONFIG
    checks.watch_model(model)
    samples.probe_s.append(host_probe())
    for i, clip in enumerate(clips):
        for name in DECODERS:
            with checks.operation(f"evaluate {name}"):
                start = time.perf_counter()
                try:
                    report = training.evaluate(
                        model, [clip], decoder=name, beam_width=cfg.beam_width, lm=inputs.lm,
                        alpha=cfg.lm_alpha, alphabet=inputs.alphabet, prefix=f"eval{i}",
                    )
                finally:
                    samples.eval_s[name].append(time.perf_counter() - start)
                checks.eval_report(report, clip)


def measured_pass(spec, inputs, checks, samples, clip_blocks, instrument=None):
    """Alternate train rounds with eval blocks, so that each metric's samples
    spread over the whole pass and slow spells of a shared machine hit all
    of them alike."""
    for block in clip_blocks:
        trained = train_round(spec, inputs, checks, samples, instrument)
        model = trained if spec.eval_trained and trained is not None else inputs.model
        if instrument is not None and model is inputs.model:
            instrument(model)
        eval_block(model, inputs, block, checks, samples)


def _warm_up(inputs, checks):
    """One evaluate per decoder, so lazy set-up is not timed."""
    eval_block(inputs.model, inputs, inputs.eval_clips[:1], checks, Samples())


def run_end_to_end(spec, seed, seconds, checks):
    setup_times, inputs = [], None
    for _ in range(SETUP_REPS):
        inputs = None  # free the previous inputs, so peak memory holds one set
        start = time.perf_counter()
        inputs = make_inputs(spec, seed)
        setup_times.append(time.perf_counter() - start)
    _warm_up(inputs, checks)

    # block i takes every rounds-th clip, so each block mixes all lengths
    blocks = [inputs.eval_clips[i :: spec.rounds] for i in range(spec.rounds)]
    samples = Samples()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() + (time.perf_counter() - start) / passes <= start + seconds:
        measured_pass(spec, inputs, checks, samples, blocks)
        passes += 1

    clips_per_round = len(inputs.split.train) * spec.epochs
    losses = [r.log[-1].train_loss for r in samples.results]
    ev = samples.eval_s
    latency_ms = np.array(ev["beam-lm"]) * 1000.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "train_clips_per_s": (statistics.median(clips_per_round / t for t in samples.round_s), "1/s"),
        "train_loss": (losses[0] if losses else 0.0, "nat"),
        "eval_greedy_clips_per_s": (len(ev["greedy"]) / sum(ev["greedy"]), "1/s"),
        "eval_beam_clips_per_s": (len(ev["beam"]) / sum(ev["beam"]), "1/s"),
        "eval_beam_lm_clips_per_s": (len(ev["beam-lm"]) / sum(ev["beam-lm"]), "1/s"),
        "decode_ms_p50": (float(np.percentile(latency_ms, 50)), "ms"),
        "decode_ms_p90": (float(np.percentile(latency_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "passes": passes,
        "setup_s_samples": setup_times,
        "train_rounds": len(samples.round_s),
        "train_clips_per_round": clips_per_round,
        "train_round_s": samples.round_s,
        "train_losses": [repr(v) for v in losses],
        "eval_clips": len(inputs.eval_clips),
        "eval_samples": {d: len(v) for d, v in ev.items()},
        "decode_ms_samples": len(latency_ms),
        "decode_ms_p90_samples_above": int((latency_ms > metrics["decode_ms_p90"][0]).sum()),
        "host_probe_ms": 1000.0 * statistics.median(samples.probe_s),
    }
    return metrics, info


def run_traced(spec, seed, checks):
    """Per-layer metrics from one train round and one eval block of
    ``trace_eval_clips`` clips, run untraced, traced, and untraced again;
    then the isolated stage vjps. The wrappers exist only during the
    traced pass."""
    inputs = make_inputs(spec, seed)
    _warm_up(inputs, checks)
    blocks = [inputs.eval_clips[: spec.trace_eval_clips]]

    def one_pass(instrument=None):
        samples = Samples()
        start = time.perf_counter()
        measured_pass(spec, inputs, checks, samples, blocks, instrument)
        return time.perf_counter() - start, samples

    untraced_s, _ = one_pass()
    tracer = tracing.Tracer(inputs.clip_ids)
    tracer.install()
    tracer.instrument_lm(inputs.lm)
    try:
        traced_setup = make_inputs(spec, seed)
        traced_s, traced = one_pass(tracer.instrument_model)
    finally:
        tracer.remove()
    # untraced on both sides of the traced pass, so drift does not count as overhead
    untraced_s = (untraced_s + one_pass()[0]) / 2.0
    n_synth = len(traced_setup.split.train) + len(traced_setup.split.dev) + len(traced_setup.eval_clips)
    vjp_s, vjp_flops = tracing.stage_vjp(inputs.model, inputs.split.train[:4])
    metrics, info = layer_metrics(tracer, n_synth, vjp_s, vjp_flops)
    metrics["trace_overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    metrics["training.skipped_clips"] = (sum(r.skipped_clips for r in traced.results), "count")
    info.update(untraced_s=untraced_s, traced_s=traced_s)
    return metrics, info, tracer


def layer_metrics(tracer, n_synthesized, vjp_s, vjp_flops):
    spans = tracer.spans
    names = [s[0] for s in spans]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def parent_name(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    def total(name, parent=None):
        return sum(dur(i) for i, n in enumerate(names)
                   if n == name and (parent is None or parent_name(i) == parent))

    def count(name, parent=None):
        return sum(1 for i, n in enumerate(names)
                   if n == name and (parent is None or parent_name(i) == parent))

    def per(seconds, n):
        return 1000.0 * seconds / n if n else 0.0

    forwards = count("model.forward")
    steps_clip = count("losses.combined")
    steps = count("autodiff.backward")
    epochs = count("training.evaluate", parent="training.train")
    trains = [i for i, n in enumerate(names) if n == "training.train"]
    train_s = sum(dur(i) for i in trains)
    covered_s = sum(dur(i) for i in range(len(spans)) if spans[i][3] in trains)
    dev_s = total("training.evaluate", parent="training.train")
    lm_clips = count("decoder.beam_lm")
    decoded = count("decoder.greedy") + count("decoder.beam") + lm_clips
    conv_fwd_s = total("model.conv_stack")
    pool_embed_s = (total("model.apply_attention") + total("model.embed")
                    + total("model.adaptive_pool", parent="model.forward"))

    m = {
        "data.synthesize_ms": per(total("data.synthesize"), n_synthesized),
        "data.normalize_ms": per(total("data.normalize"), forwards),
        "data.flip_ms": per(total("data.flip"), steps_clip),
        "model.motion_prior_ms": per(total("model.motion_prior"), forwards),
        "model.forward_ms": per(total("model.forward"), forwards),
    }
    for stage in tracing.STAGES:
        fwd = pool_embed_s if stage == "pool_embed" else total(f"model.{stage}")
        m[f"model.{stage}.fwd_ms"] = per(fwd, forwards)
        m[f"model.{stage}.vjp_ms"] = 1000.0 * vjp_s[stage]
    m["model.conv_stack.graph_vjp_ms"] = per(tracer.counters["model.conv_stack.graph_vjp.s"], steps_clip)
    m["model.conv_stack.fwd_gflop_per_s"] = tracer.counters["model.conv_stack.fwd_flop"] / conv_fwd_s / 1e9
    m["model.conv_stack.vjp_gflop_per_s"] = vjp_flops / vjp_s["conv_stack"] / 1e9
    m.update({
        "ctc.loss_ms": per(total("ctc.loss"), steps_clip),
        "ctc.vjp_ms": per(total("ctc.vjp"), steps_clip),
        "losses.mel_ms": per(total("losses.mel"), steps_clip),
        "losses.combined_ms": per(total("losses.combined"), steps_clip),
        "autodiff.backward_ms": per(total("autodiff.backward"), steps),
        "training.adamw_step_ms": per(total("training.adamw_step"), steps),
        "training.clip_grad_norm_ms": per(total("training.clip_grad_norm"), steps),
        "training.dev_eval_ms": per(dev_s, epochs),
        "training.loop_self_ms": per(train_s - covered_s, steps_clip),
        "training.step_ms": per(train_s - dev_s, steps_clip),
        "training.attributed_pct": 100.0 * covered_s / train_s,
        "decoder.greedy_ms": per(total("decoder.greedy"), count("decoder.greedy")),
        "decoder.beam_ms": per(total("decoder.beam"), count("decoder.beam")),
        "decoder.beam_lm_ms": per(total("decoder.beam_lm"), lm_clips),
        "lm.cond_prob_ms": per(tracer.counters["lm.cond_prob.s"], lm_clips),
        "lm.cond_prob_calls": tracer.counters["lm.cond_prob.calls"] / lm_clips,
        "metrics.evaluate_clips_ms": per(total("metrics.evaluate_clips"), decoded),
    })
    info = {"spans": len(spans), "forwards": forwards, "train_clip_steps": steps_clip,
            "optimizer_steps": steps, "epochs": epochs, "beam_lm_clips": lm_clips}
    return {k: (v, _unit(k)) for k, v in m.items()}, info


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    return "count"


def run(workload: str, seed: int, seconds: int, trace: bool, small: bool, out_dir: Path):
    """Run one workload; returns the result object for the last stdout line
    and a report with the samples and counts behind it."""
    spec = tiny(SPECS[workload]) if small else SPECS[workload]
    checks = Checks()
    checks.install_decoder_checks()
    try:
        if trace:
            metrics, info, tracer = run_traced(spec, seed, checks)
        else:
            metrics, info = run_end_to_end(spec, seed, seconds, checks)
            tracer = None
    finally:
        checks.remove_decoder_checks()
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")
    return result, {"info": info, "errors": checks.errors}
