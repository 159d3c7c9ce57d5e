"""Spans around the calls into each ctcseq module, recorded from outside.

The tracer replaces names where they are looked up: module attributes that
``training``, ``losses`` and ``evaluate`` resolve at call time, and
attributes of one ``Recognizer`` or language-model instance (instance
proxies for the sub-stages). ``remove`` restores every replaced name.
Spans stay in memory until the run writes them out.

Stage vector-Jacobian products are timed in isolation by ``stage_vjp``,
through the public ``autodiff.backward(out, grad=seed)`` on leaf inputs
built from real clips, because inside ``backward`` they interleave. The
conv layers' vjps are also summed inside the real backward, where they run
after the rest of the graph and cost more.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from ctcseq import autodiff, data, decoder, losses, training
from ctcseq import model as model_mod
from ctcseq.autodiff import Tensor, no_grad

_MISSING = object()

# Sub-stages reached through Recognizer attributes: (attribute, span name).
_STAGE_ATTRS = (
    ("extractor", "model.conv_stack"),
    ("spatial", "model.spatial"),
    ("refiner", "model.refiner"),
    ("blend_with_prior", "model.blend"),
    ("embed", "model.embed"),
    ("encode", "model.encoder"),
    ("classifier", "model.classifier"),
)

STAGES = ("conv_stack", "spatial", "refiner", "blend", "pool_embed", "encoder", "classifier")


class _Proxy(model_mod.Module):
    """Stands in for a submodule: the same parameters, a traced call."""

    def __init__(self, inner, call):
        self.inner = inner
        self.call = call

    def named_parameters(self, prefix: str = ""):
        return self.inner.named_parameters(prefix)

    def __call__(self, *args, **kwargs):
        return self.call(*args, **kwargs)


def conv_flops(extractor, frames_shape) -> tuple[int, int]:
    """(forward, vjp) multiply-add FLOPs of the conv stack's GEMMs for one
    clip, computed from the tensor shapes.

    The vjp computes every weight gradient, and input gradients for every
    layer but the first (training frames need no gradient).
    """
    t, _, h, w = frames_shape
    fwd = vjp = 0
    convs = [m for m in vars(extractor).values() if isinstance(m, model_mod.Conv2d)]
    for i, conv in enumerate(convs):
        cout, cin, kh, kw = conv.weight.data.shape
        h = (h + 2 * conv.padding - kh) // conv.stride + 1
        w = (w + 2 * conv.padding - kw) // conv.stride + 1
        gemm = 2 * t * h * w * cout * cin * kh * kw
        fwd += gemm
        vjp += gemm if i == 0 else 2 * gemm
    return fwd, vjp


class Tracer:
    """Span recorder plus the name replacements that feed it.

    A span is ``[name, start, end, parent_index, clip_id]``; times come from
    ``time.perf_counter``. ``counters`` holds totals for calls too small and
    numerous to record one span each.
    """

    def __init__(self, clip_ids: dict[int, str]):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.clip: str | None = None
        self._clip_ids = clip_ids  # id(clip) and id(clip.frames) -> clip id
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def wrap(self, name: str, fn, clip_of=None):
        def traced(*args, **kwargs):
            if clip_of is not None:
                clip = self._clip_ids.get(id(clip_of(*args, **kwargs)))
                if clip is not None:
                    self.clip = clip
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.clip]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def _counted(self, name: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[name + ".s"] += time.perf_counter() - start
                counters[name + ".calls"] += 1

        return counted

    # -- installing and removing -----------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Replace the module-level names the training and decoding paths
        look up at call time."""
        t = training
        for mod, attr, name, clip_of in (
            (data, "synthesize", "data.synthesize", None),
            (t, "train", "training.train", None),
            (t, "evaluate", "training.evaluate", None),
            (t, "horizontal_flip", "data.flip", lambda clip: clip),
            (t, "motion_prior", "model.motion_prior", lambda frames, grid: frames),
            (t, "normalize", "data.normalize", None),
            (t, "combined_loss", "losses.combined", None),
            (t, "backward", "autodiff.backward", None),
            (t, "clip_grad_norm", "training.clip_grad_norm", None),
            (t, "evaluate_clips", "metrics.evaluate_clips", None),
            (losses, "max_entropy_loss", "losses.mel", None),
            (decoder, "greedy_decode", "decoder.greedy", None),
            (decoder, "beam_decode", "decoder.beam", None),
            (decoder, "lm_fused_beam_decode", "decoder.beam_lm", None),
            (model_mod, "apply_attention", "model.apply_attention", None),
            (model_mod, "adaptive_pool", "model.adaptive_pool", None),
        ):
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), clip_of))

        traced_loss = self.wrap("ctc.loss", losses.ctc_loss)

        def ctc_loss(*args, **kwargs):
            result = traced_loss(*args, **kwargs)
            node = result.loss
            if node._vjp is not None:  # the graph exists only when training
                node._vjp = self.wrap("ctc.vjp", node._vjp)
            return result

        self._patch(losses, "ctc_loss", ctc_loss)

        conv2d = autodiff.conv2d

        def counted_conv2d(*args, **kwargs):
            node = conv2d(*args, **kwargs)
            if node._vjp is not None:  # the conv vjps run inside autodiff.backward
                node._vjp = self._counted("model.conv_stack.graph_vjp", node._vjp)
            return node

        self._patch(autodiff, "conv2d", counted_conv2d)

        base = t.AdamW
        traced_step = self.wrap("training.adamw_step", base.step)

        class TracedAdamW(base):
            def step(self):
                traced_step(self)

        self._patch(t, "AdamW", TracedAdamW)

    def instrument_model(self, model) -> None:
        """Trace one Recognizer's forward and sub-stages through instance
        attributes; parameter names and order are unchanged."""
        self._patch(model, "forward", self.wrap("model.forward", model.forward))
        for attr, name in _STAGE_ATTRS:
            inner = getattr(model, attr)
            traced = self.wrap(name, inner)
            if attr == "extractor":
                traced = self._count_conv_flops(inner, traced)
            if isinstance(inner, model_mod.Module):
                traced = _Proxy(inner, traced)
            self._patch(model, attr, traced)

    def _count_conv_flops(self, extractor, traced):
        def conv_stack(x):
            self.counters["model.conv_stack.fwd_flop"] += conv_flops(extractor, x.shape)[0]
            return traced(x)

        return conv_stack

    def instrument_lm(self, lm) -> None:
        self._patch(lm, "cond_prob", self._counted("lm.cond_prob", lm.cond_prob))

    def remove(self) -> None:
        while self._patches:
            obj, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    # -- reading the spans ------------------------------------------------

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "clip": c}
            for n, s, e, p, c in self.spans
        ]


def stage_vjp(model, clips, reps: int = 3) -> tuple[dict[str, float], float]:
    """Seconds per clip of each stage's vjp, timed alone, and the conv
    stack's vjp FLOPs per clip.

    Each stage runs forward from fresh leaf tensors holding that clip's real
    activations, then ``autodiff.backward(out, grad=ones)`` is timed. The
    conv stack's input leaf needs no gradient, as in training.
    """
    seconds = defaultdict(float)
    flops = 0
    cfg = model.cfg
    for clip in clips:
        priors = model_mod.motion_prior(clip.frames, cfg.feat_grid)
        frames = Tensor(data.normalize(clip.frames))
        with no_grad():
            features = model.extractor(frames)
            raw = model.spatial(features)
            refined = model.refiner(raw)
            maps = model.blend_with_prior(refined, priors)
            emb = _pool_embed(model, features, maps)
            encoded = model.encode(emb, False, None)
        stages = {
            "conv_stack": lambda: model.extractor(frames),
            "spatial": lambda: model.spatial(_leaf(features)),
            "refiner": lambda: model.refiner(_leaf(raw)),
            "blend": lambda: model.blend_with_prior(_leaf(refined), priors),
            "pool_embed": lambda: _pool_embed(model, _leaf(features), _leaf(maps)),
            "encoder": lambda: model.encode(_leaf(emb), False, None),
            "classifier": lambda: model.classifier(_leaf(encoded)),
        }
        for _ in range(reps):
            for stage, forward in stages.items():
                out = forward()
                seed = np.ones_like(out.data)
                start = time.perf_counter()
                autodiff.backward(out, grad=seed)
                seconds[stage] += time.perf_counter() - start
        flops += conv_flops(model.extractor, clip.frames.shape)[1]
    for p in model.parameters():
        p.zero_grad()
    n = len(clips) * reps
    return {stage: seconds[stage] / n for stage in STAGES}, flops / len(clips)


def _leaf(t: Tensor) -> Tensor:
    return Tensor(t.data, requires_grad=True)


def _pool_embed(model, features: Tensor, maps: Tensor) -> Tensor:
    """The forward's steps between the blended maps and the encoder."""
    attended = model_mod.apply_attention(features, maps)
    pooled = model_mod.adaptive_pool(attended, model.cfg.pooled_grid)
    return model.embed(autodiff.reshape(pooled, (pooled.shape[0], -1)))
