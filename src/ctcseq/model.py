"""The recognition network: convolutional feature extractor, context-based
spatial attention with motion priors, adaptive pooling, frame embedding, a
causally masked transformer encoder, and the letters-plus-blank classifier.

Frame t never sees information from frames after t: the attention refiner
is masked to a trailing window of prior frames, the encoder mask is purely
causal, and the motion prior uses backward differences only.
"""
from __future__ import annotations

import json
import math
import operator
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .ctc import Alphabet, FrameDistributionSeq
from .data import check_ranges, read_exact

MASK_OFF = -1e9

LAYERNORM_EPS = 1e-5

DROPOUT_ENCODER = 0.3
DROPOUT_ATTENTION = 0.1

# strides of the feature extractor's four 3x3, padding-1 convs
CONV_STRIDES = (2, 2, 1, 1)

# how many frames before t the refiner's query at t sees
CONTEXT_WINDOW = 5

# fixed multiplier on the classifier output; keeps the head an affine
# map while giving the logits usable dynamic range at small step sizes
LOGIT_SCALE = 8.0

CKPT_MAGIC = b"CTSQCKPT"
CKPT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    feat_channels: int = 16
    feat_grid: tuple[int, int] = (8, 8)
    pooled_grid: tuple[int, int] = (4, 4)
    embed_dim: int = 32
    encoder_layers: int = 2
    heads: int = 2
    ffn_hidden: int = 64
    num_classes: int = 5

    def __post_init__(self):
        object.__setattr__(self, "feat_grid", tuple(self.feat_grid))
        object.__setattr__(self, "pooled_grid", tuple(self.pooled_grid))
        if len(self.feat_grid) != 2 or len(self.pooled_grid) != 2:
            raise ValueError(f"each grid must have two sides: {self.feat_grid}, {self.pooled_grid}")
        check_ranges(self, {"feat_channels": ">= 1", "feat_grid": ">= 1", "pooled_grid": ">= 1",
                            "embed_dim": ">= 1", "encoder_layers": ">= 0", "heads": ">= 1", "ffn_hidden": ">= 1",
                            "num_classes": ">= 1"})
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if any(p > f for p, f in zip(self.pooled_grid, self.feat_grid)):
            raise ValueError(f"pooled_grid {self.pooled_grid} exceeds feat_grid {self.feat_grid}")


class Module:
    def named_parameters(self, prefix: str = "") -> dict[str, Parameter]:
        out: dict[str, Parameter] = {}
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}" if prefix else attr
            if isinstance(value, Parameter):
                out[name] = value
            elif isinstance(value, Module):
                out.update(value.named_parameters(prefix=f"{name}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.update(item.named_parameters(prefix=f"{name}.{i}."))
        return out

    def parameters(self) -> list[Parameter]:
        return list(self.named_parameters().values())


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 scale: float | None = None):
        std = scale if scale is not None else 1.0 / math.sqrt(in_dim)
        self.weight = Parameter(rng.normal(0.0, std, size=(in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.weight) + self.bias


class Conv2d(Module):
    """relu(conv) with 3x3 kernels and padding 1; the relu is fused into ``ad.conv2d``."""

    def __init__(self, cin: int, cout: int, rng: np.random.Generator, stride: int = 1):
        std = math.sqrt(2.0 / (cin * 9))
        self.weight = Parameter(rng.normal(0.0, std, size=(cout, cin, 3, 3)))
        self.bias = Parameter(np.zeros(cout))
        self.stride = stride
        self.padding = 1

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class LayerNorm(Module):
    """Per-position standardization with learnable gain and offset."""

    def __init__(self, dim: int):
        self.gain = Parameter(np.ones(dim))
        self.offset = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        mu = ad.mean_(x, axis=-1, keepdims=True)
        centered = x - mu
        var = ad.mean_(centered * centered, axis=-1, keepdims=True)
        inv = ad.power(var + LAYERNORM_EPS, -0.5)
        return centered * inv * self.gain + self.offset


def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """The standard fixed sin/cos position table."""
    pos = np.arange(length)[:, None]
    i = np.arange(dim // 2 + dim % 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / dim)
    pe = np.zeros((length, dim))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    return pe


def causal_mask(length: int, window: int | None = None) -> np.ndarray:
    """Additive mask: frame t may attend to frames max(0, t-window)..t."""
    rows = np.arange(length)[:, None]
    cols = np.arange(length)[None, :]
    allowed = cols <= rows
    if window is not None:
        allowed &= cols >= rows - window
    return np.where(allowed, 0.0, MASK_OFF)


def causal_attention(q: Tensor, k: Tensor, v: Tensor, window: int | None = None) -> Tensor:
    """softmax(q k^T / sqrt(d) + causal_mask(t, window)) v over the last two axes."""
    t, d = q.shape[-2:]
    axes = tuple(range(q.ndim - 2)) + (q.ndim - 1, q.ndim - 2)
    scores = ad.matmul(q, ad.transpose(k, axes)) * (1.0 / math.sqrt(d)) + Tensor(causal_mask(t, window))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def pool_matrix(in_size: int, out_size: int) -> np.ndarray:
    """Adaptive-average-pooling weights with floor/ceil bin boundaries."""
    if out_size > in_size:
        raise ValueError(f"adaptive pooling cannot upsample: {in_size} -> {out_size}")
    mat = np.zeros((out_size, in_size))
    for i in range(out_size):
        start = (i * in_size) // out_size
        end = -((-(i + 1) * in_size) // out_size)  # ceil division
        mat[i, start:end] = 1.0 / (end - start)
    return mat


def adaptive_pool(x: Tensor, out_grid: tuple[int, int]) -> Tensor:
    """Average-pool the trailing two axes of (T, D, H, W) to out_grid."""
    t, d, h, w = x.shape
    ph = Tensor(pool_matrix(h, out_grid[0]))
    pw = Tensor(pool_matrix(w, out_grid[1]))
    flat = ad.reshape(x, (t * d, h, w))
    pooled = ad.matmul(ad.matmul(ph, flat), ad.transpose(pw))
    return ad.reshape(pooled, (t, d, out_grid[0], out_grid[1]))


class FeatureExtractor(Module):
    """Four-layer strided conv stack, run channel-major, from (T, 3, H, W) RGB frames to (T, D, gh, gw) maps."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.feat_channels
        self.conv1 = Conv2d(3, d, rng, stride=CONV_STRIDES[0])
        self.conv2 = Conv2d(d, d, rng, stride=CONV_STRIDES[1])
        self.conv3 = Conv2d(d, d, rng, stride=CONV_STRIDES[2])
        self.conv4 = Conv2d(d, d, rng, stride=CONV_STRIDES[3])
        self.grid = cfg.feat_grid

    def __call__(self, frames: Tensor) -> Tensor:
        x = ad.transpose(frames, (1, 0, 2, 3))
        for conv in (self.conv1, self.conv2, self.conv3, self.conv4):
            x = conv(x)
        return adaptive_pool(ad.transpose(x, (1, 0, 2, 3)), self.grid)


class SpatialAttention(Module):
    """Position-wise two-layer ReLU scorer over each cell's channel vector."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.feat_channels
        self.w_a = Parameter(rng.normal(0.0, 1.0 / math.sqrt(d), size=(d, 2 * d)))
        self.w_v = Parameter(rng.normal(0.0, 1.0 / math.sqrt(2 * d), size=(2 * d, 1)))

    def __call__(self, features: Tensor) -> Tensor:
        t, d, h, w = features.shape
        cells = ad.reshape(ad.transpose(features, (0, 2, 3, 1)), (t * h * w, d))
        hidden = ad.clamp_min(ad.matmul(cells, self.w_a), 0.0)
        scores = ad.clamp_min(ad.matmul(hidden, self.w_v), 0.0)
        return ad.reshape(scores, (t, h, w))


class AttentionRefiner(Module):
    """Single-head self-attention over flattened maps, masked to a trailing
    window of prior frames, with sinusoidal positions added first."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        dim = cfg.feat_grid[0] * cfg.feat_grid[1]
        std = 1.0 / math.sqrt(dim)
        self.w_q = Parameter(rng.normal(0.0, std, size=(dim, dim)))
        self.w_k = Parameter(rng.normal(0.0, std, size=(dim, dim)))
        self.w_v = Parameter(rng.normal(0.0, std, size=(dim, dim)))

    def __call__(self, maps: Tensor) -> Tensor:
        t, h, w = maps.shape
        dim = h * w
        tokens = ad.reshape(maps, (t, dim)) * math.sqrt(dim) + Tensor(sinusoidal_encoding(t, dim))
        q, k, v = (ad.matmul(tokens, wm) for wm in (self.w_q, self.w_k, self.w_v))
        return ad.reshape(causal_attention(q, k, v, CONTEXT_WINDOW), (t, h, w))


class MultiHeadSelfAttention(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        e = cfg.embed_dim
        std = 1.0 / math.sqrt(e)
        self.w_q = Parameter(rng.normal(0.0, std, size=(e, e)))
        self.w_k = Parameter(rng.normal(0.0, std, size=(e, e)))
        self.w_v = Parameter(rng.normal(0.0, std, size=(e, e)))
        self.w_o = Parameter(rng.normal(0.0, std, size=(e, e)))
        self.heads = cfg.heads

    def __call__(self, x: Tensor) -> Tensor:
        t, e = x.shape
        nh = self.heads
        hd = e // nh

        def split(m: Tensor) -> Tensor:
            return ad.transpose(ad.reshape(m, (t, nh, hd)), (1, 0, 2))

        q, k, v = (split(ad.matmul(x, wm)) for wm in (self.w_q, self.w_k, self.w_v))
        ctx = ad.reshape(ad.transpose(causal_attention(q, k, v), (1, 0, 2)), (t, e))
        return ad.matmul(ctx, self.w_o)


class EncoderLayer(Module):
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.attn = MultiHeadSelfAttention(cfg, rng)
        self.norm1 = LayerNorm(cfg.embed_dim)
        self.ffn_in = Linear(cfg.embed_dim, cfg.ffn_hidden, rng)
        self.ffn_out = Linear(cfg.ffn_hidden, cfg.embed_dim, rng)
        self.norm2 = LayerNorm(cfg.embed_dim)

    def __call__(self, x: Tensor, rng) -> Tensor:
        a = ad.dropout(self.attn(x), DROPOUT_ENCODER, rng)
        x = self.norm1(x + a)
        f = ad.dropout(self.ffn_out(ad.clamp_min(self.ffn_in(x), 0.0)), DROPOUT_ENCODER, rng)
        return self.norm2(x + f)


class Recognizer(Module):
    """End-to-end network mapping frames to per-frame class distributions."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        rng = np.random.default_rng([0x6D6F64, seed])
        self.cfg = cfg
        self.extractor = FeatureExtractor(cfg, rng)
        self.spatial = SpatialAttention(cfg, rng)
        self.refiner = AttentionRefiner(cfg, rng)
        self.blend_raw = Parameter(np.zeros(()))
        ph, pw = cfg.pooled_grid
        self.embed = Linear(cfg.feat_channels * ph * pw, cfg.embed_dim, rng)
        self.layers = [EncoderLayer(cfg, rng) for _ in range(cfg.encoder_layers)]
        # near-uniform start: tiny classifier weights keep early CTC stable
        self.classifier = Linear(cfg.embed_dim, cfg.num_classes + 1, rng, scale=0.01)

    # -- pieces -----------------------------------------------------------

    def blend_with_prior(self, refined: Tensor, priors: np.ndarray) -> Tensor:
        t, h, w = refined.shape
        sums = priors.reshape(t, -1).sum(axis=1)
        if not np.allclose(sums, 1.0, atol=1e-6):
            raise ValueError("each prior map must be normalized to sum 1")
        att = ad.softmax(ad.reshape(refined, (t, h * w)), axis=-1)
        wp = ad.sigmoid(self.blend_raw)  # the prior mixing weight squashed into [0, 1]
        blended = wp * Tensor(priors.reshape(t, h * w)) + (1.0 - wp) * att
        return ad.reshape(blended, (t, h, w))

    def encode(self, embeddings: Tensor, training: bool, rng) -> Tensor:
        t, e = embeddings.shape
        x = embeddings * math.sqrt(e) + Tensor(sinusoidal_encoding(t, e))
        for layer in self.layers:
            x = layer(x, rng if training else None)
        return x

    # -- full pass --------------------------------------------------------

    def forward(
        self,
        frames: np.ndarray,
        priors: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> FrameDistributionSeq:
        """Run the network on one normalized RGB clip (T, 3, H, W) and
        return its per-frame log-probabilities as a ``FrameDistributionSeq``.

        ``priors`` are per-frame attention prior maps summing to 1, as
        ``motion_prior`` derives them from the raw (unnormalized) frames.
        Dropout fires exactly when ``rng`` is given, drawing from it.
        """
        x = Tensor(frames)

        features = self.extractor(x)
        raw = self.spatial(features)
        refined = self.refiner(ad.dropout(raw, DROPOUT_ATTENTION, rng))
        final_maps = self.blend_with_prior(refined, priors)

        attended = apply_attention(features, final_maps)
        pooled = adaptive_pool(attended, self.cfg.pooled_grid)
        embeddings = self.embed(ad.reshape(pooled, (pooled.shape[0], -1)))
        encoded = self.encode(embeddings, rng is not None, rng)
        logits = self.classifier(encoded) * LOGIT_SCALE
        return FrameDistributionSeq(ad.log_softmax(logits, axis=-1))


def apply_attention(features: Tensor, maps: Tensor) -> Tensor:
    """Channel-wise broadcast product of feature maps with attention maps."""
    t, d, h, w = features.shape
    if maps.shape != (t, h, w):
        raise ValueError(f"attention maps {maps.shape} do not match features {features.shape}")
    return features * ad.reshape(maps, (t, 1, h, w))


def motion_prior(frames: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Per-frame attention prior from backward frame differences.

    Absolute temporal difference, channel-summed, box-downsampled to the
    feature grid and normalized to sum 1. Frames without motion (including
    frame 0) fall back to a uniform map.
    """
    frames = np.asarray(frames, dtype=np.float64)
    t, _, ph, pw = frames.shape
    gh, gw = grid
    diff = np.zeros((t, ph, pw))
    diff[1:] = np.abs(frames[1:] - frames[:-1]).sum(axis=1)
    small = pool_matrix(ph, gh) @ diff @ pool_matrix(pw, gw).T
    sums = small.sum(axis=(1, 2), keepdims=True)
    still = sums <= 1e-12
    return np.where(still, 1.0 / (gh * gw), small / np.where(still, 1.0, sums))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Recognizer, path, alphabet: Alphabet, extra: dict | None = None) -> None:
    """Versioned container: magic, manifest length, CRC32 of everything after
    it, the JSON manifest (config echo, letters, parameter names and shapes),
    then the parameters as raw little-endian float64 arrays back to back."""
    if len(alphabet.letters) != model.cfg.num_classes:
        raise ValueError(f"alphabet {''.join(alphabet.letters)!r} does not fit {model.cfg.num_classes} classes")
    params = model.named_parameters()
    payload = b"".join(p.data.astype("<f8").tobytes() for p in params.values())
    manifest = {
        "version": CKPT_VERSION,
        "model_config": asdict(model.cfg),
        "letters": "".join(alphabet.letters),
        "params": _param_table(params),
        "payload_bytes": len(payload),
    }
    if extra:
        manifest["extra"] = extra
    mbytes = json.dumps(manifest, sort_keys=True, default=operator.index).encode("utf-8")  # numpy integer sizes too
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<QI", len(mbytes), zlib.crc32(payload, zlib.crc32(mbytes))))
        fh.write(mbytes)
        fh.write(payload)
    tmp.replace(path)


def _param_table(params: dict) -> list[dict]:
    """The manifest's parameter table: names and shapes in ``named_parameters()`` order."""
    return [{"name": name, "shape": list(p.data.shape)} for name, p in params.items()]


def _json_object(raw: bytes) -> dict | None:
    try:
        value = json.loads(raw.decode("utf-8"))
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def load_checkpoint(path) -> tuple[Recognizer, Alphabet]:
    """The model and letters ``save_checkpoint`` wrote; a corrupt or
    malformed file ends in a ValueError that names it."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(8) != CKPT_MAGIC:
            raise ValueError(f"not a checkpoint file: {path}")
        (mlen,) = struct.unpack("<Q", read_exact(fh, 8, path))
        sealed = read_exact(fh, 4 + mlen, path)  # the CRC, then the manifest
        payload = fh.read()
    manifest = _json_object(sealed[4:])
    if manifest is None:  # a v1 file has no CRC field, so its manifest starts four bytes earlier
        manifest = _json_object(sealed[:-4])
    if manifest is None:
        raise ValueError(f"checkpoint manifest in {path} is not a JSON object")
    if manifest.get("version") != CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version in {path}: {manifest.get('version')}")
    if zlib.crc32(payload, zlib.crc32(sealed[4:])) != int.from_bytes(sealed[:4], "little"):
        raise ValueError(f"checkpoint {path} is corrupt: its CRC32 does not match its bytes")
    if "model_config" not in manifest or not isinstance(manifest.get("letters"), str):
        raise ValueError(f"malformed checkpoint manifest in {path}: expected model_config and letters (a string)")
    try:
        model = Recognizer(ModelConfig(**manifest["model_config"]), seed=0)
        alphabet = Alphabet(tuple(manifest["letters"]))
        if len(alphabet.letters) != model.cfg.num_classes:
            raise ValueError(f"letters {manifest['letters']!r} do not fit {model.cfg.num_classes} classes")
    except (TypeError, ValueError, MemoryError) as exc:
        raise ValueError(f"malformed model_config or letters in checkpoint {path}: {exc}") from None
    params = model.named_parameters()
    ends = np.cumsum([p.data.size for p in params.values()])
    nbytes = 8 * int(ends[-1])
    if manifest.get("params") != _param_table(params) or not manifest.get("payload_bytes") == len(payload) == nbytes:
        raise ValueError(f"checkpoint {path} does not fit the model its model_config builds: expected its "
                         f"{len(params)} parameter names and shapes in order, and {nbytes} payload bytes "
                         f"(payload_bytes {manifest.get('payload_bytes')!r}, {len(payload)} in the file)")
    for (name, p), chunk in zip(params.items(), np.split(np.frombuffer(payload, "<f8"), ends[:-1])):
        if not np.isfinite(chunk).all():
            raise ValueError(f"non-finite value in parameter {name!r} of checkpoint {path}")
        p.data = chunk.reshape(p.data.shape).astype(np.float64)
    return model, alphabet
