"""Synthetic fingerspelling-style clip generation, the on-disk tensor
container and index format, and training-time augmentation.

Each clip renders its target letters as distinct glyph patterns drifting
across the frame, with motion-blurred transition frames between letters.
All randomness derives from (seed, clip_index) so generation is
reproducible and parallelizable per clip.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ctc import Alphabet

CHANNEL_MEAN = np.array([0.485, 0.456, 0.406])
CHANNEL_STD = np.array([0.229, 0.224, 0.225])

TENSOR_MAGIC = b"CTSQTENS"
TENSOR_VERSION = 1

_GLYPH_SEED = 0x67_6C_79
_SIGNER_SEED = 0x73_67_6E

MIN_FRAMES_PER_LETTER = 2
MAX_FRAMES_PER_LETTER = 3
GLYPH_CELLS = 7  # side of each letter's square glyph pattern, in cells
BACKGROUND_NOISE = 0.02  # std of the per-pixel Gaussian noise
POSITION_JITTER = 1.5  # bound of the per-clip drift in pixels per frame


# each range rule a config key follows, worded as its error message words it
_RANGES = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1,
           "in [0, 1]": lambda v: 0.0 <= v <= 1.0, "in [0, 1)": lambda v: 0.0 <= v < 1.0}


def check_ranges(cfg, rules: dict[str, str]) -> None:
    """Raise a ValueError naming the first key of ``cfg`` whose value, or either side of a grid, breaks its rule."""
    for key, rule in rules.items():
        value = getattr(cfg, key)
        if not all(map(_RANGES[rule], value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{key} must be {rule}: {value}")


@dataclass(frozen=True)
class GenConfig:
    frame_size: int = 64
    min_letters: int = 2
    max_letters: int = 4
    n_signers: int = 12
    left_handed_rate: float = 0.07
    train_fraction: float = 0.70
    dev_fraction: float = 0.15
    words: tuple[str, ...] = ()

    def __post_init__(self):
        # max_letters has no rule of its own: being >= min_letters, checked below, bounds it
        check_ranges(self, {"frame_size": ">= 1", "min_letters": ">= 1", "n_signers": ">= 1",
                            "left_handed_rate": "in [0, 1]", "train_fraction": "in [0, 1)", "dev_fraction": "in [0, 1)"})
        if self.max_letters < self.min_letters:
            raise ValueError(f"max_letters must be >= min_letters: {self.max_letters} < {self.min_letters}")
        if not 0.0 < self.train_fraction + self.dev_fraction < 1.0:
            raise ValueError(f"train_fraction + dev_fraction must be in (0, 1): {self.train_fraction + self.dev_fraction}")


@dataclass
class SyntheticClip:
    frames: np.ndarray  # (T, 3, S, S) RGB, values in [0, 1]
    target: tuple[int, ...]
    signer_id: int
    handedness: str  # "left" | "right"

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class DatasetSplit:
    train: list[SyntheticClip]
    dev: list[SyntheticClip]
    test: list[SyntheticClip]
    alphabet: Alphabet

    def partitions(self) -> dict[str, list[SyntheticClip]]:
        return {"train": self.train, "dev": self.dev, "test": self.test}

    @property
    def signer_disjoint(self) -> bool:
        """True when no signer appears in more than one partition."""
        signers = [{c.signer_id for c in clips} for clips in (self.train, self.dev, self.test)]
        return sum(map(len, signers)) == len(set().union(*signers))


def _glyph(letter_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-letter pattern and RGB tint."""
    rng = np.random.default_rng([_GLYPH_SEED, letter_index])
    g = GLYPH_CELLS
    pattern = (rng.random((g, g)) < 0.5).astype(np.float64)
    # guarantee some ink so no letter renders as an empty block
    pattern[g // 2, g // 2] = 1.0
    tint = rng.uniform(0.55, 1.0, size=3)
    return pattern, tint


def _signer_profile(seed: int, signer_id: int) -> dict:
    rng = np.random.default_rng([_SIGNER_SEED, seed, signer_id])
    return {
        "scale": int(rng.integers(5, 8)),
        "contrast": float(rng.uniform(0.75, 1.0)),
        "background": float(rng.uniform(0.05, 0.18)),
        "base_x": float(rng.uniform(0.55, 0.75)),
        "base_y": float(rng.uniform(0.25, 0.55)),
    }


def _paste(canvas: np.ndarray, block: np.ndarray, tint: np.ndarray, x: int, y: int, weight: float) -> None:
    s = canvas.shape[1]
    h, w = block.shape
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, s), min(y + h, s)
    if x0 >= x1 or y0 >= y1:
        return
    sub = block[y0 - y : y1 - y, x0 - x : x1 - x]
    canvas[:, y0:y1, x0:x1] += weight * tint[:, None, None] * sub


def _render_clip(seed: int, clip_index: int, target: tuple[int, ...], signer_id: int,
                 cfg: GenConfig) -> np.ndarray:
    """The right-handed frames of one clip."""
    rng = np.random.default_rng([seed, clip_index])
    profile = _signer_profile(seed, signer_id)
    s = cfg.frame_size
    scale = profile["scale"]

    glyphs = []
    for letter in target:
        pattern, tint = _glyph(letter)
        block = np.kron(pattern, np.ones((scale, scale)))
        glyphs.append((block, tint))

    # frame schedule: hold each letter, one blurred transition in between
    schedule: list[tuple[int, int | None]] = []  # (glyph_a, glyph_b); a transition shows both at half weight
    for i in range(len(target)):
        hold = int(rng.integers(MIN_FRAMES_PER_LETTER, MAX_FRAMES_PER_LETTER + 1))
        schedule.extend((i, None) for _ in range(hold))
        if i + 1 < len(target):
            schedule.append((i, i + 1))

    t_total = len(schedule)
    frames = np.zeros((t_total, 3, s, s))
    x = profile["base_x"] * s
    y = profile["base_y"] * s
    dx = float(rng.uniform(-POSITION_JITTER, POSITION_JITTER))
    dy = float(rng.uniform(-POSITION_JITTER, POSITION_JITTER))
    for t, (a, b) in enumerate(schedule):
        canvas = frames[t]
        canvas += profile["background"]
        canvas += rng.normal(0.0, BACKGROUND_NOISE, size=canvas.shape)
        jx = float(rng.uniform(-1.0, 1.0))
        jy = float(rng.uniform(-1.0, 1.0))
        px, py = int(round(x + jx)), int(round(y + jy))
        block_a, tint_a = glyphs[a]
        if b is None:
            _paste(canvas, block_a, tint_a, px, py, profile["contrast"])
        else:
            block_b, tint_b = glyphs[b]
            step = scale  # transition frames smear across a larger move
            _paste(canvas, block_a, tint_a, px, py, 0.5 * profile["contrast"])
            _paste(canvas, block_b, tint_b, px + step, py, 0.5 * profile["contrast"])
        x += dx
        y += dy
    np.clip(frames, 0.0, 1.0, out=frames)
    return frames


def _sample_target(rng: np.random.Generator, alphabet: Alphabet, cfg: GenConfig) -> tuple[int, ...]:
    if cfg.words:
        word = cfg.words[int(rng.integers(0, len(cfg.words)))]
        return tuple(alphabet.encode(word))
    k = int(rng.integers(cfg.min_letters, cfg.max_letters + 1))
    return tuple(int(rng.integers(0, len(alphabet.letters))) for _ in range(k))


def synthesize(seed: int, n_clips: int, alphabet: Alphabet, cfg: GenConfig | None = None) -> DatasetSplit:
    """Generate a train/dev/test split of synthetic clips, signer-disjoint
    when ``n_signers`` leaves each partition a signer of its own."""
    cfg = cfg or GenConfig()
    if n_clips < 0:
        raise ValueError(f"n_clips must be >= 0: {n_clips}")
    if len(alphabet.letters) < 2:
        raise ValueError("synthesis needs an alphabet of at least 2 letters")
    stray = sorted(set("".join(cfg.words)) - set(alphabet.letters))
    if stray:
        raise ValueError(f"words use letters {''.join(stray)!r} that are not in the alphabet "
                         f"{''.join(alphabet.letters)!r}")

    n_train = int(round(cfg.train_fraction * n_clips))
    n_dev = int(round(cfg.dev_fraction * n_clips))
    n_test = n_clips - n_train - n_dev
    counts = {"train": n_train, "dev": n_dev, "test": max(n_test, 0)}

    # signers are assigned to partitions up front; too few and dev and test share the last one
    signer_ids = range(cfg.n_signers)
    s_train = max(1, int(round(cfg.train_fraction * cfg.n_signers)))
    s_dev = max(1, int(round(cfg.dev_fraction * cfg.n_signers)))
    s_dev = min(s_dev, cfg.n_signers - s_train - 1) if cfg.n_signers - s_train > 1 else 1
    partition_signers = {
        "train": signer_ids[:s_train],
        "dev": signer_ids[s_train : s_train + s_dev] or signer_ids[-1:],
        "test": signer_ids[s_train + s_dev :] or signer_ids[-1:],
    }

    partitions: dict[str, list[SyntheticClip]] = {"train": [], "dev": [], "test": []}
    clip_index = 0
    for name in ("train", "dev", "test"):
        for _ in range(counts[name]):
            rng = np.random.default_rng([seed, clip_index, 1])
            signer = partition_signers[name][int(rng.integers(0, len(partition_signers[name])))]
            target = _sample_target(rng, alphabet, cfg)
            left = rng.random() < cfg.left_handed_rate
            clip = SyntheticClip(_render_clip(seed, clip_index, target, signer, cfg), target, signer, "right")
            partitions[name].append(horizontal_flip(clip) if left else clip)
            clip_index += 1
    return DatasetSplit(
        train=partitions["train"],
        dev=partitions["dev"],
        test=partitions["test"],
        alphabet=alphabet,
    )


def horizontal_flip(clip: SyntheticClip) -> SyntheticClip:
    """Mirror every frame about the vertical axis; handedness toggles."""
    return SyntheticClip(
        frames=clip.frames[:, :, :, ::-1].copy(),
        target=clip.target,
        signer_id=clip.signer_id,
        handedness="left" if clip.handedness == "right" else "right",
    )


def normalize(frames: np.ndarray) -> np.ndarray:
    """Standard per-channel normalization of 3-channel frames in [0, 1]."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape[1] != 3:
        raise ValueError(f"normalization expects 3 channels, got {frames.shape[1]}")
    return (frames - CHANNEL_MEAN[None, :, None, None]) / CHANNEL_STD[None, :, None, None]


# ---------------------------------------------------------------------------
# on-disk formats


def write_tensor(path, arr: np.ndarray) -> None:
    """Binary container: magic, version, dtype tag, shape, LE payload."""
    arr = np.asarray(arr, dtype=np.float64)
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(struct.pack("<I", TENSOR_VERSION))
        fh.write(b"f64\x00")
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


def read_exact(fh, size: int, path) -> bytes:
    """The next ``size`` bytes of ``fh``; fewer left means the file is
    truncated. The check comes before the read, so a corrupt length field
    never allocates more than the file holds."""
    end = os.fstat(fh.fileno()).st_size
    if size > end - fh.tell():
        raise ValueError(f"truncated file: {path} ends after {end} bytes")
    return fh.read(size)


def read_utf8(path: Path) -> str:
    """The text of ``path``; bytes that are not UTF-8 end in a ValueError that names it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def read_tensor(path) -> np.ndarray:
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(8) != TENSOR_MAGIC:
            raise ValueError(f"not a tensor container: {path}")
        (version,) = struct.unpack("<I", read_exact(fh, 4, path))
        if version != TENSOR_VERSION:
            raise ValueError(f"unsupported tensor container version {version} in {path}")
        if read_exact(fh, 4, path) != b"f64\x00":
            raise ValueError(f"unsupported dtype tag in {path}")
        (ndim,) = struct.unpack("<I", read_exact(fh, 4, path))
        shape = struct.unpack(f"<{ndim}Q", read_exact(fh, 8 * ndim, path))
        payload = fh.read()
    size = 8 * math.prod(shape)
    if len(payload) != size:
        raise ValueError(f"tensor payload of {path} has {len(payload)} bytes, shape {shape} needs {size}")
    if max(shape, default=0) >= 1 << 63:  # fits an empty payload, but not a numpy index
        raise ValueError(f"tensor dimension out of range in {path}: {shape}")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)


def read_clip(path) -> np.ndarray:
    """``read_tensor`` of a clip: (T >= 1, 3, H, W) finite frames."""
    frames = read_tensor(path)
    if frames.ndim != 4 or frames.shape[0] < 1 or frames.shape[1] != 3:
        raise ValueError(f"clip {path} has shape {frames.shape}, not (T >= 1, 3, H, W)")
    if not np.isfinite(frames).all():
        raise ValueError(f"clip {path} holds non-finite values")
    return frames


def save_dataset(split: DatasetSplit, out_dir) -> None:
    out = Path(out_dir)
    clips_dir = out / "clips"
    clips_dir.mkdir(parents=True, exist_ok=True)
    (out / "alphabet.txt").write_text("".join(split.alphabet.letters) + "\n", encoding="utf-8")
    for name, clips in split.partitions().items():
        lines = []
        for i, clip in enumerate(clips):
            rel = f"clips/{name}_{i:05d}.tnsr"
            write_tensor(out / rel, clip.frames)
            word = split.alphabet.decode(clip.target)
            lines.append(f"{rel}\t{word}\t{clip.signer_id}\t{clip.handedness}")
        (out / f"{name}.index").write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _index_clip(root: Path, line: str, alphabet: Alphabet) -> SyntheticClip:
    fields = line.split("\t")
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields, got {len(fields)}")
    rel, word, signer, handedness = fields
    if not word:
        raise ValueError("empty target word")
    missing = [ch for ch in word if ch not in alphabet.letters]
    if missing:
        raise ValueError(f"letter {missing[0]!r} of {word!r} is not in alphabet.txt")
    if handedness not in ("left", "right"):
        raise ValueError(f"handedness must be left or right, got {handedness!r}")
    return SyntheticClip(
        frames=read_clip(root / rel),
        target=tuple(alphabet.encode(word)),
        signer_id=int(signer),
        handedness=handedness,
    )


def load_dataset(data_dir) -> DatasetSplit:
    """The split ``save_dataset`` wrote; a malformed ``alphabet.txt`` or index
    line ends in a ValueError that names the file (and the line)."""
    root = Path(data_dir)
    alphabet_file = root / "alphabet.txt"
    try:
        alphabet = Alphabet(tuple(alphabet_file.read_text(encoding="utf-8").strip()))
    except ValueError as exc:  # a UnicodeDecodeError is one too
        raise ValueError(f"{alphabet_file}: {exc}") from None
    parts: dict[str, list[SyntheticClip]] = {}
    for name in ("train", "dev", "test"):
        index = root / f"{name}.index"
        lines = read_utf8(index).splitlines() if index.exists() else []
        clips = []
        for number, line in enumerate(lines, 1):
            if line:
                try:
                    clips.append(_index_clip(root, line, alphabet))
                except (ValueError, OSError) as exc:
                    raise ValueError(f"{index} line {number}: {exc}") from None
        parts[name] = clips
    return DatasetSplit(parts["train"], parts["dev"], parts["test"], alphabet)
