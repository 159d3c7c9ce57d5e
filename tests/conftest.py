import json
import struct
import zlib

import numpy as np
from hypothesis import strategies as st

from ctcseq.autodiff import Tensor
from ctcseq.ctc import FrameDistributionSeq
from ctcseq.model import CKPT_MAGIC


def dist_of(probs) -> FrameDistributionSeq:
    """The frame distributions of a T x C' probability array; a zero
    probability becomes a -inf log-probability."""
    with np.errstate(divide="ignore"):
        return FrameDistributionSeq(Tensor(np.log(np.asarray(probs, dtype=np.float64))))


def random_dist(rng, t, cprime):
    """A T x C' array of strictly positive frame distributions."""
    probs = rng.random((t, cprime)) + 1e-3
    return probs / probs.sum(axis=1, keepdims=True)


# 1 to 4 (position, byte) overwrites; positions wrap modulo the file length
CORRUPTIONS = st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(0, 255)), min_size=1, max_size=4)


def write_corrupted(path, raw: bytes, edits) -> None:
    """Write ``raw`` to ``path`` with each (position, byte) overwrite applied."""
    buf = bytearray(raw)
    for pos, byte in edits:
        buf[pos % len(buf)] = byte
    # a new file each time: truncating one in place can force a slow flush
    path.unlink(missing_ok=True)
    path.write_bytes(bytes(buf))


def checkpoint_parts(raw: bytes) -> tuple[dict, bytes]:
    """The JSON manifest and the payload of checkpoint bytes."""
    end = 20 + int.from_bytes(raw[8:16], "little")
    return json.loads(raw[20:end]), raw[end:]


def sealed_checkpoint(manifest, payload: bytes) -> bytes:
    """Checkpoint bytes of ``manifest`` (any JSON value) and ``payload`` under
    a matching CRC32, so that a hand edit reaches the check meant for it."""
    mbytes = json.dumps(manifest).encode("utf-8")
    crc = zlib.crc32(payload, zlib.crc32(mbytes))
    return CKPT_MAGIC + struct.pack("<QI", len(mbytes), crc) + mbytes + payload
