import numpy as np
from hypothesis import strategies as st

from ctcseq.autodiff import Tensor
from ctcseq.ctc import FrameDistributionSeq


def dist_of(probs) -> FrameDistributionSeq:
    """The frame distributions of a T x C' probability array; a zero
    probability becomes a -inf log-probability."""
    with np.errstate(divide="ignore"):
        return FrameDistributionSeq(Tensor(np.log(np.asarray(probs, dtype=np.float64))))


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
