import numpy as np

from ctcseq.autodiff import Tensor
from ctcseq.ctc import FrameDistributionSeq


def dist_of(probs) -> FrameDistributionSeq:
    """The frame distributions of a T x C' probability array; a zero
    probability becomes a -inf log-probability."""
    with np.errstate(divide="ignore"):
        return FrameDistributionSeq(Tensor(np.log(np.asarray(probs, dtype=np.float64))))
