"""Letter-sequence recognition from video: context-based visual attention,
a masked transformer encoder, CTC plus maximum-entropy training, and three
CTC decoders, verified end-to-end on a built-in synthetic generator."""

from .autodiff import (
    Parameter,
    Tensor,
    backward,
    finite_difference_check,
    no_grad,
    softmax,
)
from .ctc import (
    Alphabet,
    FrameDistributionSeq,
    alignment_probability,
    collapse,
    ctc_loss,
    sequence_probability_bruteforce,
)
from .data import DatasetSplit, GenConfig, SyntheticClip, horizontal_flip, normalize, synthesize
from .decoder import BeamHypothesis, beam_decode, beam_search, greedy_decode, lm_fused_beam_decode
from .lm import CharNGramModel, lm_train, load_lm, save_lm
from .losses import LossReport, combined_loss, max_entropy_loss
from .metrics import EvalReport, edit_alignment, evaluate_clips, letter_accuracy
from .model import ModelConfig, Recognizer, load_checkpoint, motion_prior, save_checkpoint
from .training import AdamW, TrainConfig, TrainResult, ablate, evaluate, train

__version__ = "0.1.0"
