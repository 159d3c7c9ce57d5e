"""Letter-sequence recognition from video: context-based visual attention,
a masked transformer encoder, CTC plus maximum-entropy training, and three
CTC decoders, verified end-to-end on a built-in synthetic generator."""

__version__ = "0.1.0"
