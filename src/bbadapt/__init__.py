"""Black-box domain adaptation by distillation and mutual-information
fine-tuning, with synthetic covariate-shift scenarios and a predictor
service for exercising the black-box boundary.

The `bbadapt` command (`bbadapt.cli`) is the main entry point; the names
below are the pieces needed to drive a predictor backing by hand.
"""

__version__ = "0.1.0"

from .nets import load_checkpoint
from .predictors import InProcessPredictor, init_teacher, read_cache, write_cache
from .scenarios import generate, preset
from .service import RemotePredictor

__all__ = [
    "InProcessPredictor",
    "RemotePredictor",
    "generate",
    "init_teacher",
    "load_checkpoint",
    "preset",
    "read_cache",
    "write_cache",
]
