"""Error decomposition and causal-strength analysis for children's ASR
transcripts: WER/S/D/I scoring, oracle hypothesis selection, covariate
derivation (pronunciation quality, vocabulary rarity, SNR, word count),
discretization, discrete Bayesian network fitting, and per-edge ACE/CMI
quantification validated against an exactly enumerable synthetic SCM.

Submodules are imported on first attribute access, so importing the
package (or the CLI) does not load NumPy.
"""

import importlib

from .errors import ToolkitError

__version__ = "0.2.0"

_SUBMODULES = ("alignment", "causal", "covariates", "discretize", "ingest",
               "synthetic")

__all__ = [*_SUBMODULES, "ToolkitError", "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
