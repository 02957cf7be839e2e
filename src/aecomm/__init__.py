"""Desk-scale end-to-end autoencoder link simulator.

A (7,4) block autoencoder learns its own modulation and coding against an
additive white Gaussian noise channel, then gets evaluated the way a coded
link would be: Monte Carlo block error rates with confidence intervals,
classical Hamming baselines with closed-form references, train/test
distribution-shift metrics, and channel-mismatch probes.
"""

__version__ = "0.1.0"

from . import channels, codecs, config, harness, nn, rng, shiftmetrics
from .config import ExperimentConfig
from .shiftmetrics import compare_received_distributions
