"""Cascade-trained, filter-trimmed super-resolution CNNs on numpy; the API is the modules."""

from . import data, evaluate, model, ops, synth, training, trimming  # noqa: F401

__version__ = "0.1.0"
