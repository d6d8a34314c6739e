"""Non-parallel voice conversion on spectral frames.

A conditional variational autoencoder models frames of two speakers in a
shared latent space; a weight-clipped Wasserstein critic then sharpens
the decoder on converted frames. Everything runs on a small built-in
reverse-mode tensor core and trains on CPU in minutes on synthetic
corpora.
"""

__version__ = "0.1.0"
