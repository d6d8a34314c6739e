"""Spectral-frame ingestion, normalization and synthetic corpora.

Frames live in a FrameMatrix (N x D, float32) tagged with a speaker id
and optional per-frame log energy; ``filter_nonsilent`` drops the frames
more than ``SILENCE_THRESHOLD_DB`` below the loudest. One shared NormStats
maps every dimension to [-1, 1] and back; the encoder must stay
speaker-blind, so the normalizer is fit over all speakers jointly.

Synthetic corpora add noise to K shared "phone" prototypes rendered through
a per-speaker affine map; the ground truth keeps every speaker's K clean
frames, so a frame's ideal conversion swaps them and keeps its own noise.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    DataError,
    DimMismatchError,
    FormatError,
    TruncatedFileError,
    as_integer,
    as_real,
    as_speaker,
)
from .numerics import RngState

FRAME_MAGIC = b"VAWF"
NORM_MAGIC = b"VAWN"
FORMAT_VERSION = 1

SILENCE_THRESHOLD_DB = 30.0
# rows of synthetic frames summed in float64 per block before the one rounding to float32
_RENDER_ROWS = 256


@dataclass
class FrameMatrix:
    """Speaker-tagged matrix of spectral feature frames."""

    speaker_id: int
    frames: np.ndarray  # (N, D) float32
    energy: np.ndarray | None = None  # (N,) float32 log energy

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or min(self.frames.shape) < 1:
            raise DataError(f"frames must be an N x D matrix with N, D >= 1, got shape {self.frames.shape}")
        self.speaker_id = as_integer("speaker_id", self.speaker_id, low=0)
        if self.energy is not None:
            self.energy = np.asarray(self.energy, dtype=np.float32)
            if self.energy.shape != (self.frames.shape[0],):
                raise DataError(
                    f"energy must have one entry per frame, got {self.energy.shape} for {self.num_frames} frames"
                )
            if not np.isfinite(self.energy).all():
                raise DataError("energy holds non-finite values")

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class NormStats:
    """Per-dimension min/max of a corpus; affine map to [-1, 1] and back."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float32)
        self.maxs = np.asarray(self.maxs, dtype=np.float32)
        if self.mins.shape != self.maxs.shape or self.mins.ndim != 1 or self.mins.size < 1:
            raise DataError(f"mins and maxs must be equal-length, non-empty vectors, got "
                            f"shapes {self.mins.shape} and {self.maxs.shape}")
        bad = ~(np.isfinite(self.mins) & np.isfinite(self.maxs))
        if bad.any():
            raise DataError(f"non-finite values in dimensions {np.flatnonzero(bad).tolist()}")
        if np.any(self.maxs < self.mins):
            raise DataError("per-dimension max must be >= min")
        with np.errstate(over="ignore"):  # the span normalize divides by and denormalize scales by
            wide = ~np.isfinite(self.maxs - self.mins)
        if wide.any():
            raise DataError(f"max - min overflows float32 in dimensions {np.flatnonzero(wide).tolist()}")

    @property
    def dim(self) -> int:
        return self.mins.shape[0]

    @property
    def degenerate(self) -> np.ndarray:
        """Dimensions with max == min; they carry no information and map to 0."""
        return self.maxs == self.mins


def fit_normalizer(corpus: list[FrameMatrix]) -> NormStats:
    """Per-dimension min/max over all frames of all speakers (one shared normalizer)."""
    if not corpus:
        raise DataError("cannot fit a normalizer on an empty corpus")
    dim = corpus[0].dim
    for fm in corpus:
        if fm.dim != dim:
            raise DimMismatchError(f"corpus dims disagree: {dim} vs {fm.dim}")
    # per-matrix extremes combined without stacking the corpus; NaN and +-inf
    # propagate into them, so NormStats's finiteness check checks every frame
    mins = np.minimum.reduce([fm.frames.min(axis=0) for fm in corpus])
    maxs = np.maximum.reduce([fm.frames.max(axis=0) for fm in corpus])
    return NormStats(mins=mins, maxs=maxs)


def normalize(x: FrameMatrix, s: NormStats) -> FrameMatrix:
    """Rescale each dimension to [-1, 1]; degenerate dimensions map to 0."""
    if x.dim != s.dim:
        raise DimMismatchError(f"frames have dim {x.dim}, stats have dim {s.dim}")
    # one pass: a float64 sum of float32 values cannot overflow, so only NaN or +-inf make it non-finite
    bad = ~np.isfinite(x.frames.sum(axis=0, dtype=np.float64))
    if bad.any():
        raise DataError(f"frames hold non-finite values in dimensions {np.flatnonzero(bad).tolist()}")
    degenerate = s.degenerate
    span = s.maxs - s.mins
    span[degenerate] = 1.0
    scaled = x.frames - s.mins  # the one fresh array; the steps below work in place
    scaled /= span
    scaled *= np.float32(2.0)
    scaled -= np.float32(1.0)
    scaled[:, degenerate] = 0.0
    return FrameMatrix(speaker_id=x.speaker_id, frames=scaled, energy=x.energy)


def denormalize(x: FrameMatrix, s: NormStats) -> FrameMatrix:
    """Exact inverse of normalize on non-degenerate dims; degenerate dims restore min."""
    if x.dim != s.dim:
        raise DimMismatchError(f"frames have dim {x.dim}, stats have dim {s.dim}")
    degenerate = s.degenerate
    raw = x.frames + np.float32(1.0)  # the one fresh array; the steps below work in place
    raw /= np.float32(2.0)
    raw *= s.maxs - s.mins
    raw += s.mins
    raw[:, degenerate] = s.mins[degenerate]
    return FrameMatrix(speaker_id=x.speaker_id, frames=raw, energy=x.energy)


def filter_nonsilent(x: FrameMatrix) -> FrameMatrix:
    """Keep frames whose energy is within ``SILENCE_THRESHOLD_DB`` of the loudest frame.

    Order is preserved. Without an energy vector there is nothing to
    filter on: the input is returned unchanged with a warning.
    """
    if x.energy is None:
        warnings.warn("filter_nonsilent: no energy vector present, keeping all frames")
        return x
    # float32 rounds -FLT_MAX - 30 back to -FLT_MAX, so the cutoff cannot overflow
    cutoff = x.energy.max() - np.float32(SILENCE_THRESHOLD_DB)
    keep = x.energy >= cutoff  # the loudest frame always passes
    return FrameMatrix(speaker_id=x.speaker_id, frames=x.frames[keep], energy=x.energy[keep])


# ---------------------------------------------------------------------------
# synthetic two-speaker corpora


@dataclass
class SyntheticSpec:
    """Recipe for a corpus with known ground truth; the fields are its shape.

    Each speaker m renders ``num_clusters`` shared prototypes c_k through an
    affine map: x = A_m c_k + b_m + ``noise_scale`` e, with c_k, b_m and e
    standard normal and A_m = I + ``map_scale`` N / sqrt(dim), N standard
    normal. These are class constants. Only the clean frames A_m c_k + b_m
    outlive generation, in ``GroundTruth.clean``.
    """

    num_clusters: ClassVar[int] = 8
    noise_scale: ClassVar[float] = 0.05
    map_scale: ClassVar[float] = 0.15
    num_speakers: int = 2
    dim: int = 24
    frames_per_speaker: int = 4000
    silence_fraction: float = 0.0

    def __post_init__(self):
        for name, low in (("num_speakers", 2), ("dim", 1), ("frames_per_speaker", 1)):
            # a Python int, so the spec serializes like NetworkConfig
            setattr(self, name, as_integer(name, getattr(self, name), low=low))
        self.silence_fraction = as_real("silence_fraction", self.silence_fraction, low=0.0, high=1.0)


@dataclass
class GroundTruth:
    """Generation record: every speaker's clean frames and every frame's cluster."""

    clean: np.ndarray  # (speakers, K, D) float64: clean[m, k] is speaker m's frame of cluster k
    assignments: list[np.ndarray]  # per speaker (N,) cluster index
    silent: list[np.ndarray]  # per speaker (N,) bool

    def ideal_conversion(self, frames: np.ndarray, clusters: np.ndarray, source_id: int,
                         target_id: int) -> np.ndarray:
        """Each frame's clean source frame swapped for the target's, its noise carried over;
        ``clusters`` holds each frame's cluster in [0, K), in the shape of ``frames.shape[:-1]``."""
        speakers, k, d = self.clean.shape
        source_id, target_id = as_speaker(source_id, speakers), as_speaker(target_id, speakers)
        frames = np.asarray(frames, dtype=np.float64)
        if frames.shape[-1:] != (d,):
            raise DimMismatchError(f"frames of shape {frames.shape} for a corpus of dim {d}")
        clusters = np.asarray(clusters)
        if clusters.shape != frames.shape[:-1]:
            raise DataError(f"clusters of shape {clusters.shape} for frames of shape {frames.shape}")
        # a negative index would wrap to another cluster
        if clusters.dtype.kind not in "iu" or ((clusters < 0) | (clusters >= k)).any():
            raise DataError(f"clusters must be integers in [0, {k}), got {clusters.dtype} {clusters}")
        return frames - self.clean[source_id, clusters] + self.clean[target_id, clusters]

    def clean_frame(self, speaker_id: int, cluster: int) -> np.ndarray:
        speaker_id = as_speaker(speaker_id, len(self.clean))
        # a negative index would wrap to another cluster
        index = as_integer("cluster", cluster, low=0, high=self.clean.shape[1])
        return self.clean[speaker_id, index].copy()


def generate_synthetic(spec: SyntheticSpec, rng: RngState):
    """Render a corpus from the spec; returns (list of FrameMatrix, GroundTruth).

    Every frame is one of K cluster prototypes plus noise, so each speaker's
    K clean frames are rendered once, as its map is drawn, and each frame adds
    its row of them to its noise. A speaker's noise is drawn from one generator
    a block of rows at a time, scaled and summed in float64 straight into the
    float32 frames: no (N, D) float64 array is made.
    """
    d, k, n = spec.dim, spec.num_clusters, spec.frames_per_speaker

    prototypes = rng.generator().standard_normal((k, d))
    clean = np.empty((spec.num_speakers, k, d))
    for m in range(spec.num_speakers):  # speaker m's map x -> A_m x + b_m, applied to every prototype
        a_m = np.eye(d) + spec.map_scale * rng.generator().standard_normal((d, d)) / np.sqrt(d)
        clean[m] = prototypes @ a_m.T + rng.generator().standard_normal((d,))

    corpus, assignments, silent_flags = [], [], []
    for m in range(spec.num_speakers):
        clusters = rng.generator().integers(k, size=n)
        noise = rng.generator()
        frames = np.empty((n, d), dtype=np.float32)
        for start in range(0, n, _RENDER_ROWS):
            rows = slice(start, start + _RENDER_ROWS)
            block = noise.standard_normal(frames[rows].shape)
            block *= spec.noise_scale
            np.add(block, clean[m, clusters[rows]], out=frames[rows])

        energy = rng.generator().standard_normal((n,)) * 2.0
        silent = np.zeros(n, dtype=bool)
        if spec.silence_fraction > 0:
            n_silent = int(round(spec.silence_fraction * n))
            order = np.argsort(rng.generator().standard_normal((n,)), kind="stable")
            silent[order[:n_silent]] = True
            energy = energy - 60.0 * silent

        corpus.append(FrameMatrix(speaker_id=m, frames=frames, energy=energy))
        assignments.append(clusters)
        silent_flags.append(silent)

    return corpus, GroundTruth(clean=clean, assignments=assignments, silent=silent_flags)


# ---------------------------------------------------------------------------
# binary formats (bit-exact)


class _Decoder:
    """Cursor over the whole bytes of one VAWF or VAWN file.

    The constructor checks magic and version. Every read first compares the
    length the header declares with the bytes that remain, so a header that
    promises more than the file holds raises TruncatedFileError before
    anything is read or allocated; ``finish`` rejects trailing bytes.
    """

    def __init__(self, blob: bytes, magic: bytes, label: str):
        self.blob, self.pos, self.label = blob, 0, label
        self._take(4, "magic")
        got = bytes(blob[:4])
        if got != magic:
            raise BadMagicError(f"bad magic for {label}: expected {magic!r}, got {got!r}")
        (version,) = self.u32(1, "version")
        if version != FORMAT_VERSION:
            raise BadVersionError(f"unsupported {label} version {version}, expected {FORMAT_VERSION}")

    def _take(self, nbytes: int, what: str) -> int:
        start = self.pos
        if nbytes > len(self.blob) - start:
            raise TruncatedFileError(f"{self.label} ended while reading {what}")
        self.pos = start + nbytes
        return start

    def u32(self, count: int, what: str) -> tuple:
        return struct.unpack_from(f"<{count}I", self.blob, self._take(4 * count, what))

    def f4(self, count: int, what: str) -> np.ndarray:
        offset = self._take(4 * count, what)
        return np.frombuffer(self.blob, dtype="<f4", count=count, offset=offset).copy()

    def finish(self):
        if self.pos != len(self.blob):
            raise TruncatedFileError(f"trailing bytes after {self.label} payload")


def _encode(magic: bytes, header: dict, *arrays) -> bytes:
    """Magic, version, the u32 ``header`` values in order, then each array as <f4."""
    for name, value in header.items():
        if not 0 <= value < 2**32:
            raise DataError(f"{name} {value} does not fit the file's u32 header field")
    return b"".join(
        [magic, struct.pack(f"<{len(header) + 1}I", FORMAT_VERSION, *header.values())]
        + [np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays]
    )


def write_frames(fm: FrameMatrix, path):
    """Write a frame file: magic VAWF, version, speaker, dim, count, flags, payload."""
    flags = 1 if fm.energy is not None else 0
    arrays = (fm.frames,) if fm.energy is None else (fm.frames, fm.energy)
    header = {"speaker_id": fm.speaker_id, "dim": fm.dim, "num_frames": fm.num_frames, "flags": flags}
    blob = _encode(FRAME_MAGIC, header, *arrays)
    Path(path).write_bytes(blob)


def read_frames(path) -> FrameMatrix:
    dec = _Decoder(Path(path).read_bytes(), FRAME_MAGIC, "frame file")
    speaker_id, dim, num_frames, flags = dec.u32(4, "frame header")
    if flags & ~1:  # bit 0 (energy present) is the only one defined
        raise FormatError(f"frame file sets unknown flag bits: flags = {flags:#x}")
    frames = dec.f4(dim * num_frames, "frame payload").reshape(num_frames, dim)
    energy = dec.f4(num_frames, "energy payload") if flags & 1 else None
    dec.finish()
    return FrameMatrix(speaker_id=speaker_id, frames=frames, energy=energy)


def write_norm_stats(s: NormStats, path):
    Path(path).write_bytes(_encode(NORM_MAGIC, {"dim": s.dim}, s.mins, s.maxs))


def read_norm_stats(path) -> NormStats:
    dec = _Decoder(Path(path).read_bytes(), NORM_MAGIC, "normalizer file")
    (dim,) = dec.u32(1, "normalizer dim")
    mins = dec.f4(dim, "normalizer mins")
    maxs = dec.f4(dim, "normalizer maxs")
    dec.finish()
    return NormStats(mins=mins, maxs=maxs)
