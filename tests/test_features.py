import dataclasses
import json
import re
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vawgan import features as ft
from vawgan.errors import (
    BadMagicError,
    BadVersionError,
    DataError,
    DimMismatchError,
    FormatError,
    TruncatedFileError,
    UnknownSpeakerError,
)
from vawgan.features import FrameMatrix, NormStats, SyntheticSpec
from vawgan.numerics import RngState

FLT_MAX = float(np.finfo(np.float32).max)


def _random_corpus(seed=0, n=50, dim=5):
    rng = np.random.default_rng(seed)
    return [
        FrameMatrix(speaker_id=i, frames=rng.normal(size=(n, dim)) * (i + 1) + i)
        for i in range(2)
    ]


class TestNormalizer:
    def test_single_frame_is_fully_degenerate(self):
        stats = ft.fit_normalizer([FrameMatrix(0, [[1.0, 2.0]])])
        np.testing.assert_array_equal(stats.mins, [1.0, 2.0])
        np.testing.assert_array_equal(stats.maxs, [1.0, 2.0])
        assert stats.degenerate.all()

    def test_two_frames(self):
        stats = ft.fit_normalizer([FrameMatrix(0, [[0.0, 0.0], [2.0, 4.0]])])
        np.testing.assert_array_equal(stats.mins, [0.0, 0.0])
        np.testing.assert_array_equal(stats.maxs, [2.0, 4.0])
        assert not stats.degenerate.any()

    def test_refit_on_normalized_output_gives_unit_box(self):
        corpus = _random_corpus(seed=3)
        stats = ft.fit_normalizer(corpus)
        refit = ft.fit_normalizer([ft.normalize(fm, stats) for fm in corpus])
        np.testing.assert_allclose(refit.mins, -1.0, atol=1e-6)
        np.testing.assert_allclose(refit.maxs, 1.0, atol=1e-6)

    def test_stats_bound_the_corpus(self):
        corpus = _random_corpus(seed=8)
        stats = ft.fit_normalizer(corpus)
        for fm in corpus:
            assert (fm.frames >= stats.mins - 1e-7).all()
            assert (fm.frames <= stats.maxs + 1e-7).all()

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(DataError):
            ft.fit_normalizer([])
        with pytest.raises(DimMismatchError):
            ft.fit_normalizer([FrameMatrix(0, [[1.0]]), FrameMatrix(1, [[1.0, 2.0]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_frames(self, bad):
        corpus = [FrameMatrix(0, [[0.0, 1.0], [0.0, 2.0]]), FrameMatrix(1, [[bad, 3.0]])]
        with pytest.raises(DataError, match=r"non-finite values in dimensions \[0\]"):
            ft.fit_normalizer(corpus)
        with pytest.raises(DataError, match="finite"):
            NormStats(mins=[bad, 0.0], maxs=[1.0, 1.0])
        with pytest.raises(DataError, match="finite"):
            NormStats(mins=[0.0, 0.0], maxs=[1.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_normalize_rejects_non_finite_frames(self, bad):
        stats = NormStats(mins=[0.0, 1.0], maxs=[2.0, 1.0])  # dimension 1 is degenerate
        with pytest.raises(DataError, match=r"non-finite values in dimensions \[0\]"):
            ft.normalize(FrameMatrix(0, [[1.0, 1.0], [bad, 1.0]]), stats)
        with pytest.raises(DataError, match=r"non-finite values in dimensions \[1\]"):
            ft.normalize(FrameMatrix(0, [[1.0, bad]]), stats)

    def test_rejects_a_span_beyond_float32(self):
        # max - min of dimensions 0 and 2 is 6e38: normalize would overflow to a NaN there
        frames = [[3e38, 1.0, -3e38], [-3e38, 2.0, 3e38]]
        with pytest.raises(DataError, match=r"max - min overflows float32 in dimensions \[0, 2\]"):
            ft.fit_normalizer([FrameMatrix(0, frames)])

    def test_widest_span_float32_holds_round_trips(self):
        # max - min is 3.4e38, just under FLT_MAX: accepted, and neither map overflows
        frames = np.array([[-1.7e38], [1.7e38]], dtype=np.float32)
        stats = ft.fit_normalizer([FrameMatrix(0, frames)])
        scaled = ft.normalize(FrameMatrix(0, frames), stats).frames
        np.testing.assert_array_equal(scaled, [[-1.0], [1.0]])
        np.testing.assert_allclose(ft.denormalize(FrameMatrix(0, scaled), stats).frames, frames, rtol=1e-6)

    def test_fit_equals_extremes_of_the_stacked_corpus(self):
        rng = np.random.default_rng(4)
        corpus = [FrameMatrix(i, rng.normal(size=(n, 6)) * (i + 1)) for i, n in enumerate((7, 1, 30))]
        stacked = np.concatenate([fm.frames for fm in corpus])
        stats = ft.fit_normalizer(corpus)
        assert stats.mins.tobytes() == stacked.min(axis=0).tobytes()
        assert stats.maxs.tobytes() == stacked.max(axis=0).tobytes()

    def test_fit_does_not_copy_the_corpus(self, peak_bytes):
        corpus, _ = ft.generate_synthetic(SyntheticSpec(dim=256, frames_per_speaker=4096), RngState(3))
        corpus_bytes = sum(fm.frames.nbytes for fm in corpus)
        assert peak_bytes(lambda: ft.fit_normalizer(corpus)) <= 0.1 * corpus_bytes

    def test_normalize_and_denormalize_leave_their_input_unchanged(self):
        stats = NormStats(mins=[-1.0, 2.0, 0.0], maxs=[3.0, 2.0, 1.0])  # dimension 1 is degenerate
        x = FrameMatrix(0, [[0.5, 2.0, 0.25], [3.0, 2.0, 1.0]])
        before = x.frames.copy()
        normed = ft.normalize(x, stats)
        np.testing.assert_array_equal(x.frames, before)
        normed_before = normed.frames.copy()
        back = ft.denormalize(normed, stats)
        np.testing.assert_array_equal(normed.frames, normed_before)
        np.testing.assert_array_equal(normed.frames[:, 1], 0.0)
        np.testing.assert_array_equal(back.frames[:, 1], 2.0)
        assert not np.shares_memory(normed.frames, x.frames)
        assert not np.shares_memory(back.frames, normed.frames)

    def test_midpoint_maps_to_zero(self):
        stats = NormStats(mins=[0.0], maxs=[2.0])
        out = ft.normalize(FrameMatrix(0, [[1.0]]), stats)
        assert out.frames[0, 0] == 0.0

    def test_extremes_map_to_unit_interval_ends(self):
        stats = NormStats(mins=[-3.0, 1.0], maxs=[5.0, 9.0])
        out = ft.normalize(FrameMatrix(0, [[-3.0, 1.0], [5.0, 9.0]]), stats)
        np.testing.assert_array_equal(out.frames, [[-1.0, -1.0], [1.0, 1.0]])

    def test_degenerate_dims_map_to_zero_and_restore_min(self):
        stats = NormStats(mins=[2.0], maxs=[2.0])
        normed = ft.normalize(FrameMatrix(0, [[2.0]]), stats)
        assert normed.frames[0, 0] == 0.0
        assert ft.denormalize(normed, stats).frames[0, 0] == 2.0

    def test_dim_mismatch(self):
        stats = NormStats(mins=[0.0], maxs=[1.0])
        with pytest.raises(DimMismatchError):
            ft.normalize(FrameMatrix(0, [[1.0, 2.0]]), stats)
        with pytest.raises(DimMismatchError):
            ft.denormalize(FrameMatrix(0, [[1.0, 2.0]]), stats)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_identity(self, seed):
        corpus = _random_corpus(seed=seed, n=20, dim=4)
        stats = ft.fit_normalizer(corpus)
        for fm in corpus:
            back = ft.denormalize(ft.normalize(fm, stats), stats)
            np.testing.assert_allclose(back.frames, fm.frames, atol=1e-5, rtol=1e-6)


class TestFrameMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_energy(self, bad):
        with pytest.raises(DataError, match="energy holds non-finite"):
            FrameMatrix(0, [[1.0], [2.0]], energy=[0.0, bad])

    def test_rejects_energy_of_wrong_length(self):
        for energy in ([0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]):
            with pytest.raises(DataError, match="energy must have one entry per frame"):
                FrameMatrix(0, [[1.0], [2.0]], energy=energy)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
    def test_rejects_empty_dimensions(self, shape):
        with pytest.raises(DataError, match="N x D"):
            FrameMatrix(0, np.zeros(shape))

    def test_speaker_id_must_be_an_integer(self, tmp_path):
        for speaker in (1.5, True):
            with pytest.raises(DataError, match="speaker_id must be an integer"):
                FrameMatrix(speaker, [[1.0]])
        fm = FrameMatrix(np.int64(3), [[1.0]])
        ft.write_frames(fm, tmp_path / "a.vawf")
        assert ft.read_frames(tmp_path / "a.vawf").speaker_id == 3


class TestFilterNonsilent:
    def test_equal_energies_keep_everything(self, monkeypatch):
        monkeypatch.setattr(ft, "SILENCE_THRESHOLD_DB", 0.0)
        fm = FrameMatrix(0, np.ones((4, 2)), energy=np.zeros(4))
        assert ft.filter_nonsilent(fm).num_frames == 4

    def test_threshold_drops_quiet_frame(self, monkeypatch):
        monkeypatch.setattr(ft, "SILENCE_THRESHOLD_DB", 30.0)
        fm = FrameMatrix(0, [[1.0], [2.0]], energy=[0.0, -100.0])
        kept = ft.filter_nonsilent(fm)
        assert kept.num_frames == 1
        assert kept.frames[0, 0] == 1.0

    def test_matches_brute_force_scan(self, monkeypatch):
        monkeypatch.setattr(ft, "SILENCE_THRESHOLD_DB", 25.0)
        rng = np.random.default_rng(17)
        energy = rng.normal(size=200) * 20
        fm = FrameMatrix(0, rng.normal(size=(200, 3)), energy=energy)
        kept = ft.filter_nonsilent(fm)
        expected = [i for i in range(200) if energy[i] >= energy.max() - 25.0]
        np.testing.assert_array_equal(kept.energy, energy[expected].astype(np.float32))
        np.testing.assert_array_equal(kept.frames, fm.frames[expected])

    def test_output_is_a_subsequence(self):
        rng = np.random.default_rng(23)
        fm = FrameMatrix(0, rng.normal(size=(50, 2)), energy=rng.normal(size=50) * 30)
        kept = ft.filter_nonsilent(fm)
        # every kept frame appears in the input, in order
        idx = 0
        for row in kept.frames:
            while not np.array_equal(fm.frames[idx], row):
                idx += 1
        assert idx < fm.num_frames

    def test_missing_energy_warns_and_passes_through(self):
        fm = FrameMatrix(0, [[1.0], [2.0]])
        with pytest.warns(UserWarning, match="no energy"):
            out = ft.filter_nonsilent(fm)
        assert out is fm

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=20),
           st.floats(min_value=0.0, max_value=1e3))
    @example([-FLT_MAX] * 2, 30.0)  # -FLT_MAX - 30 rounds to -FLT_MAX
    def test_keeps_the_loudest_frame_and_everything_louder_than_a_dropped_one(self, energy, threshold_db):
        fm = FrameMatrix(0, np.zeros((len(energy), 1)), energy=energy)
        # hypothesis runs every example in one call, so the function-scoped fixture cannot patch
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ft, "SILENCE_THRESHOLD_DB", threshold_db)
            kept = ft.filter_nonsilent(fm).energy
        assert fm.energy.max() in kept
        dropped = np.setdiff1d(fm.energy, kept)
        assert dropped.size == 0 or dropped.max() < kept.min()

    @pytest.mark.parametrize("quiet_db, kept", [(-29.5, 2), (-30.0, 2), (-30.5, 1)])
    def test_keeps_frames_within_the_constant_of_the_loudest(self, quiet_db, kept):
        assert ft.SILENCE_THRESHOLD_DB == 30.0
        fm = FrameMatrix(0, [[1.0], [2.0]], energy=[0.0, quiet_db])
        assert ft.filter_nonsilent(fm).num_frames == kept

    @pytest.mark.parametrize(
        "energy, kept",
        [
            ([3e38, 0.0, -3e38], 1),
            ([-FLT_MAX] * 3, 3),  # -FLT_MAX - 30 rounds back to -FLT_MAX: no overflow, all pass
            ([FLT_MAX, FLT_MAX, 0.0], 2),
            ([FLT_MAX, -FLT_MAX], 1),
        ],
    )
    def test_cutoff_at_the_float32_extremes(self, energy, kept):
        fm = FrameMatrix(0, np.zeros((len(energy), 1)), energy=energy)
        assert ft.filter_nonsilent(fm).num_frames == kept


def _reference_synthetic(spec: SyntheticSpec, rng: RngState):
    """The corpus built the direct way: every map drawn first, then per speaker one noise
    draw, the (N, D) gather of its clusters' clean frames added in place, then one cast of
    all frames to float32. Returns the clean-frame table first."""
    d, k, n = spec.dim, spec.num_clusters, spec.frames_per_speaker
    prototypes = rng.generator().standard_normal((k, d))
    maps, biases = [], []
    for _ in range(spec.num_speakers):
        maps.append(np.eye(d) + spec.map_scale * rng.generator().standard_normal((d, d)) / np.sqrt(d))
        biases.append(rng.generator().standard_normal((d,)))
    clean = np.stack([prototypes @ a.T + b for a, b in zip(maps, biases)])
    frames, energies, assignments, silent_flags = [], [], [], []
    for m in range(spec.num_speakers):
        clusters = rng.generator().integers(k, size=n)
        x = rng.generator().standard_normal((n, d))
        x *= spec.noise_scale
        x += clean[m][clusters]
        energy = rng.generator().standard_normal((n,)) * 2.0
        silent = np.zeros(n, dtype=bool)
        if spec.silence_fraction > 0:
            order = np.argsort(rng.generator().standard_normal((n,)), kind="stable")
            silent[order[: int(round(spec.silence_fraction * n))]] = True
            energy = energy - 60.0 * silent
        frames.append(x.astype(np.float32))
        energies.append(energy.astype(np.float32))
        assignments.append(clusters)
        silent_flags.append(silent)
    return [clean], frames, energies, assignments, silent_flags


def _variant(**constants) -> type[SyntheticSpec]:
    """SyntheticSpec with some class constants overridden: a noise-free corpus or a
    cluster count that the library's own constants never give."""
    return type("SyntheticVariant", (SyntheticSpec,), constants)


class TestSynthetic:
    def test_fields_are_the_corpus_shape(self):
        names = [f.name for f in dataclasses.fields(SyntheticSpec)]
        assert names == ["num_speakers", "dim", "frames_per_speaker", "silence_fraction"]

    def test_zero_noise_single_cluster_is_exact(self):
        spec = _variant(num_clusters=1, noise_scale=0.0)(frames_per_speaker=10, dim=6)
        corpus, truth = ft.generate_synthetic(spec, RngState(5))
        for m, fm in enumerate(corpus):
            expected = truth.clean_frame(m, 0).astype(np.float32)
            for row in fm.frames:
                np.testing.assert_allclose(row, expected, rtol=1e-6)

    def test_noise_free_frames_are_their_clusters_clean_frames(self):
        spec = _variant(noise_scale=0.0)(frames_per_speaker=200, dim=64)
        corpus, truth = ft.generate_synthetic(spec, RngState(13))
        for m, fm in enumerate(corpus):
            assert len(set(truth.assignments[m].tolist())) == SyntheticSpec.num_clusters == 8
            for row, cluster in zip(fm.frames, truth.assignments[m]):
                np.testing.assert_allclose(row, truth.clean_frame(m, cluster), rtol=1e-6, atol=1e-9)

    def test_generation_peak_memory(self, peak_bytes):
        spec = SyntheticSpec(dim=256, frames_per_speaker=4096)
        speaker_block = spec.frames_per_speaker * spec.dim * np.dtype(np.float64).itemsize
        RngState(0).generator()  # numpy 2 imports numpy.random on first use; keep that out of the reading
        assert peak_bytes(lambda: ft.generate_synthetic(spec, RngState(3))) <= 1.4 * speaker_block

    @pytest.mark.parametrize("silence_fraction", [0.0, 0.25], ids=["speech", "silence"])
    @pytest.mark.parametrize(
        "frames", [ft._RENDER_ROWS - 1, ft._RENDER_ROWS, 2 * ft._RENDER_ROWS + ft._RENDER_ROWS // 2],
        ids=["below-one-block", "one-block", "short-last-block"],
    )
    def test_matches_direct_construction_bytewise(self, frames, silence_fraction):
        spec = SyntheticSpec(num_speakers=3, dim=7, frames_per_speaker=frames, silence_fraction=silence_fraction)
        rng, reference_rng = RngState(2**63 + 5), RngState(2**63 + 5)
        corpus, truth = ft.generate_synthetic(spec, rng)
        got = ([truth.clean], [fm.frames for fm in corpus], [fm.energy for fm in corpus],
               truth.assignments, truth.silent)
        for ours, reference in zip(got, _reference_synthetic(spec, reference_rng), strict=True):
            assert len(ours) == len(reference)
            for a, b in zip(ours, reference):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        assert rng.counter == reference_rng.counter

    def test_ground_truth_is_the_clean_table(self):
        names = [f.name for f in dataclasses.fields(ft.GroundTruth)]
        assert names == ["clean", "assignments", "silent"]
        spec = SyntheticSpec(num_speakers=3, dim=5, frames_per_speaker=2)
        _, truth = ft.generate_synthetic(spec, RngState(4))
        assert truth.clean.shape == (3, SyntheticSpec.num_clusters, 5) and truth.clean.dtype == np.float64
        frame, before = truth.clean_frame(2, 7), truth.clean.copy()
        np.testing.assert_array_equal(frame, truth.clean[2, 7])
        frame += 1.0  # a copy: the caller cannot edit the ground truth through it
        np.testing.assert_array_equal(truth.clean, before)

    def test_ideal_conversion_carries_the_noise_over(self):
        spec = SyntheticSpec(num_speakers=3, dim=16, frames_per_speaker=300)
        corpus, truth = ft.generate_synthetic(spec, RngState(9))
        for source, target in ((0, 1), (2, 0), (1, 1)):
            x, clusters = corpus[source].frames, truth.assignments[source]
            converted = truth.ideal_conversion(x, clusters, source, target)
            expected = truth.clean[target, clusters] - truth.clean[source, clusters]
            np.testing.assert_allclose(converted - x, expected, rtol=0, atol=1e-12)

    def test_ideal_conversion_reproduces_target_cluster(self):
        spec = _variant(num_clusters=4, noise_scale=0.0)(frames_per_speaker=40, dim=8)
        corpus, truth = ft.generate_synthetic(spec, RngState(9))
        converted = truth.ideal_conversion(corpus[0].frames, truth.assignments[0], source_id=0, target_id=1)
        # the frames are the float32 roundings of the clean source rows
        np.testing.assert_allclose(converted, truth.clean[1, truth.assignments[0]], rtol=0, atol=1e-6)

    def test_ideal_conversion_checks_frame_width(self):
        _, truth = ft.generate_synthetic(SyntheticSpec(dim=4, frames_per_speaker=3), RngState(1))
        for frames in (np.zeros((2, 5)), np.zeros((2, 3)), np.zeros(5), np.float64(0.0)):
            with pytest.raises(DimMismatchError, match="for a corpus of dim 4"):
                truth.ideal_conversion(frames, np.zeros(np.shape(frames)[:-1], dtype=int), 0, 1)

    def test_ideal_conversion_of_one_frame_is_row_zero_of_a_batch(self):
        _, truth = ft.generate_synthetic(SyntheticSpec(dim=4, frames_per_speaker=3), RngState(1))
        frames = np.arange(8.0).reshape(2, 4)
        batch = truth.ideal_conversion(frames, np.array([5, 2]), 0, 1)
        for cluster in (5, np.int64(5), np.array(5)):
            np.testing.assert_array_equal(truth.ideal_conversion(frames[0], cluster, 0, 1), batch[0])

    @pytest.mark.parametrize(
        "clusters, match",
        [([0, -1], r"clusters must be integers in \[0, 8\)"),  # -1 would wrap to the last cluster
         ([8, 0], r"clusters must be integers in \[0, 8\)"),
         ([0.0, 1.0], r"clusters must be integers in \[0, 8\), got float64"),
         ([True, False], r"clusters must be integers in \[0, 8\), got bool"),
         ([0, 1, 2], r"clusters of shape \(3,\) for frames of shape \(2, 4\)"),
         ([[0, 1]], r"clusters of shape \(1, 2\) for frames of shape \(2, 4\)"),
         (0, r"clusters of shape \(\) for frames of shape \(2, 4\)")],
        ids=["negative", "past-last", "float", "bool", "too-many", "extra-axis", "scalar"],
    )
    def test_ideal_conversion_rejects_bad_clusters(self, clusters, match):
        _, truth = ft.generate_synthetic(SyntheticSpec(dim=4, frames_per_speaker=3), RngState(1))
        with pytest.raises(DataError, match=match):
            truth.ideal_conversion(np.zeros((2, 4)), clusters, 0, 1)

    def test_unknown_speakers_rejected(self):
        _, truth = ft.generate_synthetic(SyntheticSpec(dim=4, frames_per_speaker=3), RngState(1))
        frames = np.zeros((1, 4))
        for source, target in ((0, -1), (-1, 1), (0, 2), (2, 0), (0, 1.0)):
            with pytest.raises(UnknownSpeakerError):
                truth.ideal_conversion(frames, [0], source, target)
        for speaker in (-1, 2, 0.5):
            with pytest.raises(UnknownSpeakerError):
                truth.clean_frame(speaker, 0)
        np.testing.assert_array_equal(truth.clean_frame(np.int64(1), 0), truth.clean_frame(1, 0))

    def test_clean_frame_checks_its_cluster(self):
        spec = _variant(num_clusters=2)(dim=4, frames_per_speaker=3)
        _, truth = ft.generate_synthetic(spec, RngState(1))
        for cluster in (-1, 2):  # -1 would wrap to the last cluster
            with pytest.raises(DataError, match=r"cluster must be an integer in \[0, 2\)"):
                truth.clean_frame(0, cluster)
        for cluster in (1.0, "0", None, True, np.bool_(False)):  # True is not cluster 1
            with pytest.raises(DataError, match=r"cluster must be an integer in \[0, 2\), got"):
                truth.clean_frame(0, cluster)
        np.testing.assert_array_equal(truth.clean_frame(0, np.int64(1)), truth.clean_frame(0, 1))

    def test_same_seed_bitwise_identical(self):
        spec = SyntheticSpec(frames_per_speaker=30, dim=5)
        corpus_a, _ = ft.generate_synthetic(spec, RngState(21))
        corpus_b, _ = ft.generate_synthetic(spec, RngState(21))
        for a, b in zip(corpus_a, corpus_b):
            assert np.array_equal(a.frames, b.frames)
            assert np.array_equal(a.energy, b.energy)

    def test_speaker_means_differ(self):
        corpus, truth = ft.generate_synthetic(SyntheticSpec(frames_per_speaker=500), RngState(3))
        gap = np.linalg.norm(corpus[0].frames.mean(axis=0) - corpus[1].frames.mean(axis=0))
        assert gap > 0.1

    def test_silence_fraction_marks_low_energy_frames(self):
        spec = SyntheticSpec(frames_per_speaker=200, silence_fraction=0.25)
        corpus, truth = ft.generate_synthetic(spec, RngState(11))
        for fm, silent in zip(corpus, truth.silent):
            assert silent.sum() == 50
            kept = ft.filter_nonsilent(fm)
            assert kept.num_frames == 150

    @pytest.mark.parametrize(
        "setting",
        [{name: 2.5} for name in ("num_speakers", "dim", "frames_per_speaker")]
        + [{"silence_fraction": value} for value in (np.nan, -0.1, 1.0, False, np.bool_(True), "0.1")],
        ids=lambda setting: "{}={!r}".format(*next(iter(setting.items()))),
    )
    def test_rejects_bad_settings(self, setting):
        with pytest.raises(DataError, match=next(iter(setting))):
            SyntheticSpec(**setting)

    def test_accepts_numpy_integer_counts(self):
        spec = SyntheticSpec(dim=np.int64(4), frames_per_speaker=np.int32(6))
        corpus, _ = ft.generate_synthetic(spec, RngState(1))
        assert corpus[0].frames.shape == (6, 4)

    def test_settings_stored_as_python_numbers_round_trip_json(self):
        spec = SyntheticSpec(num_speakers=np.int8(3), dim=np.int64(4), frames_per_speaker=np.uint16(6),
                             silence_fraction=np.float32(0.1))
        assert all(type(getattr(spec, name)) is int for name in ("num_speakers", "dim", "frames_per_speaker"))
        assert type(spec.silence_fraction) is float
        assert SyntheticSpec(**json.loads(json.dumps(asdict(spec)))) == spec

    def test_rng_argument_controls_generation(self):
        spec = SyntheticSpec(frames_per_speaker=10, dim=4)
        a, _ = ft.generate_synthetic(spec, rng=RngState(seed=77))
        b, _ = ft.generate_synthetic(spec, rng=RngState(seed=77))
        assert np.array_equal(a[0].frames, b[0].frames)


class TestFrameFileFormat:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        fm = FrameMatrix(3, rng.normal(size=(7, 4)), energy=rng.normal(size=7))
        path = tmp_path / "frames.vawf"
        ft.write_frames(fm, path)
        loaded = read_back = ft.read_frames(path)
        assert loaded.speaker_id == 3
        assert np.array_equal(loaded.frames, fm.frames)
        assert np.array_equal(loaded.energy, fm.energy)
        second = tmp_path / "again.vawf"
        ft.write_frames(read_back, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_value_beyond_u32_raises_data_error(self, tmp_path):
        path = tmp_path / "frames.vawf"
        with pytest.raises(DataError, match="speaker_id 4294967296 does not fit"):
            ft.write_frames(FrameMatrix(2**32, np.eye(2)), path)
        assert not path.exists()

    def test_round_trip_without_energy(self, tmp_path):
        fm = FrameMatrix(0, np.eye(3))
        path = tmp_path / "noenergy.vawf"
        ft.write_frames(fm, path)
        loaded = ft.read_frames(path)
        assert loaded.energy is None
        assert np.array_equal(loaded.frames, fm.frames)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vawf"
        ft.write_frames(FrameMatrix(0, [[1.0]]), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            ft.read_frames(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.vawf"
        ft.write_frames(FrameMatrix(0, [[1.0]]), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersionError):
            ft.read_frames(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "short.vawf"
        ft.write_frames(FrameMatrix(0, np.ones((4, 3))), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TruncatedFileError):
            ft.read_frames(path)

    def test_truncation_inside_energy(self, tmp_path):
        path = tmp_path / "short.vawf"
        ft.write_frames(FrameMatrix(0, np.ones((4, 3)), energy=np.zeros(4)), path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(TruncatedFileError):
            ft.read_frames(path)

    def test_header_larger_than_any_file(self, tmp_path):
        # dim = count = 2**32 - 1 with energy, and no payload at all
        path = tmp_path / "huge.vawf"
        path.write_bytes(b"VAWF" + struct.pack("<IIIII", 1, 0, 2**32 - 1, 2**32 - 1, 1))
        with pytest.raises(TruncatedFileError):
            ft.read_frames(path)

    @pytest.mark.parametrize("energy, flags", [(None, 2), ([0.0], 3), (None, 2**31)],
                             ids=["bit1", "bits0-1", "bit31"])
    def test_unknown_flag_bits_rejected(self, tmp_path, energy, flags):
        path = tmp_path / "flags.vawf"
        ft.write_frames(FrameMatrix(0, [[1.0]], energy=energy), path)
        blob = bytearray(path.read_bytes())
        blob[20:24] = struct.pack("<I", flags)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"flags = {flags:#x}"):
            ft.read_frames(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "long.vawf"
        ft.write_frames(FrameMatrix(0, [[1.0]]), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(TruncatedFileError):
            ft.read_frames(path)


class TestNormStatsFormat:
    def test_round_trip_bitwise(self, tmp_path):
        stats = NormStats(mins=[-1.5, 0.0], maxs=[2.5, 0.0])
        path = tmp_path / "stats.vawn"
        ft.write_norm_stats(stats, path)
        loaded = ft.read_norm_stats(path)
        assert np.array_equal(loaded.mins, stats.mins)
        assert np.array_equal(loaded.maxs, stats.maxs)
        second = tmp_path / "again.vawn"
        ft.write_norm_stats(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_header_value_beyond_u32_raises_data_error(self, tmp_path, monkeypatch):
        # 2**32 real dimensions would take 32 GB, so only the reported width is that large
        monkeypatch.setattr(NormStats, "dim", property(lambda s: 2**32))
        path = tmp_path / "stats.vawn"
        with pytest.raises(DataError, match="dim 4294967296 does not fit"):
            ft.write_norm_stats(NormStats(mins=[0.0], maxs=[1.0]), path)
        assert not path.exists()

    def test_rejects_zero_width_stats(self):
        with pytest.raises(DataError, match="non-empty"):
            NormStats(mins=[], maxs=[])

    @pytest.mark.parametrize(
        "mins, maxs, dims",
        [([-3e38], [3e38], [0]), ([0.0, -FLT_MAX, 1.0], [1.0, FLT_MAX, 1.0], [1])],
    )
    def test_built_stats_reject_a_span_beyond_float32(self, mins, maxs, dims):
        with pytest.raises(DataError, match=re.escape(f"max - min overflows float32 in dimensions {dims}")):
            NormStats(mins=mins, maxs=maxs)

    def test_read_rejects_a_span_beyond_float32(self, tmp_path):
        path = tmp_path / "stats.vawn"
        mins, maxs = np.array([-3e38, 1.0, -3e38], "<f4"), np.array([3e38, 2.0, 3e38], "<f4")
        path.write_bytes(ft.NORM_MAGIC + struct.pack("<2I", ft.FORMAT_VERSION, 3) + mins.tobytes() + maxs.tobytes())
        with pytest.raises(DataError, match=r"max - min overflows float32 in dimensions \[0, 2\]"):
            ft.read_norm_stats(path)

    def test_rejects_max_below_min(self):
        with pytest.raises(DataError, match="max must be >= min"):
            NormStats(mins=[0.0, 1.0], maxs=[1.0, 0.5])

    def test_bad_magic_distinct_from_bad_version(self, tmp_path):
        path = tmp_path / "stats.vawn"
        ft.write_norm_stats(NormStats(mins=[0.0], maxs=[1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WRNG"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            ft.read_norm_stats(path)

        ft.write_norm_stats(NormStats(mins=[0.0], maxs=[1.0]), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(BadVersionError):
            ft.read_norm_stats(path)


class _Format:
    """One binary format: a valid file made by its writer, and its reader on any bytes."""

    def __init__(self, write, read, value, header_bytes, path, zero_dim):
        self.write, self._read, self.header_bytes, self.path = write, read, header_bytes, path
        self.zero_dim = zero_dim  # hand-written files whose header declares dim 0
        write(value, path)
        self.valid = path.read_bytes()

    def read(self, blob: bytes):
        self.path.write_bytes(blob)
        return self._read(self.path)


@pytest.fixture(scope="module", params=["vawf", "vawn"])
def fmt(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("formats") / f"file.{request.param}"
    if request.param == "vawf":  # header: magic, version, speaker, dim, count, flags
        frames = FrameMatrix(3, [[1.0, -2.0], [4.0, 0.5]], energy=[0.0, -1.0])
        zero_dim = [  # dim 0 and count 3, without and with an energy payload
            ft.FRAME_MAGIC + struct.pack("<5I", ft.FORMAT_VERSION, 3, 0, 3, 0),
            ft.FRAME_MAGIC + struct.pack("<5I", ft.FORMAT_VERSION, 3, 0, 3, 1) + bytes(12),
        ]
        return _Format(ft.write_frames, ft.read_frames, frames, 24, path, zero_dim)
    stats = NormStats(mins=[-1.5, 0.0], maxs=[2.5, 0.0])  # header: magic, version, dim
    zero_dim = [ft.NORM_MAGIC + struct.pack("<2I", ft.FORMAT_VERSION, 0)]
    return _Format(ft.write_norm_stats, ft.read_norm_stats, stats, 12, path, zero_dim)


class TestCorruptFiles:
    """Every reader returns a valid object or raises a DataError subclass."""

    @pytest.mark.parametrize(
        "case, expected",
        [pytest.param(case, expected, id=case) for case, expected in (
            ("appended-byte", TruncatedFileError), ("prefixes", TruncatedFileError),
            ("bad-magic", BadMagicError), ("bad-version", BadVersionError),
            ("zero-dim", DataError))],
    )
    def test_named_case(self, fmt, case, expected):
        valid = fmt.valid
        blobs = {
            "appended-byte": [valid + b"\0"],
            "prefixes": [valid[:n] for n in range(len(valid))],
            "bad-magic": [b"WRNG" + valid[4:]],
            "bad-version": [valid[:4] + (9).to_bytes(4, "little") + valid[8:]],
            "zero-dim": fmt.zero_dim,
        }[case]
        for blob in blobs:
            with pytest.raises(expected):
                fmt.read(blob)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_fuzzed_file_reads_faithfully_or_raises_data_error(self, fmt, data):
        blob = bytearray(fmt.valid)
        mutation = data.draw(st.sampled_from(["prefix", "append", "overwrite-header"]))
        if mutation == "prefix":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif mutation == "append":
            blob.append(data.draw(st.integers(0, 255)))
        else:
            position, byte = st.integers(0, fmt.header_bytes - 1), st.integers(0, 255)
            for i, value in data.draw(st.lists(st.tuples(position, byte), min_size=1, max_size=4)):
                blob[i] = value
        try:
            value = fmt.read(bytes(blob))
        except DataError:
            return
        again = fmt.path.with_suffix(".again")
        fmt.write(value, again)  # a successful read loses nothing the file held
        assert again.read_bytes() == blob
