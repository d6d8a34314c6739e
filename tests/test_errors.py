"""The setting readers: ``as_integer``, ``as_real`` and ``as_speaker``."""

import math

import numpy as np
import pytest

from vawgan.errors import DataError, UnknownSpeakerError, as_integer, as_real, as_speaker


class TestAsInteger:
    def test_low_is_accepted_and_high_rejected(self):
        assert as_integer("n", 1, low=1, high=3) == 1
        assert as_integer("n", 2, low=1, high=3) == 2
        for value in (0, 3):
            with pytest.raises(DataError, match=rf"n must be an integer in \[1, 3\), got {value}"):
                as_integer("n", value, low=1, high=3)

    def test_unbounded_by_default(self):
        assert as_integer("n", -(2**80)) == -(2**80)
        assert as_integer("n", 2**80) == 2**80

    @pytest.mark.parametrize("value", [True, np.bool_(True), "3", 1.5, 2.0, None, np.float64(2.0)],
                             ids=repr)
    def test_rejects_non_integers(self, value):
        with pytest.raises(DataError, match=r"n must be an integer in \[-inf, inf\), got "):
            as_integer("n", value)

    @pytest.mark.parametrize("value", [np.int8(-3), np.int64(7), np.uint64(2**63)], ids=repr)
    def test_numpy_integers_become_python_ints(self, value):
        result = as_integer("n", value)
        assert type(result) is int and result == int(value)

    @pytest.mark.parametrize("error", [TypeError, ValueError, UnknownSpeakerError])
    def test_raises_the_error_it_is_given(self, error):
        for value in ("1", -1):
            with pytest.raises(error) as info:
                as_integer("n", value, error, low=0)
            assert type(info.value) is error


class TestAsReal:
    def test_low_is_accepted_and_high_rejected(self):
        assert as_real("x", 0.0, low=0.0, high=1.0) == 0.0
        assert as_real("x", math.nextafter(1.0, 0.0), low=0.0, high=1.0) < 1.0
        for value in (-1e-300, 1.0):
            with pytest.raises(DataError, match=r"x must be a finite real number in \[0.0, 1.0\)"):
                as_real("x", value, low=0.0, high=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan"), np.float32("-inf")],
                             ids=repr)
    def test_rejects_non_finite_values_even_unbounded(self, value):
        with pytest.raises(DataError, match="finite real number"):
            as_real("x", value)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None, 1j], ids=repr)
    def test_rejects_non_reals(self, value):
        with pytest.raises(DataError, match="x must be a finite real number"):
            as_real("x", value)

    @pytest.mark.parametrize("value", [np.float32(0.1), np.float64(-2.5), np.int64(3), 3], ids=repr)
    def test_numpy_numbers_become_python_floats(self, value):
        result = as_real("x", value)
        assert type(result) is float and result == float(value)

    @pytest.mark.parametrize("error", [TypeError, ValueError])
    def test_raises_the_error_it_is_given(self, error):
        for value in ("0.5", math.nan, -1.0, 10**400, -(10**400)):  # float(10**400) overflows
            with pytest.raises(error) as info:
                as_real("x", value, error, low=0.0)
            assert type(info.value) is error


def test_as_speaker_is_as_integer_over_the_speakers():
    assert as_speaker(0, 2) == 0
    assert type(as_speaker(np.int64(1), 2)) is int
    for value in (-1, 2, True, 1.0):
        with pytest.raises(UnknownSpeakerError, match=r"speaker id must be an integer in \[0, 2\)"):
            as_speaker(value, 2)
