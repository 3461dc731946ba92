import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spikedrive.errors import ArgError, EmptyTensorError, InvalidEventError, ParseError
from spikedrive.tensors import (DenseTensor, EventList, IntTensor, SpikeTensor,
                                firing_rate, from_events, kind_of, load_event_file,
                                to_events)


class TestCarriers:
    def test_spike_tensor_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SpikeTensor(np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            SpikeTensor(np.array([0.5]))

    def test_dense_tensor_rejects_non_finite(self):
        with pytest.raises(ValueError):
            DenseTensor(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            DenseTensor(np.array([np.inf]))

    def test_int_tensor_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            IntTensor(np.array([-1]))
        with pytest.raises(ValueError):
            IntTensor(np.array([1.5]))

    def test_tensors_are_immutable(self):
        s = SpikeTensor(np.array([0, 1]))
        with pytest.raises(ValueError):
            s.data[0] = 1


class TestFiringRate:
    def test_all_zeros(self):
        assert firing_rate(SpikeTensor(np.zeros((3, 4)))) == 0.0

    def test_all_ones(self):
        assert firing_rate(SpikeTensor(np.ones((2, 5, 2)))) == 1.0

    def test_half(self):
        assert firing_rate(SpikeTensor(np.array([1, 0, 1, 0]))) == 0.5

    def test_empty_tensor_is_an_error(self):
        with pytest.raises(EmptyTensorError):
            firing_rate(SpikeTensor(np.zeros((0, 4))))

    @given(arrays(np.uint8, st.tuples(st.integers(1, 4), st.integers(1, 6)),
                  elements=st.integers(0, 1)))
    def test_rate_bounded(self, a):
        assert 0.0 <= firing_rate(SpikeTensor(a)) <= 1.0

    @pytest.mark.parametrize("a, want", [
        (np.zeros((3, 4)), 0.0), (np.ones((2, 5, 2)), 1.0), (np.array([1, 0, 1, 1]), 0.75),
        (np.array([[2, 0], [0, 7]]), 0.5), ([1, 0], 0.5)])
    def test_plain_arrays(self, a, want):
        # an ndarray has a .data memoryview of its own; only carriers are unwrapped
        assert firing_rate(a) == want
        if np.isin(a, (0, 1)).all():
            assert firing_rate(a) == firing_rate(SpikeTensor(a))

    def test_empty_array_is_an_error(self):
        with pytest.raises(EmptyTensorError):
            firing_rate(np.zeros((0, 4)))


class TestKindOf:
    @pytest.mark.parametrize("a, want", [
        (np.zeros(3), "binary"), (np.array([True, False]), "binary"),
        (np.array([0, 1], dtype=np.uint8), "binary"), (np.zeros((0, 2)), "binary"),
        (np.array([0.0, 2.0, 5.0]), "integer"), (np.array([3, 0], dtype=np.int64), "integer"),
        (np.array([0.5, 1.0]), "dense"), (np.array([-1.0, 0.0]), "dense"),
        (np.array([-1, 1]), "dense"), (np.array([np.nan]), "dense"),
        (np.array([np.inf, 1.0]), "dense")])
    def test_kinds(self, a, want):
        assert kind_of(a) == want

    @pytest.mark.parametrize("a", [np.array([0, 1, 1]), np.array([2.0, 0.0]),
                                   np.array([0.5]), np.array([-1]), np.array([np.inf])])
    def test_carriers_accept_exactly_their_kinds(self, a):
        kind = kind_of(a)
        for cls, kinds in ((SpikeTensor, ("binary",)), (IntTensor, ("binary", "integer"))):
            if kind in kinds:
                cls(a)
            else:
                with pytest.raises(ValueError):
                    cls(a)

    def test_int_tensor_messages_name_the_fault(self):
        with pytest.raises(ValueError, match="non-negative"):
            IntTensor(np.array([-2.0, 1.0]))
        with pytest.raises(ValueError, match="integers"):
            IntTensor(np.array([-1.5]))


class TestCarrierBase:
    def test_equality_needs_the_same_class(self):
        a = np.array([[0, 1], [1, 1]])
        assert SpikeTensor(a) == SpikeTensor(a.copy())
        assert SpikeTensor(a) != IntTensor(a)
        assert IntTensor(a) != DenseTensor(a)
        assert DenseTensor(a) == DenseTensor(a.astype(float))

    def test_repr_names_class_and_shape(self):
        assert repr(IntTensor(np.zeros((2, 3)))) == "IntTensor(shape=(2, 3))"
        assert repr(DenseTensor(np.zeros(4))) == "DenseTensor(shape=(4,))"


class TestEvents:
    def test_zero_tensor_has_no_events(self):
        assert len(to_events(SpikeTensor(np.zeros((2, 3))))) == 0

    def test_single_event_position(self):
        a = np.zeros((2, 8), dtype=np.uint8)
        a[0, 5] = 1
        assert to_events(SpikeTensor(a)).records == ((0, 5),)

    def test_from_events_trivial(self):
        e = EventList(records=(), shape=(1, 4))
        assert np.array_equal(from_events(e).data, np.zeros((1, 4)))
        e = EventList(records=((0, 0),), shape=(1, 2))
        assert np.array_equal(from_events(e).data, np.array([[1, 0]]))

    def test_out_of_bounds_event_rejected(self):
        with pytest.raises(InvalidEventError):
            EventList(records=((0, 99),), shape=(1, 4))
        with pytest.raises(InvalidEventError):
            EventList(records=((5, 0),), shape=(2, 4))

    def test_unsorted_and_duplicate_events_rejected(self):
        with pytest.raises(InvalidEventError):
            EventList(records=((0, 3), (0, 1)), shape=(1, 4))
        with pytest.raises(InvalidEventError):
            EventList(records=((0, 1), (0, 1)), shape=(1, 4))

    def test_zero_size_slices_roundtrip(self):
        for shape in ((2, 0), (0, 3), (3, 0, 2)):
            s = SpikeTensor(np.zeros(shape))
            assert to_events(s).records == ()
            assert from_events(to_events(s)) == s

    def test_random_8x8_roundtrip(self):
        rng = np.random.default_rng(0)
        s = SpikeTensor((rng.random((8, 8)) < 0.3).astype(np.uint8))
        assert from_events(to_events(s)) == s

    def test_thousand_random_roundtrips(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            ndim = int(rng.integers(1, 5))
            shape = tuple(int(rng.integers(1, 5)) for _ in range(ndim))
            s = SpikeTensor((rng.random(shape) < rng.uniform(0, 1)).astype(np.uint8))
            assert from_events(to_events(s)) == s

    @settings(max_examples=100)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 3), st.integers(1, 4),
                                      st.integers(1, 4)), elements=st.integers(0, 1)))
    def test_roundtrip_property(self, a):
        s = SpikeTensor(a)
        assert from_events(to_events(s)) == s


def _write(tmp_path, text, name="events.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestEventFile:
    def test_empty_file_is_all_zero(self, tmp_path):
        s = load_event_file(_write(tmp_path, ""), bins=2, resolution=(4, 4))
        assert s.shape == (2, 1, 1, 4, 4)
        assert s.data.sum() == 0

    def test_same_pixel_same_bin_binarizes(self, tmp_path):
        s = load_event_file(_write(tmp_path, "10,1,2,1\n11,1,2,0\n"), bins=1,
                            resolution=(4, 4))
        assert s.data[0, 0, 0, 2, 1] == 1
        assert s.data.sum() == 1

    def test_polarity_channels(self, tmp_path):
        s = load_event_file(_write(tmp_path, "0,0,0,0\n100,1,1,1\n"), bins=1,
                            resolution=(2, 2), channels=2)
        assert s.shape == (1, 1, 2, 2, 2)
        assert s.data[0, 0, 0, 0, 0] == 1 and s.data[0, 0, 1, 1, 1] == 1

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_event_file(_write(tmp_path, "0,0,0,1\nnot-a-record\n"), bins=1,
                            resolution=(2, 2))
        with pytest.raises(ParseError, match="line 1"):
            load_event_file(_write(tmp_path, "0,9,0,1\n"), bins=1, resolution=(2, 2))
        with pytest.raises(ParseError):
            load_event_file(_write(tmp_path, "0,0,0,7\n"), bins=1, resolution=(2, 2))

    def test_bad_bins_rejected(self, tmp_path):
        with pytest.raises(ArgError):
            load_event_file(_write(tmp_path, ""), bins=0, resolution=(2, 2))

    def test_binning_matches_hand_oracle(self, tmp_path):
        # independent oracle: equal-duration bins over [t_min, t_max], last
        # bin closed on the right
        rng = np.random.default_rng(7)
        h = w = 6
        bins = 4
        events = []
        for _ in range(100):
            events.append((int(rng.integers(0, 5000)), int(rng.integers(0, w)),
                           int(rng.integers(0, h)), int(rng.integers(0, 2))))
        text = "".join(f"{ts},{x},{y},{p}\n" for ts, x, y, p in events)
        got = load_event_file(_write(tmp_path, text), bins=bins, resolution=(h, w))

        t0 = min(e[0] for e in events)
        t1 = max(e[0] for e in events)
        want = np.zeros((bins, 1, 1, h, w), dtype=np.uint8)
        for ts, x, y, _ in events:
            if t1 == t0:
                b = 0
            else:
                b = min(bins - 1, int((ts - t0) * bins / (t1 - t0)))
            want[b, 0, 0, y, x] = 1
        assert np.array_equal(got.data, want)

    def test_all_same_timestamp_goes_to_first_bin(self, tmp_path):
        s = load_event_file(_write(tmp_path, "5,0,0,1\n5,1,1,0\n"), bins=3,
                            resolution=(2, 2))
        assert s.data[0].sum() == 2 and s.data[1:].sum() == 0
