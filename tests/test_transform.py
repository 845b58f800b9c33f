import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kanmark import transform
from kanmark.numeric import ShapeError
from kanmark.transform import dct, idct

from oracles import dct_direct, idct_direct, perturb

finite_vec = st.lists(st.floats(-100, 100), min_size=1, max_size=64)


class TestDct:
    def test_single_point(self):
        assert np.allclose(dct([3.25]), [3.25], atol=1e-15)

    def test_constant_signal_is_pure_dc(self):
        for n in (1, 4, 9):
            spec = dct(np.full(n, 2.5))
            assert spec[0] == pytest.approx(2.5 * np.sqrt(n), rel=1e-12)
            assert np.all(np.abs(spec[1:]) < 1e-12)

    def test_known_pair(self):
        assert np.allclose(dct([1.0, 0.0]), [0.7071068, 0.7071068], atol=1e-7)

    def test_cached_matrix_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            transform._dct_matrix(4)[0, 0] = 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dct([])
        with pytest.raises(ValueError):
            idct([])

    @given(finite_vec)
    @example([0.0] * 18 + [34.0, -83.0, 98.0])  # round-off 1.009e-12 at max|x| 98
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, vec):
        # Round-off grows with the entries: over 20,000 random vectors of
        # length 1-64 in +-100 the worst error was below 4e-14 * max|x|.
        x = np.array(vec)
        assert np.max(np.abs(idct(dct(x)) - x)) < 1e-13 * max(1.0, np.max(np.abs(x)))

    def test_round_trip_large(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 17, 64, 256):
            x = rng.normal(size=n)
            assert np.max(np.abs(idct(dct(x)) - x)) < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=16), rng.normal(size=16)
        lhs = dct(2.5 * x - 1.5 * y)
        rhs = 2.5 * dct(x) - 1.5 * dct(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(2)
        for n in (1, 5, 32, 128):
            x = rng.normal(size=n)
            assert np.linalg.norm(dct(x)) == pytest.approx(
                np.linalg.norm(x), abs=1e-10)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 65))
            x = rng.normal(size=n)
            assert np.max(np.abs(dct(x) - dct_direct(x))) < 1e-10
            assert np.max(np.abs(idct(x) - idct_direct(x))) < 1e-10


class TestIdct:
    def test_unit_dc(self):
        assert np.allclose(idct([1.0, 0.0, 0.0, 0.0]), [0.5, 0.5, 0.5, 0.5],
                           atol=1e-12)

    def test_known_pair(self):
        assert np.allclose(idct([0.0, 1.0]), [0.7071068, -0.7071068], atol=1e-7)


class TestPerturb:
    """The ``perturb`` reference of oracles.py, which the signal-step tests
    compare against."""

    def test_zero_perturbation(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=12)
        assert np.max(np.abs(perturb(y, np.zeros(12)) - y)) < 1e-12

    def test_energy_equals_perturbation_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y, p = rng.normal(size=20), rng.normal(size=20)
            assert np.linalg.norm(perturb(y, p) - y) == pytest.approx(
                np.linalg.norm(p), abs=1e-10)

    def test_known_value(self):
        out = perturb([1.0, 0.0], [0.0, 0.1])
        assert np.allclose(out, [1.0707107, -0.0707107], atol=1e-7)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            perturb(np.zeros(3), np.zeros(4))

    def test_rows_variant_matches_per_row(self):
        rng = np.random.default_rng(6)
        ys = rng.normal(size=(5, 9))
        p = rng.normal(size=9)
        batch = perturb(ys, p)
        for i in range(5):
            assert np.max(np.abs(batch[i] - perturb(ys[i], p))) < 1e-12
