import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanmark import spline
from kanmark.data import PIXEL_VALUES
from kanmark.numeric import NonFiniteError
from kanmark.spline import basis_and_slopes, build_grid

from oracles import basis_derivative_naive, basis_vector_naive


def basis_rows(grid, x):
    return basis_and_slopes(grid, x)[0]


def slope_rows(grid, x):
    return basis_and_slopes(grid, x)[1]()


class TestBuildGrid:
    def test_degree_zero_no_extension(self):
        grid = build_grid(0, 2, 0.0, 1.0)
        assert np.allclose(grid.knots, [0.0, 0.5, 1.0])
        assert grid.basis_count == 2

    def test_degree_one_extension(self):
        grid = build_grid(1, 2, 0.0, 1.0)
        assert np.allclose(grid.knots, [-0.5, 0.0, 0.5, 1.0, 1.5])

    def test_cubic_default_domain(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        assert len(grid.knots) == 12
        assert grid.basis_count == 8
        assert grid.knots[0] == pytest.approx(-2.2, abs=1e-12)
        assert np.allclose(np.diff(grid.knots), 0.4)

    @pytest.mark.parametrize("args", [(-1, 5, 0, 1), (3, 0, 0, 1), (3, 5, 1, 1),
                                      (3, 5, 2, 1), (3, 5, 0, np.inf),
                                      (3, 5, -np.inf, 1), (3, 5, np.nan, 1),
                                      (1.5, 5, 0, 1), (True, 5, 0, 1), (3, 5.0, 0, 1),
                                      (3, True, 0, 1)])
    def test_invalid_arguments(self, args):
        with pytest.raises(ValueError):
            build_grid(*args)

    # At degree 1 only one end overflows: the knot at 2e308 above [0, 1e308],
    # or the one at -2e308 below [-1.5e308, -5e307]. (Below [-1e308, 0] the
    # product h * (intervals + degree) overflows too.)
    @pytest.mark.parametrize("args", [(3, 5, -1e308, 1e308), (0, 5, -1e308, 1e308),
                                      (3, 1, 0.0, 1.7e308), (2, 4, -1.7e308, 0.0),
                                      (3, 5, 1e16, 1e16 + 2), (1, 1, 0.0, 1e308),
                                      (1, 2, -1.5e308, -5e307)],
                             ids=["spacing_overflows", "spacing_overflows_degree_0",
                                  "top_knot_overflows", "bottom_knot_overflows",
                                  "knots_coincide", "top_extension_knot_overflows",
                                  "bottom_extension_knot_overflows"])
    def test_span_whose_knots_overflow_or_coincide(self, args):
        # No RuntimeWarning either: the suite turns one into an error.
        with pytest.raises(ValueError, match="overflows|coincide"):
            build_grid(*args)

    @pytest.mark.parametrize("bound", [{"t_min": -np.inf}, {"t_max": np.inf}])
    def test_infinite_bound_is_not_finite(self, bound):
        # Not the overflow message that an infinite spacing would raise later.
        with pytest.raises(ValueError, match="need finite"):
            build_grid(**bound)

    def test_signed_zero_bounds_become_positive_zero(self):
        grids = build_grid(3, 5, -0.0, 1.0), build_grid(3, 5, -1.0, -0.0)
        assert [np.copysign(1.0, g.t_min) for g in grids] == [1.0, -1.0]
        assert [np.copysign(1.0, g.t_max) for g in grids] == [1.0, 1.0]

    def test_spacing_that_underflows_to_0_makes_knots_coincide(self):
        # The end knots are then finite and equal: the span is too narrow,
        # not overflowing.
        with pytest.raises(ValueError, match="knots coincide at spacing 0.0"):
            build_grid(3, 5, 0.0, 5e-324)

    def test_knots_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            build_grid().knots[0] = 0.0

    def test_wide_finite_span_accepted(self):
        grid = build_grid(3, 5, -1e307, 1e307)
        assert np.all(np.isfinite(grid.knots)) and np.all(np.diff(grid.knots) > 0)


class TestBasisValues:
    def test_degree_zero_indicator(self):
        grid = build_grid(0, 2, 0.0, 1.0)
        assert np.allclose(basis_rows(grid, [0.25])[0], [1.0, 0.0])
        assert np.allclose(basis_rows(grid, [0.75])[0], [0.0, 1.0])

    def test_partition_of_unity(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        xs = np.random.default_rng(0).uniform(-1, 1, size=1000)
        sums = basis_rows(grid, xs).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-9)

    @given(degree=st.integers(0, 4), intervals=st.integers(1, 9),
           u=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity_any_grid(self, degree, intervals, u):
        grid = build_grid(degree, intervals, -2.0, 3.0)
        x = -2.0 + 5.0 * u
        assert abs(basis_rows(grid, [x])[0].sum() - 1.0) < 1e-9

    def test_range_and_locality(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        xs = np.random.default_rng(1).uniform(-1, 1, size=200)
        vals = basis_rows(grid, xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all((vals > 0).sum(axis=1) <= grid.degree + 1)

    def test_matches_recursive_oracle(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        for x in np.random.default_rng(2).uniform(-1, 1, size=25):
            assert np.allclose(basis_rows(grid, [x])[0],
                               basis_vector_naive(grid, x), atol=1e-12)
        assert np.allclose(basis_rows(grid, [0.1])[0],
                           basis_vector_naive(grid, 0.1), atol=1e-12)

    def test_clamping_is_exact(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        assert np.array_equal(basis_rows(grid, [3.7, -9.0]), basis_rows(grid, [1.0, -1.0]))

    def test_partition_holds_at_boundaries(self):
        for degree in (0, 1, 3):
            grid = build_grid(degree, 4, -1.0, 1.0)
            assert basis_rows(grid, [-1.0])[0].sum() == pytest.approx(1.0, abs=1e-12)
            assert basis_rows(grid, [1.0])[0].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_a_nan_point_is_refused(self, degree, where):
        x = [0.1, 0.2, 0.3]
        x[where] = np.nan
        with pytest.raises(NonFiniteError, match="nan"):
            basis_and_slopes(build_grid(degree, 5), x)

    def test_infinite_points_clamp(self):
        grid = build_grid(2, 5)
        b, slopes = basis_and_slopes(grid, [-np.inf, 0.1, np.inf])
        want, want_slopes = basis_and_slopes(grid, [-1.0, 0.1, 1.0])
        assert np.array_equal(b, want)
        assert np.array_equal(slopes()[1], want_slopes()[1])
        assert not slopes()[[0, 2]].any()  # the clamped basis is flat out there


class TestBasisDerivatives:
    def test_sum_is_zero(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        xs = np.random.default_rng(3).uniform(-1, 1, size=500)
        sums = slope_rows(grid, xs).sum(axis=1)
        assert np.all(np.abs(sums) < 1e-9)

    def test_hat_function_slopes(self):
        grid = build_grid(1, 2, 0.0, 1.0)
        d = slope_rows(grid, [0.25])[0]
        # hat centered at 0: falling at 1/spacing; hat centered at 0.5: rising
        assert d[0] == pytest.approx(-2.0, rel=1e-12)
        assert d[1] == pytest.approx(2.0, rel=1e-12)

    def test_matches_finite_difference(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        h = 1e-6
        rng = np.random.default_rng(4)
        # keep points away from knots so the central difference is clean
        for x in rng.uniform(-0.95, 0.95, size=30):
            if np.min(np.abs(grid.knots - x)) < 1e-3:
                continue
            fd = (basis_rows(grid, [x + h])[0] - basis_rows(grid, [x - h])[0]) / (2 * h)
            d = slope_rows(grid, [x])[0]
            err = np.abs(d - fd) / np.maximum(np.abs(fd), 1.0)
            assert err.max() < 1e-5

    def test_degree_zero_is_flat(self):
        grid = build_grid(0, 3, 0.0, 1.0)
        assert np.all(slope_rows(grid, [0.1, 0.5, 0.9]) == 0.0)

    def test_outside_domain_is_zero(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        assert np.all(slope_rows(grid, [2.5])[0] == 0.0)
        assert np.all(slope_rows(grid, [-1.5])[0] == 0.0)


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("intervals", range(1, 10))
def test_local_basis_matches_oracles_at_knots_and_edges(degree, intervals):
    # Every knot, both domain ends (t_max lies in the extension interval for
    # degree >= 1) and points 1e-12 outside, on a grid whose knots are inexact.
    grid = build_grid(degree, intervals, -2.0, 3.0)
    xs = np.concatenate([grid.knots, [grid.t_min, grid.t_max, grid.t_min - 1e-12,
                                      grid.t_max + 1e-12, grid.t_min + 1e-12,
                                      grid.t_max - 1e-12]])
    values, derivatives = basis_rows(grid, xs), slope_rows(grid, xs)
    for x, got, dgot in zip(xs, values, derivatives):
        want = basis_vector_naive(grid, x)
        if degree == 0 and x >= grid.t_max:  # the last knot joins the final interval
            want = np.eye(grid.basis_count)[-1]
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(dgot - basis_derivative_naive(grid, x))) < 1e-12


def evaluated_sizes(monkeypatch) -> list:
    """Sizes of the inputs that basis_and_slopes hands to the Cox-de Boor
    evaluator from now on; the pixel tables start empty."""
    sizes, evaluate = [], spline._evaluate

    def counted(grid, x):
        sizes.append(x.size)
        return evaluate(grid, x)

    monkeypatch.setattr(spline, "_evaluate", counted)
    spline._pixel_table.cache_clear()
    return sizes


def rows_bytes(grid, x) -> tuple:
    b, slopes = basis_and_slopes(grid, x)
    return b.shape, b.tobytes(), slopes().tobytes()


class TestPixelTable:
    """Inputs that are all 8-bit pixel values read their rows from a table
    of the 256 PIXEL_VALUES on the grid, byte for byte the evaluator's."""

    @given(degree=st.integers(0, 3), intervals=st.integers(1, 9),
           t_min=st.floats(-3.0, 0.5), width=st.floats(0.25, 6.0),
           first=st.sampled_from([0, 255]) | st.integers(0, 255),
           rest=st.lists(st.integers(0, 255), max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_evaluators_bytes(self, degree, intervals, t_min, width,
                                           first, rest):
        grid = build_grid(degree, intervals, t_min, t_min + width)
        x = PIXEL_VALUES[[first, *rest]]
        want_b, want_slopes = spline._evaluate(grid, x)
        assert rows_bytes(grid, x) == (want_b.shape, want_b.tobytes(),
                                       want_slopes().tobytes())

    def test_signed_zero_bounds_give_the_same_bytes(self):
        # Grids that compare equal share a table, so they must clamp alike:
        # points beyond a bound of -0.0 clamp to 0.0, not to -0.0.
        x = [-0.5, 0.25, 0.5, 2.0]
        for degree in (1, 3):
            for low, high in [(-0.0, 1.0), (-1.0, -0.0)]:
                assert rows_bytes(build_grid(degree, 4, low, high), x) == \
                    rows_bytes(build_grid(degree, 4, low + 0.0, high + 0.0), x)

    def test_no_points_give_no_rows(self):
        assert rows_bytes(build_grid(), np.empty((0, 3))) == ((0, 8), b"", b"")

    @pytest.mark.parametrize("first", [0, 255, 1, 127, 128, 254])
    def test_pixel_inputs_are_gathered_from_the_table(self, monkeypatch, first):
        sizes = evaluated_sizes(monkeypatch)
        grid = build_grid(3, 5, -1.0, 1.0)
        x = PIXEL_VALUES[[first, *range(256)]].reshape(1, -1)
        for _ in range(3):
            _, slopes = basis_and_slopes(grid, x)
            slopes()
        assert sizes == [256]  # the table's one fill

    @pytest.mark.parametrize("where", [0, 50, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("stray", [0.0, np.nextafter(PIXEL_VALUES[7], 0.0), 1.5,
                                       -np.inf],
                             ids=["between_pixels", "next_float", "above", "minus_inf"])
    def test_one_stray_point_sends_every_point_to_the_evaluator(
            self, monkeypatch, where, stray):
        grid = build_grid(2, 4, -1.0, 1.0)
        x = PIXEL_VALUES[np.arange(200) % 256]
        x[where] = stray
        want = rows_bytes(grid, x)
        sizes = evaluated_sizes(monkeypatch)
        assert rows_bytes(grid, x) == want
        assert sizes == [200]

    @pytest.mark.parametrize("where", [0, 50, -1], ids=["first", "middle", "last"])
    def test_a_nan_point_has_no_codes_and_no_warning(self, where):
        x = PIXEL_VALUES[np.arange(200) % 256]
        x[where] = np.nan
        assert spline._pixel_codes(x) is None

    def test_table_is_read_only(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        for a in spline._pixel_table(grid):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_gathered_rows_are_fresh_writable_arrays(self):
        grid = build_grid(3, 5, -1.0, 1.0)
        b, slopes = basis_and_slopes(grid, PIXEL_VALUES[:10])
        for a in (b, slopes()):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, t) for t in spline._pixel_table(grid))
