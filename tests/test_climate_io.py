import numpy as np
import pytest

from frostsim import climate_io
from frostsim.errors import ClimateFormatError

HEADER = "time_h,theta_ext_C,phi_ext,rain_kg_m2_s,swr_W_m2"


def write_rows(path, rows, header=HEADER):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestLoad:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        write_rows(path, [(0, -5.0, 0.8, 0.0, 0.0),
                          (1, -3.0, 0.9, 1e-5, 150.0)])
        series = climate_io.load_climate(path)
        assert len(series.times_s) == 2
        np.testing.assert_array_equal(series.times_s, [0.0, 3600.0])
        np.testing.assert_array_equal(series.theta, [-5.0, -3.0])
        np.testing.assert_array_equal(series.phi, [0.8, 0.9])
        np.testing.assert_array_equal(series.rain, [0.0, 1e-5])
        np.testing.assert_array_equal(series.swr, [0.0, 150.0])

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "c.csv"
        write_rows(path, [(0, 0, 0.5, 0, 0)], header="t,a,b,c,d")
        with pytest.raises(ClimateFormatError, match="header"):
            climate_io.load_climate(path)

    def test_bad_row_named_by_number(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(HEADER + "\n0,1,0.5,0,0\n1,x,0.5,0,0\n")
        with pytest.raises(ClimateFormatError, match="row 3"):
            climate_io.load_climate(path)

    def test_short_row(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(HEADER + "\n0,1,0.5\n")
        with pytest.raises(ClimateFormatError, match="row 2"):
            climate_io.load_climate(path)

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(HEADER + "\n")
        with pytest.raises(ClimateFormatError, match="no data"):
            climate_io.load_climate(path)

    def test_humidity_out_of_range(self, tmp_path):
        path = tmp_path / "c.csv"
        write_rows(path, [(0, 0, 0.5, 0, 0), (1, 0, 1.2, 0, 0)])
        with pytest.raises(ClimateFormatError, match="phi_ext"):
            climate_io.load_climate(path)

    def test_times_must_increase(self, tmp_path):
        path = tmp_path / "c.csv"
        write_rows(path, [(0, 0, 0.5, 0, 0), (0, 1, 0.5, 0, 0)])
        with pytest.raises(ClimateFormatError, match="increasing"):
            climate_io.load_climate(path)

    def test_negative_rain_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        write_rows(path, [(0, 0, 0.5, -1e-6, 0)])
        with pytest.raises(ClimateFormatError, match="rain"):
            climate_io.load_climate(path)

    def test_bundled_month(self):
        from frostsim.driver import _data_file
        series = climate_io.load_climate(_data_file("climate_winter_744h.csv"))
        assert len(series.times_s) == 745
        assert series.times_s[-1] == pytest.approx(744.0 * 3600.0)
        assert series.theta.min() < -8.0
        assert series.theta.max() > 0.0
        assert series.rain.max() > 0.0
        # wet before the first hard frost
        first_rain = series.times_s[series.rain > 0.0][0]
        first_hard_frost = series.times_s[series.theta < -4.0][0]
        assert first_rain < first_hard_frost


class TestSampling:
    def series(self):
        return climate_io.ClimateSeries(
            [3600.0, 2 * 3600.0], [1.0, 10.0], [0.4, 0.8],
            [0.0, 2e-5], [0.0, 100.0])

    def test_knots_exact(self):
        s = self.series()
        at = s.sample(3600.0)
        assert at.theta == 1.0
        assert at.phi == 0.4
        assert at.rain == 0.0
        assert at.swr == 0.0

    def test_midpoint_linear(self):
        at = self.series().sample(1.5 * 3600.0)
        assert at.theta == pytest.approx(5.5)
        assert at.phi == pytest.approx(0.6)
        assert at.rain == pytest.approx(1e-5)
        assert at.swr == pytest.approx(50.0)

    def test_ends_held(self):
        s = self.series()
        assert s.sample(0.0).theta == 1.0
        assert s.sample(1e9).theta == 10.0
        assert s.sample(1e9).phi == 0.8

    def test_columns_read_only(self):
        s = self.series()
        with pytest.raises(ValueError):
            s.theta[0] = 99.0


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        src = climate_io.synthetic_winter_series(48)
        path = tmp_path / "out.csv"
        climate_io.write_climate_csv(src, path)
        back = climate_io.load_climate(path)
        np.testing.assert_array_equal(back.times_s, src.times_s)
        np.testing.assert_array_equal(back.theta, src.theta)
        np.testing.assert_array_equal(back.phi, src.phi)
        np.testing.assert_array_equal(back.rain, src.rain)
        np.testing.assert_array_equal(back.swr, src.swr)

    def test_no_numpy_reprs_in_file(self, tmp_path):
        path = tmp_path / "out.csv"
        climate_io.write_climate_csv(climate_io.synthetic_winter_series(5),
                                     path)
        assert "np" not in path.read_text()


class TestSyntheticSeries:
    def test_shape_and_bounds(self):
        s = climate_io.synthetic_winter_series(744)
        assert len(s.times_s) == 745
        assert np.all(s.phi >= 0.55) and np.all(s.phi <= 0.98)
        assert np.all(s.rain >= 0.0)
        assert np.all(s.swr >= 0.0)
        assert np.all(np.diff(s.times_s) == 3600.0)

    def test_deterministic(self):
        a = climate_io.synthetic_winter_series(100)
        b = climate_io.synthetic_winter_series(100)
        np.testing.assert_array_equal(a.theta, b.theta)
        np.testing.assert_array_equal(a.rain, b.rain)

    def test_freeze_thaw_cycles(self):
        s = climate_io.synthetic_winter_series(744)
        crossings = np.sum(np.diff(np.sign(s.theta)) != 0)
        assert crossings >= 10

    def test_too_short(self):
        with pytest.raises(ClimateFormatError):
            climate_io.synthetic_winter_series(1)
