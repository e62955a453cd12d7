"""The text-file boundary: a leading byte-order mark is not content."""

import numpy as np
import pytest

from frostsim import climate_io, driver, ice, mesh

MESH = ("nodes 3\n0 0.0 0.0\n1 1.0 0.0\n2 0.0 1.0\nelements 1\n0 0 1 2\n"
        "bedges 3\n0 0 EXT\n0 1 EXT\n0 2 EXT\n")
CLIMATE = ("time_h,theta_ext_C,phi_ext,rain_kg_m2_s,swr_W_m2\n"
           "0,-5.0,0.8,0.0,0.0\n1,-3.0,0.9,1e-05,150.0\n")
PSD = "radius_m,cum_porosity\n1e-08,0.35\n1e-07,0.1\n1e-06,0.0\n"


@pytest.mark.parametrize("load, text, view", [
    (driver.load_config, '{"time": {"steps": 3}}', dict),
    (mesh.load_mesh, MESH,
     lambda m: (m.nodes, m.elements, m.bedge_local, m.bedge_tag)),
    (climate_io.load_climate, CLIMATE,
     lambda s: (s.times_s, s.theta, s.phi, s.rain, s.swr)),
    (ice.load_psd_csv, PSD, lambda p: (p.radii, p.cum_porosity)),
], ids=["config", "mesh", "climate", "psd"])
def test_byte_order_mark_is_skipped(tmp_path, load, text, view):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    np.testing.assert_equal(view(load(marked)), view(load(plain)))
