"""scripts/make_fixtures.py regenerates the bundled data byte for byte."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "make_fixtures.py"
spec = importlib.util.spec_from_file_location("make_fixtures", SCRIPT)
make_fixtures = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_fixtures)


def test_bundled_data_reproduced(tmp_path):
    make_fixtures.write_fixtures(tmp_path)
    for name in ("psd_spec01.csv", "psd_spec02.csv",
                 "climate_winter_744h.csv"):
        bundled = ROOT / "src" / "frostsim" / "data" / name
        assert (tmp_path / name).read_bytes() == bundled.read_bytes(), name
