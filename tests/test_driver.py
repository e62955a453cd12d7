import copy
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from frostsim import cli, driver, mechanics, transport_solver
from frostsim.constitutive import THETA_MAX, THETA_MIN, TransportParams
from frostsim.errors import (ConfigError, DegenerateElementError, DomainError,
                             MeshFormatError, SingularSystemError,
                             StepFailureError)
from frostsim.ice import IceModel, IceParams
from frostsim.mechanics import MechParams, neighbour_pairs
from frostsim.mesh import (BoundaryTag, Mesh, generate_lshape,
                           generate_rectangle, load_mesh, write_mesh)

CLIMATE_HEADER = "time_h,theta_ext_C,phi_ext,rain_kg_m2_s,swr_W_m2"
ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def assert_records_equal(got, want):
    """Probe records equal field by field, bitwise."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for f in fields(driver.ProbeRecord):
            np.testing.assert_array_equal(getattr(a, f.name),
                                          getattr(b, f.name), f.name)


def constant_climate(tmp_path, theta=14.0, phi=0.5, hours=10):
    path = tmp_path / "climate.csv"
    lines = [CLIMATE_HEADER]
    lines += [f"{h},{theta},{phi},0.0,0.0" for h in (0, hours)]
    path.write_text("\n".join(lines) + "\n")
    return path


def small_run_config(tmp_path, steps=2, **extra):
    cfg = {
        "mesh": {"h": 0.2},
        "time": {"steps": steps},
    }
    cfg.update(extra)
    return cfg


# draft 2020-12 corner cases, each with the path it is rejected at or
# None when it is valid
EDGE_CASES = [
    ({"time": {"dt_s": True}}, "time/dt_s"),
    ({"time": {"steps": True}}, "time/steps"),
    ({"numerics": {"lumped_capacity": 1}}, "numerics/lumped_capacity"),
    ({"time": {"steps": 1.0}}, None),
    ({"time": {"steps": 2.5}}, "time/steps"),
    ({"mechanics": {"body_force": [0.0]}}, "mechanics/body_force"),
    ({"mechanics": {"body_force": [0.0, -9.8, 0.0]}}, "mechanics/body_force"),
    ({"mechanics": {"body_force": [0.0, "down"]}}, "mechanics/body_force/1"),
    ({"probes": None}, None),
    ({"probes": []}, None),
    ({"probes": [-1]}, "probes/0"),
    ({"probes": 3}, "probes"),
    ({"material": {"capillary_exponent": "cubic"}},
     "material/capillary_exponent"),
    ({"material": {"capillary_exponent": None}},
     "material/capillary_exponent"),
    ({"material": {"capillary_exponent": "kunzel"}}, None),
    ({"ice": {"n": 1.0}}, "ice/n"),
    ({"ice": {"n": 0}}, "ice/n"),
    ({"transfer": {"alpha_swr": 1}}, None),
    ({"mesh": {"file": 3}}, "mesh/file"),
    ({"mesh": None}, "mesh"),
    ({"bogus": 1}, "(top level)"),
    ({"bogus": 1, "extra": {}}, "(top level)"),
    ({"numerics": {"relax": 0.5, "bogus": 1}}, "numerics"),
]


class TestDefaultConfig:
    def test_model_sections_are_class_defaults(self):
        cfg = driver.DEFAULT_CONFIG
        init = {cls: [f.name for f in fields(cls) if f.init]
                for cls in (TransportParams, IceParams, MechParams)}
        assert list(cfg["material"]) == init[TransportParams]
        assert list(cfg["ice"]) == init[IceParams] + ["psd_file"]
        assert list(cfg["mechanics"]) == [
            name for name in init[MechParams] if name != "n"]
        assert TransportParams(**cfg["material"]) == TransportParams()
        ice = {k: v for k, v in cfg["ice"].items() if k != "psd_file"}
        assert IceParams(**ice) == IceParams()
        mech = {**cfg["mechanics"], "n": cfg["ice"]["n"],
                "body_force": tuple(cfg["mechanics"]["body_force"])}
        assert MechParams(**mech) == MechParams()
        assert cfg["mechanics"]["body_force"] == [0.0, 0.0]

    def test_sections_match_schema(self):
        # a parameter-class field without a schema entry fails here
        props = driver._schema()["properties"]
        assert set(driver.DEFAULT_CONFIG) == set(props)
        for name, section in driver.DEFAULT_CONFIG.items():
            if isinstance(section, dict):
                assert set(section) == set(props[name]["properties"]), name

    def test_library_defaults_are_the_config_defaults(self):
        # a library caller gets the time and numerics settings that
        # `frostsim run` takes from the default config
        time = driver.DEFAULT_CONFIG["time"]
        numerics = driver.DEFAULT_CONFIG["numerics"]
        picard = {"tol": numerics["picard_tol"],
                  "max_iter": numerics["picard_max_iter"],
                  "relax": numerics["relax"]}
        problem = transport_solver.TransportProblem
        expect = {
            problem.__init__: {"lumped_capacity": numerics["lumped_capacity"]},
            problem.step: {"gamma": time["gamma"], **picard},
            problem.advance: {"max_halvings": numerics["max_halvings"]},
            transport_solver.nonlinear_iterate: picard,
            mechanics.MechanicsProblem.solve: {
                "tol": numerics["damage_tol"],
                "max_iter": numerics["damage_max_iter"]},
        }
        for function, values in expect.items():
            params = inspect.signature(function).parameters
            got = {name: params[name].default for name in values}
            assert got == values, function.__qualname__

    @pytest.mark.parametrize("section", ["initial", "interior"])
    def test_set_up_temperature_within_the_fits(self, section):
        # the property fits hold on [THETA_MIN, THETA_MAX]; a set-up
        # temperature outside would only fail at the first solve
        theta = driver._schema()["properties"][section]["properties"]["theta"]
        assert (theta["minimum"], theta["maximum"]) == (THETA_MIN, THETA_MAX)


class TestValidateConfig:
    def test_empty_config_gets_all_defaults(self):
        cfg = driver.validate_config({})
        assert cfg == driver.DEFAULT_CONFIG

    def test_partial_override_merges(self):
        cfg = driver.validate_config({"time": {"steps": 5}})
        assert cfg["time"]["steps"] == 5
        assert cfg["time"]["dt_s"] == 3600.0
        assert cfg["material"]["w_f"] == 160.0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="top level"):
            driver.validate_config({"bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="mesh"):
            driver.validate_config({"mesh": {"bogus": 1}})

    def test_wrong_type(self):
        with pytest.raises(ConfigError, match="time/steps"):
            driver.validate_config({"time": {"steps": "many"}})

    def test_bad_time_values(self):
        # the schema rejects them; the messages name its paths
        with pytest.raises(ConfigError, match="time/steps"):
            driver.validate_config({"time": {"steps": 0}})
        with pytest.raises(ConfigError, match="time/gamma"):
            driver.validate_config({"time": {"gamma": 1.5}})
        with pytest.raises(ConfigError, match="time/dt_s"):
            driver.validate_config({"time": {"dt_s": 0.0}})

    @pytest.mark.parametrize("fragment, spot", [
        ({"time": {"dt_s": math.nan}}, "time/dt_s"),
        ({"material": {"w_f": math.inf}}, "material/w_f"),
        ({"interior": {"theta": -math.inf}}, "interior/theta"),
        ({"mechanics": {"body_force": [0.0, math.nan]}},
         "mechanics/body_force/1"),
    ])
    def test_non_finite_numbers(self, fragment, spot):
        with pytest.raises(ConfigError, match=f"at {spot}: numbers must be "
                                              "finite"):
            driver.validate_config(fragment)

    def test_explicit_nulls_equal_defaults(self):
        cfg = driver.validate_config({
            "mesh": {"file": None}, "ice": {"psd_file": None},
            "climate": {"file": None}, "probes": None,
            "output": {"dir": None}})
        assert cfg == driver.DEFAULT_CONFIG

    def test_missing_data_file(self):
        with pytest.raises(ConfigError, match="no such file"):
            driver.validate_config({"climate": {"file": "/nope/climate.csv"}})

    def test_bundled_psd_aliases_skip_existence_check(self):
        cfg = driver.validate_config({"ice": {"psd_file": "spec02",
                                              "n": 0.13}})
        assert cfg["ice"]["psd_file"] == "spec02"

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        climate = constant_climate(tmp_path)
        cfg = driver.validate_config({"climate": {"file": climate.name}},
                                     base_dir=tmp_path)
        assert cfg["climate"]["file"] == str(climate)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            driver.validate_config([1, 2, 3])

    @pytest.mark.parametrize("fragment, spot", EDGE_CASES)
    def test_edge_cases(self, fragment, spot):
        if spot is None:
            driver.validate_config(fragment)
        else:
            with pytest.raises(ConfigError,
                               match=f"invalid config at {re.escape(spot)}: "):
                driver.validate_config(fragment)

    def test_integral_floats_become_ints(self):
        cfg = driver.validate_config({
            "time": {"steps": 3.0},
            "numerics": {"picard_max_iter": 5.0, "damage_max_iter": 3.0},
            "output": {"probe_every": 2.0}, "probes": [1.0, 4]})
        values = [cfg["time"]["steps"], cfg["numerics"]["picard_max_iter"],
                  cfg["numerics"]["damage_max_iter"],
                  cfg["output"]["probe_every"], *cfg["probes"]]
        assert values == [3, 5, 3, 2, 1, 4]
        assert all(type(v) is int for v in values)
        # number fields keep what they were given
        cfg = driver.validate_config({"time": {"dt_s": 60.0, "gamma": 1}})
        assert type(cfg["time"]["dt_s"]) is float
        assert type(cfg["time"]["gamma"]) is int

    def test_caller_config_left_unchanged(self):
        fragment = {"time": {"steps": 2.0}, "probes": [1.0]}
        cfg = driver.validate_config(fragment)
        assert fragment == {"time": {"steps": 2.0}, "probes": [1.0]}
        assert type(fragment["time"]["steps"]) is float
        cfg["probes"].append(7)
        assert fragment["probes"] == [1.0]

    def test_at_most_three_paths_sorted(self):
        fragment = {"time": {"steps": 0, "gamma": 2.0, "dt_s": -1.0},
                    "mesh": {"h": 0}}
        with pytest.raises(ConfigError) as info:
            driver.validate_config(fragment)
        assert str(info.value).startswith(
            "invalid config at mesh/h; time/dt_s; time/gamma: 0 is ")


def random_fragment(rng: random.Random, schema: dict):
    """A value near what ``schema`` accepts: mostly of the right shape,
    sometimes of the wrong type, at or past a bound or with unknown keys.
    Every number is finite; jsonschema does not check that."""
    if rng.random() < 0.08:
        return rng.choice([None, True, False, 0, 1, -1, 0.5, 2.0, 1e300,
                           "x", "", [], {}, [1.0], {"a": 1}])
    if "enum" in schema:
        return rng.choice(schema["enum"] + ["other", 3, None])
    kind = schema.get("type")
    if isinstance(kind, list):
        kind = rng.choice(kind)
    if kind == "object":
        props = schema["properties"]
        keys = rng.sample(sorted(props), rng.randint(0, min(4, len(props))))
        value = {key: random_fragment(rng, props[key]) for key in keys}
        if rng.random() < 0.08:
            value[rng.choice(["bogus", "Mesh", ""])] = 1
        return value
    if kind == "array":
        return [random_fragment(rng, schema["items"])
                for _ in range(rng.randint(0, 3))]
    if kind in ("number", "integer"):
        edge = rng.choice([schema[key] for key in (
            "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
            if key in schema] or [0])
        return rng.choice([edge, float(edge), edge + 1, edge - 1,
                           edge + 0.5, edge - 1e-9, edge + 1e-9, 7.0, 2.5])
    if kind == "string":
        return rng.choice(["x", "spec02", ""])
    if kind == "boolean":
        return rng.choice([True, False])
    return None


def schema_nodes(schema: dict):
    """``schema`` and every subschema in it."""
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from schema_nodes(sub)
    if isinstance(schema.get("items"), dict):
        yield from schema_nodes(schema["items"])


class TestSchemaWalker:
    def test_matches_jsonschema(self):
        # jsonschema stays a test-only oracle for the walker
        jsonschema = pytest.importorskip("jsonschema")
        schema = driver._schema()
        validator = jsonschema.Draft202012Validator(schema)
        rng = random.Random(20201)
        fragments = [fragment for fragment, _ in EDGE_CASES]
        fragments += [random_fragment(rng, schema) for _ in range(5000)]
        outcomes = Counter()
        for fragment in fragments:
            errors = []
            driver._conform(fragment, schema, (), errors)
            want = {tuple(err.absolute_path)
                    for err in validator.iter_errors(fragment)}
            assert {spot for spot, _ in errors} == want, fragment
            outcomes[bool(want)] += 1
        assert outcomes[True] > 1000 and outcomes[False] > 1000, outcomes

    def test_schema_uses_only_known_keywords(self):
        # a keyword the walker does not know (say "pattern") would be
        # ignored without a word, so the schema may use none
        schema = driver._schema()
        assert set().union(*schema_nodes(schema)) <= driver._SCHEMA_KEYWORDS
        for node in schema_nodes(schema):
            assert node.get("additionalProperties", False) is False
            kinds = node.get("type", [])
            for kind in [kinds] if isinstance(kinds, str) else kinds:
                assert kind in {*driver._PY_TYPES, "number", "integer"}
        edited = copy.deepcopy(schema)
        edited["properties"]["output"]["properties"]["probe_file"][
            "pattern"] = "[.]csv$"
        assert "pattern" in set().union(*schema_nodes(edited)) \
            - driver._SCHEMA_KEYWORDS

    def test_schema_parsed_once(self):
        assert driver._schema() is driver._schema()


def test_import_adds_only_stdlib():
    # numpy, scipy.sparse and scipy.linalg are the set-up floor; the
    # driver and the CLI may add nothing to it beyond frostsim and the
    # standard library, and scipy.sparse.linalg stays out
    script = (
        "import sys\n"
        "import numpy, scipy.sparse, scipy.linalg\n"
        "before = set(sys.modules)\n"
        "import frostsim.driver, frostsim.cli\n"
        "allowed = sys.stdlib_module_names | {'frostsim'}\n"
        "print(sorted(name for name in set(sys.modules) - before\n"
        "             if name.split('.')[0] not in allowed))\n"
        "print('scipy.sparse.linalg' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "False"]


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, {"time": {"steps": 3}})
        cfg = driver.load_config(path)
        assert cfg["time"]["steps"] == 3

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            driver.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            driver.load_config(tmp_path / "absent.json")


class TestDefaultProbes:
    def test_corner_bisector_on_reference_mesh(self):
        mesh = generate_lshape(1.0, 0.4, 0.05)
        probes = driver.default_probes(mesh)
        assert len(probes) == 5
        got = mesh.nodes[probes]
        line = np.linspace(0.0, 0.4, 5)
        np.testing.assert_allclose(got, np.column_stack([line, line]),
                                   atol=1e-12)

    def test_rectangle_without_interior_tag(self):
        mesh = generate_rectangle(1.0, 1.0, 4, 4)
        probes = driver.default_probes(mesh)
        xs = mesh.nodes[probes, 0]
        ys = mesh.nodes[probes, 1]
        np.testing.assert_allclose(ys, xs, atol=1e-12)
        assert xs[0] == 0.0 and ys[0] == 0.0
        assert np.all(np.diff(xs) > 0.0)
        assert xs[-1] <= 0.5 + 1e-12


class TestNodeAverager:
    @staticmethod
    def dense(mesh):
        """The area-weighted element-to-node average, (N x E) dense."""
        W = np.zeros((mesh.num_nodes, mesh.num_elements))
        for e, corners in enumerate(mesh.elements):
            W[corners, e] = mesh.areas[e]
        return W / W.sum(axis=1, keepdims=True)

    def test_shared_node_gets_area_weighted_mean(self):
        mesh = generate_rectangle(1.0, 1.0, 1, 1)
        rows = driver._probe_rows(mesh, np.arange(mesh.num_nodes))
        vals = np.array([2.0, 10.0])
        out = rows @ vals
        counts = np.bincount(mesh.elements.ravel(),
                             minlength=mesh.num_nodes)
        shared = counts == 2
        # equal element areas: shared nodes average, others copy
        np.testing.assert_allclose(out[shared], 6.0, rtol=1e-14)
        assert set(np.round(out[~shared], 12)) <= {2.0, 10.0}

    def test_probe_rows_of_the_dense_average(self, lshape_coarse):
        mesh = lshape_coarse
        probes = np.array([7, 0, mesh.num_nodes - 1, 7])
        rows = driver._probe_rows(mesh, probes)
        assert rows.shape == (4, mesh.num_elements)
        np.testing.assert_allclose(rows.toarray(), self.dense(mesh)[probes],
                                   rtol=1e-15, atol=0.0)


class TestProbeCsv:
    def records(self):
        nodes = np.array([3, 7], dtype=np.int64)
        return [
            driver.ProbeRecord(1.0, nodes, np.array([14.0, -1.5]),
                               np.array([0.5, 0.61]),
                               np.array([0.0, 5.8e6]),
                               np.array([0.0, 0.25]),
                               np.array([0.0, 1.2e-6])),
            driver.ProbeRecord(2.0, nodes, np.array([13.0, -2.5]),
                               np.array([0.52, 0.63]),
                               np.array([10.0, 6.1e6]),
                               np.array([0.0, 0.30]),
                               np.array([1e-9, 1.5e-6])),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "probes.csv"
        recs = self.records()
        driver.write_probe_csv(recs, path)
        assert_records_equal(driver.read_probe_csv(path), recs)

    def test_layout(self, tmp_path):
        path = tmp_path / "probes.csv"
        driver.write_probe_csv(self.records(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == driver._PROBE_HEADER
        assert len(lines) == 5                     # 2 times x 2 nodes
        assert lines[1].startswith("1.0,3,14.0,0.5,0.0,")
        assert "np" not in path.read_text()

    def test_empty_records(self, tmp_path):
        # run never writes one, so reading one back is a fault
        path = tmp_path / "probes.csv"
        driver.write_probe_csv([], path)
        assert path.read_text() == driver._PROBE_HEADER + "\n"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "
                                              "no data rows$"):
            driver.read_probe_csv(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="expected header 'time_h,node,"):
            driver.read_probe_csv(path)

    @pytest.mark.parametrize("row, fault", [
        ("2.0,7,13.0,0.52", "row 3 needs 7 columns"),
        ("2.0,7,13.0,0.52,x,0.3,1e-6", "row 3 is not numeric")])
    def test_bad_row_names_file_and_row(self, tmp_path, row, fault):
        path = tmp_path / "probes.csv"
        path.write_text(f"{driver._PROBE_HEADER}\n1.0,3,14.0,0.5,0,0,0\n"
                        f"{row}\n")
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(path))}: {fault}$"):
            driver.read_probe_csv(path)

    def test_groups_consecutive_rows_by_time(self, tmp_path):
        path = tmp_path / "probes.csv"
        path.write_text(f"{driver._PROBE_HEADER}\n" + "".join(
            f"{t},{node},0,0,0,0,0\n"
            for t, node in ((1.0, 3), (1.0, 7), (2.0, 3), (1.0, 3))))
        recs = driver.read_probe_csv(path)
        assert [r.time_h for r in recs] == [1.0, 2.0, 1.0]
        assert [r.nodes.tolist() for r in recs] == [[3, 7], [3], [3]]


class TestSnapshot:
    def test_golden_file(self, tmp_path, unit_triangle):
        fields = driver.StepFields(
            theta=np.array([0.1, -2.5, 14.0]),
            phi=np.array([0.5, 0.75, 1.0]),
            u=np.array([1e-6, 2e-6, 0.0, 0.0, -3.5e-7, 4e-22]),
            p_p=np.array([5.8e6]),
            d_w=np.array([0.25]),
            kappa=np.array([3e-4]))
        path = tmp_path / "snap.vtk"
        driver.write_field_snapshot(unit_triangle, fields, path,
                                    title="tiny")
        expected = [
            "# vtk DataFile Version 3.0",
            "tiny",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            "POINTS 3 double",
            "0.0 0.0 0.0",
            "1.0 0.0 0.0",
            "0.0 1.0 0.0",
            "CELLS 1 4",
            "3 0 1 2",
            "CELL_TYPES 1",
            "5",
            "POINT_DATA 3",
            "SCALARS theta_C double 1",
            "LOOKUP_TABLE default",
            "0.1",
            "-2.5",
            "14.0",
            "SCALARS phi double 1",
            "LOOKUP_TABLE default",
            "0.5",
            "0.75",
            "1.0",
            "VECTORS displacement_m double",
            "1e-06 2e-06 0.0",
            "0.0 0.0 0.0",
            "-3.5e-07 4e-22 0.0",
            "CELL_DATA 1",
            "SCALARS p_p_Pa double 1",
            "LOOKUP_TABLE default",
            "5800000.0",
            "SCALARS d_w double 1",
            "LOOKUP_TABLE default",
            "0.25",
            "SCALARS kappa double 1",
            "LOOKUP_TABLE default",
            "0.0003",
        ]
        assert path.read_text().splitlines() == expected

    def test_bytes_match_per_value_format(self, tmp_path):
        # seeded values with 17-digit shortest forms, a negative zero and a
        # subnormal, on a mesh with several elements; the expected text is
        # the snapshot format spelled one repr(float(v)) per numpy scalar
        mesh = generate_rectangle(1.0, 0.7, 3, 2)
        n, e = mesh.num_nodes, mesh.num_elements
        rng = np.random.default_rng(11)
        fields = driver.StepFields(
            theta=rng.normal(0.0, 10.0, n), phi=rng.uniform(0.0, 1.0, n),
            u=rng.normal(0.0, 1e-6, 2 * n), p_p=rng.uniform(0.0, 1e7, e),
            d_w=rng.uniform(0.0, 1.0, e), kappa=rng.uniform(0.0, 1e-3, e))
        fields.u[2] = -0.0
        fields.d_w[0] = 5e-324

        def scalars(name, values):
            return ([f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
                    + [repr(float(v)) for v in values])

        expected = (["# vtk DataFile Version 3.0", "frostsim fields", "ASCII",
                     "DATASET UNSTRUCTURED_GRID", f"POINTS {n} double"]
                    + [f"{float(x)!r} {float(y)!r} 0.0" for x, y in mesh.nodes]
                    + [f"CELLS {e} {4 * e}"]
                    + [f"3 {a} {b} {c}" for a, b, c in mesh.elements]
                    + [f"CELL_TYPES {e}"] + ["5"] * e + [f"POINT_DATA {n}"]
                    + scalars("theta_C", fields.theta)
                    + scalars("phi", fields.phi)
                    + ["VECTORS displacement_m double"]
                    + [f"{float(fields.u[2 * i])!r} "
                       f"{float(fields.u[2 * i + 1])!r} 0.0" for i in range(n)]
                    + [f"CELL_DATA {e}"] + scalars("p_p_Pa", fields.p_p)
                    + scalars("d_w", fields.d_w)
                    + scalars("kappa", fields.kappa))
        path = tmp_path / "snap.vtk"
        driver.write_field_snapshot(mesh, fields, path)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert b"\n-0.0 " in path.read_bytes()


class TestRun:
    def test_global_equilibrium_is_inert(self, tmp_path):
        climate = constant_climate(tmp_path)
        cfg = small_run_config(
            tmp_path, steps=1,
            climate={"file": str(climate)},
            interior={"theta": 14.0, "phi": 0.5},
            initial={"theta": 14.0, "phi": 0.5})
        summary = driver.run(cfg)
        # the startup rate seed carries solver roundoff into the first
        # predictor, so equilibrium holds to machine precision, not bitwise
        np.testing.assert_allclose(summary.transport.theta, 14.0,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(summary.transport.phi, 0.5,
                                   rtol=0.0, atol=1e-13)
        np.testing.assert_array_equal(summary.mechanics.d_w, 0.0)
        np.testing.assert_allclose(summary.mechanics.u, 0.0, atol=1e-18)
        np.testing.assert_array_equal(summary.pore_pressure_history, 0.0)
        np.testing.assert_array_equal(summary.picard_iterations, [0])
        assert summary.outputs == []
        assert len(summary.records) == 1
        assert summary.records[0].time_h == 1.0

    @pytest.mark.parametrize("l_intl", [None, 0.06])
    def test_nonlocal_pairs_recorded(self, tmp_path, l_intl):
        extra = {} if l_intl is None else {"mechanics": {"l_intl": l_intl}}
        summary = driver.run(small_run_config(tmp_path, steps=1, **extra))
        length = l_intl or MechParams().l_intl
        expect = len(neighbour_pairs(summary.mesh.centroids, 3.0 * length))
        assert summary.nonlocal_pairs == expect
        assert (expect > 0) == (l_intl is not None)

    def test_two_runs_are_identical(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=4)
        a = driver.run(copy.deepcopy(cfg))
        b = driver.run(copy.deepcopy(cfg))
        np.testing.assert_array_equal(a.transport.theta, b.transport.theta)
        np.testing.assert_array_equal(a.transport.phi, b.transport.phi)
        np.testing.assert_array_equal(a.damage_history, b.damage_history)
        assert_records_equal(a.records, b.records)

    def test_probe_csv_bytes_reproducible(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=2)
        driver.run(copy.deepcopy(cfg), out_dir=tmp_path / "one")
        driver.run(copy.deepcopy(cfg), out_dir=tmp_path / "two")
        first = (tmp_path / "one" / "probes.csv").read_bytes()
        second = (tmp_path / "two" / "probes.csv").read_bytes()
        assert first == second
        assert len(first) > len(driver._PROBE_HEADER)

    def test_output_cadence(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_run_config(
            tmp_path, steps=3,
            output={"probe_every": 2, "snapshot_every": 2})
        summary = driver.run(cfg, out_dir=out)
        names = sorted(p.name for p in summary.outputs)
        assert names == ["probes.csv", "snapshot_00002.vtk",
                         "snapshot_00003.vtk"]
        for path in summary.outputs:
            assert path.is_file()
        assert [r.time_h for r in summary.records] == [2.0, 3.0]
        text = (out / "snapshot_00002.vtk").read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert_records_equal(driver.read_probe_csv(out / "probes.csv"),
                             summary.records)

    def test_snapshots_can_be_disabled(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=2,
                               output={"write_snapshots": False})
        summary = driver.run(cfg, out_dir=tmp_path / "out")
        assert [p.name for p in summary.outputs] == ["probes.csv"]

    def test_history_shapes(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=3)
        summary = driver.run(cfg)
        e = summary.mesh.num_elements
        assert summary.damage_history.shape == (4, e)
        assert summary.kappa_history.shape == (4, e)
        assert summary.pore_pressure_history.shape == (4, e)
        assert summary.picard_iterations.shape == (3,)
        np.testing.assert_array_equal(summary.damage_history[0], 0.0)
        assert np.all(summary.picard_iterations >= 1)

    def test_factorisations_per_step(self, tmp_path, monkeypatch):
        made = []
        iterate = transport_solver.nonlinear_iterate

        def recording(*args, **kwargs):
            result = iterate(*args, **kwargs)
            made.append(result.factorisations)
            return result

        monkeypatch.setattr(transport_solver, "nonlinear_iterate", recording)
        summary = driver.run(small_run_config(tmp_path, steps=4))
        per_step = summary.factorisations
        assert per_step.shape == summary.picard_iterations.shape == (4,)
        assert per_step.sum() == sum(made)
        # the first step factorises, the steps after it start from its
        # factor, and no update makes more than one
        assert per_step[0] >= 1
        assert per_step[1:].sum() < summary.picard_iterations[1:].sum()
        assert np.all(per_step <= summary.picard_iterations)

    def test_mechanics_factorisations_per_step(self, tmp_path, monkeypatch):
        made = []

        class CountingCholesky(mechanics.BandedCholesky):
            def __init__(self, band):
                super().__init__(band)
                made.append(self)

        monkeypatch.setattr(mechanics, "BandedCholesky", CountingCholesky)
        summary = driver.run(small_run_config(tmp_path, steps=3))
        per_step = summary.mechanics_factorisations
        assert per_step.shape == (3,)
        assert per_step.sum() == len(made)
        # the undamaged stiffness of the first step is kept
        assert per_step[0] == 1

    def test_damage_iterations_per_step(self, tmp_path, monkeypatch):
        iterations = []
        solve = mechanics.MechanicsProblem.solve

        def recording(self, *args, **kwargs):
            state = solve(self, *args, **kwargs)
            iterations.append(state.iterations)
            return state

        monkeypatch.setattr(mechanics.MechanicsProblem, "solve", recording)
        summary = driver.run(small_run_config(tmp_path, steps=3))
        assert summary.damage_iterations.shape == (3,)
        assert summary.damage_iterations.tolist() == iterations
        assert np.all(summary.damage_iterations >= 1)
        assert np.all(summary.mechanics_factorisations
                      <= summary.damage_iterations)

    def test_halvings_per_step(self, tmp_path, monkeypatch):
        step = transport_solver.TransportProblem.step
        calls = []

        def refuse_second(self, state, dt, **options):
            calls.append(dt)
            if len(calls) == 2:
                raise StepFailureError("synthetic refusal", residual_norm=1.0,
                                       iterations=0)
            return step(self, state, dt, **options)

        monkeypatch.setattr(transport_solver.TransportProblem, "step",
                            refuse_second)
        summary = driver.run(small_run_config(tmp_path, steps=4))
        # the second step is refused once and done as two halves
        assert calls == [calls[0]] * 2 + [0.5 * calls[0]] * 2 + [calls[0]] * 2
        assert summary.halvings.dtype == summary.picard_iterations.dtype
        np.testing.assert_array_equal(summary.halvings, [0, 1, 0, 0])

    def test_explicit_probes(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=1, probes=[0, 5])
        summary = driver.run(cfg)
        np.testing.assert_array_equal(summary.probe_nodes, [0, 5])
        np.testing.assert_array_equal(summary.records[0].nodes, [0, 5])

    def test_probe_ids_validated(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=1, probes=[10 ** 6])
        with pytest.raises(ConfigError, match="probe ids"):
            driver.run(cfg)
        with pytest.raises(ConfigError):
            driver.run(small_run_config(tmp_path, steps=1, probes=[]))

    def test_step_failure_carries_context(self, tmp_path):
        cfg = small_run_config(
            tmp_path, steps=1,
            numerics={"picard_tol": 1e-30, "picard_max_iter": 2,
                      "max_halvings": 0})
        with pytest.raises(StepFailureError, match="step 1"):
            driver.run(cfg)

    def test_damage_nonconvergence_is_step_failure(self, tmp_path):
        cfg = small_run_config(tmp_path, steps=1, mechanics={"f_t": 1e3},
                               numerics={"damage_max_iter": 1})
        with pytest.raises(StepFailureError,
                           match="mechanics failed at step 1") as info:
            driver.run(cfg)
        assert info.value.iterations == 1

    def test_build_models_follows_config(self):
        cfg = driver.validate_config({
            "material": {"w_80": 30.0},
            "ice": {"psd_file": "spec02", "n": 0.13},
            "mechanics": {"f_t": 1.5e6, "body_force": [0.0, -1.0]}})
        params, ice, mech = driver.build_models(cfg)
        assert params.w_80 == 30.0
        assert ice.params.n == mech.n == 0.13
        assert mech.f_t == 1.5e6
        assert mech.body_force == (0.0, -1.0)


class TestSolverFailures:
    """Every solver error of a step, from transport, ice or mechanics,
    reaches the caller as its own type, named by its stage, its step and
    the step's start hour, and the CLI exits 3 on it."""

    STAGES = [("transport", transport_solver.TransportProblem, "advance"),
              ("ice", IceModel, "pore_pressure"),
              ("mechanics", mechanics.MechanicsProblem, "solve")]
    KINDS = [StepFailureError, DomainError, SingularSystemError]

    @staticmethod
    def fail_second_call(monkeypatch, owner, attr, kind):
        """Make ``owner.attr`` raise a ``kind`` at its second call, and
        return that error."""
        error = (StepFailureError("synthetic fault", residual_norm=2.0,
                                  iterations=3, residuals=[1.0, 3.0, 2.0])
                 if kind is StepFailureError else kind("synthetic fault"))
        original = getattr(owner, attr)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise error
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, failing)
        return error

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("stage, owner, attr", STAGES)
    def test_run_names_the_step_and_stage(self, tmp_path, monkeypatch,
                                          stage, owner, attr, kind):
        error = self.fail_second_call(monkeypatch, owner, attr, kind)
        with pytest.raises(kind) as info:
            driver.run(small_run_config(tmp_path, steps=3))
        assert str(info.value) == (f"{stage} failed at step 2 "
                                   "(t = 1 h + 3600 s): synthetic fault")
        assert info.value.__cause__ is error
        if kind is StepFailureError:
            assert info.value.residuals == [1.0, 3.0, 2.0]
            assert (info.value.residual_norm, info.value.iterations) \
                == (2.0, 3)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("stage, owner, attr", STAGES)
    def test_cli_exits_3_naming_the_step_and_stage(
            self, tmp_path, monkeypatch, capsys, stage, owner, attr, kind):
        self.fail_second_call(monkeypatch, owner, attr, kind)
        path = write_config(tmp_path, small_run_config(tmp_path, steps=3))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.strip() == (
            f"solver failure: {stage} failed at step 2 (t = 1 h + 3600 s): "
            "synthetic fault")


class TestCli:
    def test_check_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        assert cli.main(["check-config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "1.043809524" in out
        assert "0.00025" in out

    def test_check_config_prints_derived_values(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "ice": {"psd_file": "spec02", "n": 0.13},
            "mechanics": {"f_t": 1.5e6, "E": 8e9}})
        assert cli.main(["check-config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "b      = 0.2300884956" in lines
        assert f"eps_0  = {1.5e6 / 8e9:.10g}" in lines

    def test_check_config_rejects_bad_file(self, tmp_path, capsys):
        path = write_config(tmp_path, {"time": {"steps": 0}})
        assert cli.main(["check-config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("fragment", [
        {"time": {"gamma": math.nan}}, {"time": {"steps": "many"}},
        {"bogus": 1}])
    def test_check_config_rejects_each_fault(self, tmp_path, capsys,
                                             fragment):
        path = write_config(tmp_path, fragment)
        assert cli.main(["check-config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("section, name", [("mesh", "spec01"),
                                               ("climate", "spec02")])
    def test_bundled_psd_name_is_no_file(self, tmp_path, capsys, section,
                                         name):
        # only ice.psd_file knows the bundled names; elsewhere they name a
        # missing file, which must stop at validation, not at the I/O later
        path = write_config(tmp_path, {section: {"file": name}})
        assert cli.main(["check-config", str(path)]) == 2
        assert f"{section}.file: no such file" in capsys.readouterr().err
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        assert f"{section}.file: no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("fragment, message", [
        ({"probes": [100000]}, "probe ids must lie in [0, "),
        ({"probes": []}, "probes must be a non-empty list"),
        ({"mesh": {"file": "bad.mesh"}}, "expected a node line"),
        ({"climate": {"file": "bad.csv"}}, "expected header"),
        # table faults start with the file's name
        ({"climate": {"file": "latin1.csv"}},
         "latin1.csv: not UTF-8 text (byte 3)"),
        ({"ice": {"psd_file": "latin1.csv"}},
         "latin1.csv: not UTF-8 text (byte 3)"),
        ({"ice": {"psd_file": "empty.csv"}}, "empty.csv: no data rows"),
        ({"ice": {"psd_file": "rising.csv"}},
         "rising.csv: cumulative porosity must be non-increasing"),
        # NaN passes every comparison of the series and table checks
        ({"climate": {"file": "nan.csv"}}, "nan.csv: row 3 is not finite"),
        ({"ice": {"psd_file": "nan_psd.csv"}},
         "nan_psd.csv: row 3 is not finite"),
        # outside the property fits' [-40, 60] degC
        ({"initial": {"theta": 80}},
         "initial/theta: 80 is greater than the maximum of 60"),
        ({"interior": {"theta": -60}},
         "interior/theta: -60 is less than the minimum of -40"),
    ])
    def test_set_up_faults_stop_both_commands(self, tmp_path, capsys,
                                              fragment, message):
        # what run builds before its first solve, check-config builds too:
        # both stop with exit 2 and the same message
        (tmp_path / "bad.mesh").write_text("nodes 2\n0 0.0 0.0\n")
        (tmp_path / "bad.csv").write_text("time,theta\n0.0,1.0\n")
        (tmp_path / "latin1.csv").write_bytes(b"# M\xf6rtel\n")
        (tmp_path / "empty.csv").write_text("radius_m,cum_porosity\n")
        (tmp_path / "rising.csv").write_text(
            "radius_m,cum_porosity\n1e-8,0.2\n1e-7,0.3\n")
        (tmp_path / "nan.csv").write_text(
            f"{CLIMATE_HEADER}\n0,1,0.5,0,0\nnan,1,nan,0,0\n")
        (tmp_path / "nan_psd.csv").write_text(
            "radius_m,cum_porosity\n1e-8,0.35\nnan,nan\n1e-6,0.0\n")
        path = write_config(tmp_path, {"mesh": {"h": 0.2}, **fragment})
        assert cli.main(["check-config", str(path)]) == 2
        checked = capsys.readouterr()
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        ran = capsys.readouterr()
        assert checked.out == ran.out == ""
        assert checked.err == ran.err
        assert checked.err.startswith("config error: ")
        assert message in checked.err

    @pytest.mark.parametrize("content", [
        b"nodes 2\n0 0.0 0.0\n", b"# M\xf6rtel\nnodes 3\n",
        b"nodes 3\n0 0.0 0.0\n1 nan 0.0\n2 0.0 1.0\nelements 1\n0 0 1 2\n"
        b"bedges 3\n0 0 EXT\n0 1 EXT\n0 2 EXT\n",
        b"nodes 0\nelements 0\nbedges 0\n",
        b"nodes 3\n0 0.0 0.0\n1 1.0 0.0\n2 2.0 0.0\nelements 1\n0 0 1 2\n"
        b"bedges 3\n0 0 EXT\n0 1 EXT\n0 2 EXT\n"])
    def test_mesh_file_faults_name_the_file(self, tmp_path, capsys,
                                            content):
        # a truncated file, one that is not UTF-8, a NaN coordinate, a
        # mesh without a triangle and a collinear triangle
        mesh_path = tmp_path / "bad.mesh"
        mesh_path.write_bytes(content)
        with pytest.raises((MeshFormatError, DegenerateElementError)) as exc:
            load_mesh(mesh_path)
        assert str(exc.value).startswith(f"{mesh_path}: ")
        path = write_config(tmp_path, {"mesh": {"file": str(mesh_path)}})
        for argv in (["check-config", str(path)],
                     ["run", "--config", str(path),
                      "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == f"config error: {exc.value}\n"

    def test_mesh_tags_that_free_a_rigid_body_mode(self, tmp_path, capsys):
        # B edges retagged EXT leave only face A's u_x held: the y
        # translation is free, which is a config fault, not a solve
        mesh = generate_lshape(1.0, 0.4, 0.1)
        tags = np.where(mesh.bedge_tag == BoundaryTag.B, BoundaryTag.EXT,
                        mesh.bedge_tag)
        mesh_path = tmp_path / "a_only.mesh"
        write_mesh(Mesh(mesh.nodes, mesh.elements,
                        np.column_stack([mesh.bedge_elem, mesh.bedge_local,
                                         tags])), mesh_path)
        path = write_config(tmp_path, {"mesh": {"file": str(mesh_path)},
                                       "time": {"steps": 1}})
        for argv in (["check-config", str(path)],
                     ["run", "--config", str(path),
                      "--out", str(tmp_path / "out")]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert "2 of the 3 rigid body modes" in err

    def test_config_not_utf8_stops_both_commands(self, tmp_path, capsys):
        # the byte is counted from the start of the file, mark included
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xef\xbb\xbf{"note": "M\xf6rtel"}')
        for argv in (["check-config", str(path)],
                     ["run", "--config", str(path)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == (
                f"config error: {path}: not UTF-8 text (byte 14)\n")

    def test_run_nan_gamma_is_config_error(self, tmp_path, capsys):
        # JSON's NaN passes the schema's [0, 1] bounds on time.gamma;
        # validate_config rejects it before any model is built
        path = tmp_path / "nan.json"
        path.write_text('{"mesh": {"h": 0.2}, '
                        '"time": {"steps": 1, "gamma": NaN}}')
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "time/gamma: numbers must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, spot", [
        ('{"time": {"dt_s": NaN}}', "time/dt_s"),
        ('{"mechanics": {"E": Infinity}}', "mechanics/E"),
    ])
    def test_run_non_finite_is_config_error(self, tmp_path, capsys, text,
                                            spot):
        # both reached the solver before and failed there with exit 3
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{spot}: numbers must be finite" in capsys.readouterr().err

    def test_run_integral_float_iteration_caps(self, tmp_path, capsys):
        # both caps used to reach range() as floats and raise TypeError
        cfg = small_run_config(
            tmp_path, steps=1,
            numerics={"picard_max_iter": 5.0, "damage_max_iter": 3.0})
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        assert "completed 1 steps" in capsys.readouterr().out

    def test_run_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "results"
        path = write_config(tmp_path, small_run_config(tmp_path, steps=1))
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 0
        assert (out / "probes.csv").is_file()
        assert "completed 1 steps" in capsys.readouterr().out

    def test_run_without_out_writes_to_configured_dir(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, steps=1, output={"dir": "results"})
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "results" / "probes.csv").is_file()
        assert "completed 1 steps" in capsys.readouterr().out

    def test_run_missing_config_is_config_error(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "no.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_run_solver_failure_exit_code(self, tmp_path, capsys):
        cfg = small_run_config(
            tmp_path, steps=1,
            numerics={"picard_tol": 1e-30, "picard_max_iter": 2,
                      "max_halvings": 0})
        path = write_config(tmp_path, cfg)
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "solver failure" in capsys.readouterr().err

    def test_run_damage_failure_exit_code(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, steps=1, mechanics={"f_t": 1e3},
                               numerics={"damage_max_iter": 1})
        path = write_config(tmp_path, cfg)
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3
        assert "mechanics failed at step 1" in capsys.readouterr().err

    def test_make_mesh(self, tmp_path, capsys):
        target = tmp_path / "wall.mesh"
        assert cli.main(["make-mesh", "--outer", "1.0", "--thickness",
                         "0.4", "--h", "0.1", "--out", str(target)]) == 0
        mesh = load_mesh(target)
        assert mesh.num_nodes > 0
        assert str(target) in capsys.readouterr().out

    def test_make_mesh_bad_geometry(self, tmp_path, capsys):
        code = cli.main(["make-mesh", "--outer", "0.4", "--thickness",
                         "1.0", "--h", "0.1",
                         "--out", str(tmp_path / "bad.mesh")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_material_curves(self, tmp_path, capsys):
        path = write_config(tmp_path, {})
        out = tmp_path / "curves"
        assert cli.main(["material-curves", "--config", str(path),
                         "--out", str(out)]) == 0
        for name in ("moisture.csv", "thermal.csv", "ice.csv"):
            text = (out / name).read_text()
            assert len(text.splitlines()) > 100
            assert "np" not in text
        capsys.readouterr()

    def test_material_curves_follow_pore_table(self, tmp_path, capsys):
        texts = {}
        for spec, n in (("spec01", 0.35), ("spec02", 0.13)):
            path = write_config(tmp_path, {"ice": {"psd_file": spec, "n": n}},
                                name=f"{spec}.json")
            out = tmp_path / spec
            assert cli.main(["material-curves", "--config", str(path),
                             "--out", str(out)]) == 0
            texts[spec] = (out / "ice.csv").read_text()
        assert texts["spec01"] != texts["spec02"]
        capsys.readouterr()
