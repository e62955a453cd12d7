"""Simulation orchestration and output writing.

Each time step runs the one-way pipeline: advance the transport fields,
evaluate the crystallization pore pressure per element from the centroid
temperature, then solve mechanical equilibrium with the new loads. No
mechanical quantity feeds back into transport.

Configuration is a single JSON document validated against the bundled
schema; every omitted field falls back to the lime mortar reference
values, so ``run({})`` simulates the built-in winter scenario. Outputs
are a probe CSV (time series at selected nodes) and periodic legacy
ASCII VTK snapshots of all fields.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ._table import read_table, read_text, write_table
from .climate_io import load_climate
from .constitutive import TransportParams
from .errors import SOLVER_ERRORS, ConfigError, StepFailureError
from .ice import IceModel, IceParams, load_psd_csv
from .mechanics import MechanicsProblem, MechParams, MechState
from .mesh import BoundaryTag, Mesh, generate_lshape, load_mesh
from .transport_solver import (
    BoundaryFlux,
    KunzelCoefficients,
    RobinBC,
    TransportProblem,
    TransportState,
)

__all__ = [
    "DEFAULT_CONFIG", "ProbeRecord", "RunSummary", "StepFields",
    "build_models", "build_problems", "default_probes", "load_config",
    "validate_config", "run",
    "write_probe_csv", "read_probe_csv", "write_field_snapshot",
]


def _field_defaults(cls, skip: str = "") -> dict:
    return {f.name: f.default for f in fields(cls)
            if f.init and f.name != skip}


# Reference scenario: lime mortar wall cross section, one winter month.
# The material, ice and mechanics values are the defaults of the parameter
# classes, where their units are documented. The porosity n lives in the
# ice section only; it also sets the Biot coefficient. Null file entries
# select the data files bundled with the package.
DEFAULT_CONFIG: dict = {
    "mesh": {"file": None, "outer": 1.0, "thickness": 0.4, "h": 0.03},
    "material": _field_defaults(TransportParams),
    "ice": {**_field_defaults(IceParams), "psd_file": None},
    "mechanics": {**_field_defaults(MechParams, skip="n"),
                  "body_force": [0.0, 0.0]},
    "climate": {"file": None},
    "interior": {"theta": 24.0, "phi": 0.6},
    "transfer": {"alpha_h": 8.0, "beta_v": 5.6e-8, "alpha_swr": 0.6},
    "initial": {"theta": 14.0, "phi": 0.5},
    "time": {"dt_s": 3600.0, "steps": 744, "gamma": 0.5},
    "numerics": {
        "picard_tol": 1e-6, "picard_max_iter": 50, "relax": 1.0,
        "max_halvings": 4, "lumped_capacity": False,
        "damage_tol": 1e-4, "damage_max_iter": 30,
    },
    "probes": None,
    "output": {
        "dir": None, "probe_file": "probes.csv", "probe_every": 1,
        "snapshot_every": 24, "write_snapshots": True,
    },
}

_PROBE_HEADER = "time_h,node,theta_C,phi,p_p_Pa,d_w,u_mag_m"


def _data_file(name: str) -> Path:
    return Path(resources.files("frostsim.data").joinpath(name))


@functools.cache
def _schema() -> dict:
    """The bundled config schema, parsed on first use; callers must not
    change it."""
    return json.loads(read_text(_data_file("config_schema.json"), ConfigError))


# JSON types as draft 2020-12 defines them: a bool is neither a number
# nor an integer, and a float with no fractional part is an integer.
_PY_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
             "null": type(None)}
_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("maximum", operator.gt, "greater than the maximum of"),
    ("exclusiveMaximum", operator.ge,
     "greater than or equal to the maximum of"),
)


def _is_type(value, name: str) -> bool:
    if name in ("number", "integer"):
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and (name == "number" or isinstance(value, int)
                     or value.is_integer()))
    return isinstance(value, _PY_TYPES[name])


def _conform(value, schema: dict, path: tuple, errors: list):
    """Check ``value`` against ``schema`` in one walk.

    Appends ``(path, message)`` for each violation and for each NaN or
    infinite number, which Python's json reads but no schema bound
    rejects. Knows ``type``, ``enum``, ``properties``, ``items``, the
    item counts and the bounds of _BOUNDS, ignores ``$schema``, ``title``
    and ``description``, and knows ``additionalProperties`` only as
    ``false``. Returns a copy of
    ``value`` with each schema integer as an ``int``.
    """
    if isinstance(value, float) and not math.isfinite(value):
        errors.append((path, "numbers must be finite"))
        return value
    names = schema.get("type", ())
    names = [names] if isinstance(names, str) else names
    if names and not any(_is_type(value, name) for name in names):
        errors.append((path, f"{value!r} is not of type "
                             + ", ".join(map(repr, names))))
        return value
    if "enum" in schema and value not in schema["enum"]:
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if _is_type(value, "number"):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                errors.append((path, f"{value!r} is {words} {schema[key]!r}"))
        return int(value) if "integer" in names else value
    if isinstance(value, dict):
        props = schema.get("properties", {})
        extra = [key for key in value if key not in props]
        if extra and schema.get("additionalProperties") is False:
            errors.append((path, "unknown keys "
                           + ", ".join(map(repr, extra))))
        return {key: _conform(item, props[key], path + (key,), errors)
                if key in props else item for key, item in value.items()}
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append((path, f"{value!r} is too short"))
        if len(value) > schema.get("maxItems", math.inf):
            errors.append((path, f"{value!r} is too long"))
        items = schema.get("items", {})
        return [_conform(item, items, path + (i,), errors)
                for i, item in enumerate(value)]
    return value


def _merge_defaults(defaults, overrides):
    if not isinstance(defaults, dict):
        return overrides
    return {key: _merge_defaults(base, overrides[key]) if key in overrides
            else copy.deepcopy(base) for key, base in defaults.items()}


def validate_config(config: dict, base_dir: str | Path | None = None) -> dict:
    """Schema-check a config fragment and fill in every default.

    Relative file paths are resolved against ``base_dir`` (the config
    file's directory when loaded from disk, the working directory
    otherwise). Returns the normalized full config, with each schema
    integer as an ``int``.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    errors: list = []
    config = _conform(config, _schema(), (), errors)
    if errors:
        errors.sort(key=lambda err: err[0])
        spots = "; ".join("/".join(map(str, spot)) or "(top level)"
                          for spot, _ in errors[:3])
        raise ConfigError(f"invalid config at {spots}: {errors[0][1]}")
    cfg = _merge_defaults(DEFAULT_CONFIG, config)

    base = Path(base_dir) if base_dir is not None else Path.cwd()
    for section, key in (("mesh", "file"), ("ice", "psd_file"),
                         ("climate", "file")):
        value = cfg[section][key]
        if value is None or (key == "psd_file"
                             and value in ("spec01", "spec02")):
            continue
        if not Path(value).is_absolute():
            value = cfg[section][key] = str(base / value)
        if not Path(value).is_file():
            raise ConfigError(f"{section}.{key}: no such file: {value}")
    if cfg["output"]["dir"] is not None \
            and not Path(cfg["output"]["dir"]).is_absolute():
        cfg["output"]["dir"] = str(base / cfg["output"]["dir"])
    return cfg


def load_config(path: str | Path) -> dict:
    """Read, validate and normalize a JSON config file."""
    path = Path(path)
    try:
        text = read_text(path, ConfigError)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return validate_config(raw, base_dir=path.parent)


def _load_psd(ice_cfg: dict):
    name = ice_cfg["psd_file"] or "spec01"
    if name in ("spec01", "spec02"):
        name = _data_file(f"psd_{name}.csv")
    return load_psd_csv(name)


def build_models(cfg: dict) -> tuple[TransportParams, IceModel, MechParams]:
    """Material, ice and mechanics models of a validated config.

    The porosity of the ice section also sets the Biot coefficient.
    """
    ice_cfg = cfg["ice"]
    mech_cfg = cfg["mechanics"]
    transport_params = TransportParams(**cfg["material"])
    ice = IceModel(_load_psd(ice_cfg),
                   IceParams(**{key: value for key, value in ice_cfg.items()
                                if key != "psd_file"}))
    mech_params = MechParams(**{**mech_cfg, "n": ice_cfg["n"],
                                "body_force": tuple(mech_cfg["body_force"])})
    return transport_params, ice, mech_params


def default_probes(mesh: Mesh) -> np.ndarray:
    """Probe line through the coldest part of the wall.

    Five targets run along the bisector from the exterior corner (the node
    closest to the domain's minimum coordinates, where two exposed
    faces meet and frost bites deepest) to the re-entrant interior
    corner (the closest node tagged INT when the mesh has one, the
    domain center otherwise). Each target snaps to its nearest node
    and duplicates collapse.
    """
    nodes = mesh.nodes
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    interior = mesh.nodes_with_tag(BoundaryTag.INT)
    if len(interior):
        stop = nodes[interior[np.argmin(
            np.sum((nodes[interior] - lo) ** 2, axis=1))]]
    else:
        stop = 0.5 * (lo + hi)
    picked: list[int] = []
    for s in np.linspace(0.0, 1.0, 5):
        target = lo + s * (stop - lo)
        node = int(np.argmin(np.sum((nodes - target) ** 2, axis=1)))
        if node not in picked:
            picked.append(node)
    return np.array(picked, dtype=np.int64)


def build_problems(cfg: dict) -> tuple[TransportProblem, MechanicsProblem,
                                       np.ndarray]:
    """Transport and mechanics problems of a validated config, and its
    probe node ids: everything ``run`` builds, and checks, before its
    first solve. Raises the error ``run`` would for a mesh, climate or
    probe list that does not fit."""
    mesh_cfg, climate_file = cfg["mesh"], cfg["climate"]["file"]
    mesh = (load_mesh(mesh_cfg["file"]) if mesh_cfg["file"] is not None
            else generate_lshape(mesh_cfg["outer"], mesh_cfg["thickness"],
                                 mesh_cfg["h"]))
    transport_params, ice, mech_params = build_models(cfg)
    climate = load_climate(climate_file if climate_file is not None
                           else _data_file("climate_winter_744h.csv"))

    probes = cfg["probes"]
    if probes is None:
        probe_nodes = default_probes(mesh)
    else:
        probe_nodes = np.asarray(probes, dtype=np.int64)
        if probe_nodes.ndim != 1 or len(probe_nodes) == 0:
            raise ConfigError("probes must be a non-empty list of node ids")
        if probe_nodes.min() < 0 or probe_nodes.max() >= mesh.num_nodes:
            raise ConfigError(
                f"probe ids must lie in [0, {mesh.num_nodes})")

    transfer = cfg["transfer"]
    interior = cfg["interior"]
    robin = {
        BoundaryTag.EXT: RobinBC(
            transfer["alpha_h"], transfer["beta_v"],
            theta_amb=lambda t: climate.sample(t).theta,
            phi_amb=lambda t: climate.sample(t).phi),
        BoundaryTag.INT: RobinBC(
            transfer["alpha_h"], transfer["beta_v"],
            theta_amb=interior["theta"], phi_amb=interior["phi"]),
    }
    alpha_swr = transfer["alpha_swr"]
    flux = {
        BoundaryTag.EXT: BoundaryFlux(
            q_heat=lambda t: alpha_swr * climate.sample(t).swr,
            q_moist=lambda t: climate.sample(t).rain),
    }
    problem = TransportProblem(
        mesh, KunzelCoefficients(transport_params, ice_model=ice),
        robin=robin, flux=flux,
        lumped_capacity=cfg["numerics"]["lumped_capacity"])
    mechanics = MechanicsProblem(mesh, mech_params)
    del mesh.graph          # only set-up reads it; Mesh.graph rebuilds it
    return problem, mechanics, probe_nodes


def _probe_rows(mesh: Mesh, probes: np.ndarray) -> sp.csr_matrix:
    """Area-weighted element-to-node averages at the probe nodes, as the
    rows (probes x E) of a CSR matrix: row k weights each element around
    node probes[k] by its area over their sum. The areas sum as scipy sums
    a row, from the first element up, and each row lists its elements from
    the last down; that order fixes the round-off of every probe value."""
    row, elem, _ = np.nonzero(probes[:, None, None] == mesh.elements)
    areas = mesh.areas[elem]
    indptr = np.searchsorted(row, np.arange(len(probes) + 1))
    total = np.add.reduceat(areas, indptr[:-1])
    flip = indptr[row] + indptr[row + 1] - 1 - np.arange(len(row))
    return sp.csr_matrix((((1.0 / total)[row] * areas)[flip], elem[flip],
                          indptr), shape=(len(probes), mesh.num_elements))


@dataclass
class ProbeRecord:
    """All probe quantities at one output time."""

    time_h: float
    nodes: np.ndarray           # probe node ids
    theta: np.ndarray           # degC
    phi: np.ndarray             # -
    p_p: np.ndarray             # Pa, element average around the node
    d_w: np.ndarray             # -, element average around the node
    u_mag: np.ndarray           # m


@dataclass(frozen=True)
class StepFields:
    """Field arrays of one completed step, as written to snapshots."""

    theta: np.ndarray           # nodal, degC
    phi: np.ndarray             # nodal, -
    u: np.ndarray               # nodal, (2N,) interleaved x/y, m
    p_p: np.ndarray             # element, Pa
    d_w: np.ndarray             # element, -
    kappa: np.ndarray           # element, -


@dataclass
class RunSummary:
    """Final states plus the per-step histories a run accumulated."""

    config: dict
    mesh: Mesh
    transport: TransportState
    mechanics: MechState
    probe_nodes: np.ndarray
    records: list[ProbeRecord]
    damage_history: np.ndarray      # (steps + 1, E), row 0 pristine
    kappa_history: np.ndarray       # (steps + 1, E)
    pore_pressure_history: np.ndarray   # (steps + 1, E), Pa
    picard_iterations: np.ndarray   # (steps,)
    factorisations: np.ndarray      # (steps,) transport factorisations
    mechanics_factorisations: np.ndarray    # (steps,) stiffness factorisations
    damage_iterations: np.ndarray   # (steps,) mechanics damage iterations
    halvings: np.ndarray            # (steps,) failed substeps halved
    nonlocal_pairs: int             # centroid pairs within 3 l_intl
    outputs: list[Path] = field(default_factory=list)


def run(config: dict | str | Path | None = None,
        out_dir: str | Path | None = None) -> RunSummary:
    """Run a configured simulation; see module docstring for the pipeline.

    ``config`` may be a path to a JSON file, a (partial) config dict, or
    None for the built-in reference scenario. ``out_dir`` overrides the
    configured output directory; with neither set, nothing is written
    and the results live only on the returned summary. A solver error of
    a step (``errors.SOLVER_ERRORS``) is raised again as its own type,
    its message led by the stage, the step and the step's start hour.
    """
    if config is None:
        cfg = validate_config({})
    elif isinstance(config, (str, Path)):
        cfg = load_config(config)
    else:
        cfg = validate_config(config)
    if out_dir is not None:
        cfg["output"]["dir"] = str(out_dir)

    problem, mechanics, probe_nodes = build_problems(cfg)
    mesh, ice = problem.mesh, problem.coefficients.ice_model
    numerics = cfg["numerics"]
    initial = cfg["initial"]
    state = TransportState.uniform(mesh, initial["theta"], initial["phi"])
    state.rdot = problem.consistent_rates(state)
    theta_ref = float(initial["theta"])
    mstate = MechState.zero(mesh)

    timecfg = cfg["time"]
    dt = float(timecfg["dt_s"])
    steps = int(timecfg["steps"])
    gamma = float(timecfg["gamma"])
    outcfg = cfg["output"]
    out = Path(outcfg["dir"]) if outcfg["dir"] is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    e = mesh.num_elements
    damage_history = np.zeros((steps + 1, e))
    kappa_history = np.zeros((steps + 1, e))
    pressure_history = np.zeros((steps + 1, e))
    picard = np.zeros(steps, dtype=np.int64)
    factorisations = np.zeros(steps, dtype=np.int64)
    mech_factorisations = np.zeros(steps, dtype=np.int64)
    damage_iterations = np.zeros(steps, dtype=np.int64)
    halvings = np.zeros(steps, dtype=np.int64)
    probe_rows = _probe_rows(mesh, probe_nodes)
    records: list[ProbeRecord] = []
    outputs: list[Path] = []

    step_options = dict(gamma=gamma, tol=numerics["picard_tol"],
                        max_iter=numerics["picard_max_iter"],
                        relax=numerics["relax"])
    for k in range(1, steps + 1):
        when = f"at step {k} (t = {state.t / 3600.0:g} h + {dt:g} s)"
        stage = "transport"
        try:
            state = problem.advance(state, dt,
                                    max_halvings=numerics["max_halvings"],
                                    **step_options)
            stage = "ice"
            p_p = ice.pore_pressure(mesh.element_mean(state.theta))
            stage = "mechanics"
            mstate = mechanics.solve(theta=state.theta, theta_ref=theta_ref,
                                     p_p=p_p, prev=mstate,
                                     tol=numerics["damage_tol"],
                                     max_iter=numerics["damage_max_iter"])
        except SOLVER_ERRORS as err:
            raise _located(err, f"{stage} failed {when}") from err
        if not mstate.converged:
            raise StepFailureError(
                f"mechanics failed {when}: damage still moving after "
                f"{mstate.iterations} iterations",
                iterations=mstate.iterations)
        damage_history[k] = mstate.d_w
        kappa_history[k] = mstate.kappa
        pressure_history[k] = p_p
        picard[k - 1] = state.picard_iterations
        factorisations[k - 1] = state.factorisations
        mech_factorisations[k - 1] = mstate.factorisations
        damage_iterations[k - 1] = mstate.iterations
        halvings[k - 1] = state.halvings

        if k % outcfg["probe_every"] == 0 or k == steps:
            ux = mstate.u[2 * probe_nodes]
            uy = mstate.u[2 * probe_nodes + 1]
            records.append(ProbeRecord(
                time_h=state.t / 3600.0,
                nodes=probe_nodes.copy(),
                theta=state.theta[probe_nodes].copy(),
                phi=state.phi[probe_nodes].copy(),
                p_p=probe_rows @ p_p,
                d_w=probe_rows @ mstate.d_w,
                u_mag=np.hypot(ux, uy)))
        if out is not None and outcfg["write_snapshots"] \
                and (k % outcfg["snapshot_every"] == 0 or k == steps):
            fields = StepFields(state.theta, state.phi, mstate.u,
                                p_p, mstate.d_w, mstate.kappa)
            path = out / f"snapshot_{k:05d}.vtk"
            write_field_snapshot(mesh, fields, path,
                                 title=f"fields at t = {state.t / 3600.0:g} h")
            outputs.append(path)

    if out is not None:
        probe_path = out / outcfg["probe_file"]
        write_probe_csv(records, probe_path)
        outputs.append(probe_path)
    return RunSummary(cfg, mesh, state, mstate, probe_nodes, records,
                      damage_history, kappa_history, pressure_history,
                      picard, factorisations, mech_factorisations,
                      damage_iterations, halvings,
                      mechanics.averager.num_pairs, outputs)


def _located(err: Exception, where: str) -> Exception:
    """A solver error of err's type whose message starts with ``where``; a
    StepFailureError keeps its residual history."""
    if isinstance(err, StepFailureError):
        return StepFailureError(f"{where}: {err}",
                                residual_norm=err.residual_norm,
                                iterations=err.iterations,
                                residuals=err.residuals)
    return type(err)(f"{where}: {err}")


def write_probe_csv(records: list[ProbeRecord], path: str | Path) -> None:
    """Write probe records time-major, node-minor under a fixed header."""
    columns = zip(*(([float(rec.time_h)] * len(rec.nodes), rec.nodes,
                     rec.theta, rec.phi, rec.p_p, rec.d_w, rec.u_mag)
                    for rec in records))
    write_table(path, _PROBE_HEADER, [np.concatenate(c) for c in columns])


def read_probe_csv(path: str | Path) -> list[ProbeRecord]:
    """Read a probe CSV back into records, one per run of rows that share
    a time; faults raise ``ConfigError`` naming the file and the row."""
    data = read_table(Path(path), _PROBE_HEADER.split(","), ConfigError)
    runs = np.split(data, np.flatnonzero(np.diff(data[:, 0])) + 1)
    return [ProbeRecord(time_h=float(rows[0, 0]),
                        nodes=rows[:, 1].astype(np.int64), theta=rows[:, 2],
                        phi=rows[:, 3], p_p=rows[:, 4], d_w=rows[:, 5],
                        u_mag=rows[:, 6])
            for rows in runs]


def _vtk_scalars(name: str, values: np.ndarray) -> list[str]:
    lines = [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
    lines.extend(map(repr, np.asarray(values, dtype=float).tolist()))
    return lines


def write_field_snapshot(mesh: Mesh, fields: StepFields, path: str | Path,
                         title: str = "frostsim fields") -> None:
    """Write one legacy ASCII VTK unstructured grid snapshot."""
    n = mesh.num_nodes
    e = mesh.num_elements
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    lines.extend(f"{x!r} {y!r} 0.0" for x, y in mesh.nodes.tolist())
    lines.append(f"CELLS {e} {4 * e}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.elements.tolist())
    lines.append(f"CELL_TYPES {e}")
    lines.extend(["5"] * e)
    lines.append(f"POINT_DATA {n}")
    lines.extend(_vtk_scalars("theta_C", fields.theta))
    lines.extend(_vtk_scalars("phi", fields.phi))
    lines.append("VECTORS displacement_m double")
    u = np.asarray(fields.u, dtype=float).tolist()
    lines.extend(f"{ux!r} {uy!r} 0.0" for ux, uy in zip(u[0::2], u[1::2]))
    lines.append(f"CELL_DATA {e}")
    lines.extend(_vtk_scalars("p_p_Pa", fields.p_p))
    lines.extend(_vtk_scalars("d_w", fields.d_w))
    lines.extend(_vtk_scalars("kappa", fields.kappa))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
