"""Command line entry points.

Exit codes: 0 success, 2 configuration problem, 3 solver failure,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import constitutive, ice
from ._table import write_table
from .driver import build_models, build_problems, load_config, run
from .errors import (
    ClimateFormatError,
    ConfigError,
    DegenerateElementError,
    FrostsimError,
    InvalidGeometryError,
    InvalidParametersError,
    InvalidPsdError,
    MeshFormatError,
    SOLVER_ERRORS,
)
from .mesh import generate_lshape, write_mesh

_CONFIG_ERRORS = (ConfigError, InvalidParametersError, InvalidPsdError,
                  MeshFormatError, ClimateFormatError, InvalidGeometryError,
                  DegenerateElementError)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frostsim",
        description="Coupled heat and moisture transport with ice "
                    "crystallization damage in porous mortar walls.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured simulation")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", default=None,
                       help="output directory (overrides config)")

    p_mesh = sub.add_parser("make-mesh",
                            help="generate an L-shaped wall corner mesh")
    p_mesh.add_argument("--outer", type=float, required=True,
                        help="outer edge length, m")
    p_mesh.add_argument("--thickness", type=float, required=True,
                        help="wall thickness, m")
    p_mesh.add_argument("--h", type=float, required=True,
                        help="target element size, m")
    p_mesh.add_argument("--out", required=True, help="mesh file to write")

    p_curves = sub.add_parser(
        "material-curves",
        help="tabulate the material functions of a config as CSV")
    p_curves.add_argument("--config", required=True, help="JSON config file")
    p_curves.add_argument("--out", required=True, help="output directory")

    p_check = sub.add_parser("check-config",
                             help="validate a config and print derived "
                                  "quantities")
    p_check.add_argument("config", help="JSON config file")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    out = args.out if args.out is not None else \
        cfg["output"]["dir"] or "frostsim_out"
    summary = run(cfg, out_dir=out)
    print(f"completed {summary.config['time']['steps']} steps, "
          f"max damage {summary.mechanics.d_w.max():.4f}")
    for path in summary.outputs:
        print(f"wrote {path}")
    return 0


def _cmd_make_mesh(args) -> int:
    mesh = generate_lshape(args.outer, args.thickness, args.h)
    write_mesh(mesh, args.out)
    print(f"wrote {args.out}: {mesh.num_nodes} nodes, "
          f"{mesh.num_elements} elements")
    return 0


def _cmd_material_curves(args) -> int:
    params, model, _ = build_models(load_config(args.config))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    phi = np.linspace(0.0, 1.0, 201)
    w = constitutive.water_content(phi, params)
    theta = np.linspace(-30.0, 40.0, 201)
    theta_f = np.linspace(-30.0, -0.1, 200)
    w_i, _ = model.ice_content(theta_f, constitutive.water_content(
        np.ones_like(theta_f), params))
    for name, header, columns in (
            ("moisture.csv",
             "phi,w_kg_m3,dw_dphi_kg_m3,D_phi_m2_s,lambda_W_mK",
             (phi, w, constitutive.moisture_capacity(phi, params),
              constitutive.moisture_diffusivity(phi, params),
              constitutive.thermal_conductivity(w, params))),
            ("thermal.csv",
             "theta_C,p_sat_Pa,dp_sat_dtheta_Pa_K,delta_v_kg_m_s_Pa,h_v_J_kg",
             (theta, constitutive.saturation_pressure(theta),
              constitutive.saturation_pressure_derivative(theta),
              constitutive.vapor_permeability(theta, params),
              constitutive.latent_heat_vapor(theta))),
            ("ice.csv", "theta_C,r_cr_m,p_p_Pa,w_i_sat_kg_m3",
             (theta_f, ice.critical_radius(theta_f, model.params),
              model.pore_pressure(theta_f), w_i))):
        write_table(out / name, header, columns)
        print(f"wrote {out / name}")
    return 0


def _cmd_check_config(args) -> int:
    problem, mechanics, _ = build_problems(load_config(args.config))
    print("config ok")
    print(f"b_phi  = {problem.coefficients.params.b_phi:.10g}")
    print(f"eps_0  = {mechanics.params.eps_0:.10g}")
    print(f"b      = {mechanics.params.biot:.10g}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "make-mesh": _cmd_make_mesh,
        "material-curves": _cmd_material_curves,
        "check-config": _cmd_check_config,
    }[args.command]
    try:
        return handler(args)
    except _CONFIG_ERRORS as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 4
    except FrostsimError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
