"""Finite element simulation of frost damage in porous mortar walls.

Coupled heat and moisture transport driven by winter climate, ice
crystallization pressure in the pore system, and nonlocal isotropic
damage of the solid skeleton, staggered per time step on a common
triangular mesh.
"""

from .climate_io import ClimateSeries, load_climate, synthetic_winter_series
from .constitutive import TransportParams
from .driver import DEFAULT_CONFIG, RunSummary, load_config, run, validate_config
from .errors import FrostsimError
from .ice import IceModel, IceParams, PoreSizeDistribution, load_psd_csv
from .mechanics import MechanicsProblem, MechParams, MechState
from .mesh import Mesh, generate_lshape, generate_rectangle, load_mesh
from .transport_solver import TransportProblem, TransportState

__version__ = "0.1.0"

__all__ = [
    "ClimateSeries", "load_climate", "synthetic_winter_series",
    "TransportParams",
    "DEFAULT_CONFIG", "RunSummary", "load_config", "run", "validate_config",
    "FrostsimError",
    "IceModel", "IceParams", "PoreSizeDistribution", "load_psd_csv",
    "MechanicsProblem", "MechParams", "MechState",
    "Mesh", "generate_lshape", "generate_rectangle", "load_mesh",
    "TransportProblem", "TransportState",
    "__version__",
]
