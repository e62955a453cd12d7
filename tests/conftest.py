import numpy as np
import pytest

from frostsim import constitutive
from frostsim.constitutive import TransportParams
from frostsim.ice import IceModel, IceParams, PoreSizeDistribution
from frostsim.mesh import Mesh, generate_lshape


@pytest.fixture(scope="session")
def unit_triangle() -> Mesh:
    # right triangle (0,0)-(1,0)-(0,1), all edges tagged EXT
    return Mesh(
        nodes=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        elements=[[0, 1, 2]],
        boundary_edges=[[0, 0, 0], [0, 1, 0], [0, 2, 0]],
    )


@pytest.fixture(scope="session")
def lshape_coarse() -> Mesh:
    return generate_lshape(1.0, 0.4, 0.1)


@pytest.fixture(scope="session")
def mortar() -> TransportParams:
    return TransportParams()


@pytest.fixture(scope="session")
def ice_params() -> IceParams:
    return IceParams()


@pytest.fixture(scope="session")
def three_knot_psd() -> PoreSizeDistribution:
    # hand-checkable distribution: porosity 0.35 spread over two decades
    return PoreSizeDistribution(
        radii=np.array([1e-8, 1e-7, 1e-6]),
        cum_porosity=np.array([0.35, 0.1, 0.0]),
    )


@pytest.fixture(scope="session")
def spec01_model(ice_params) -> IceModel:
    from frostsim.driver import _load_psd
    return IceModel(_load_psd({"psd_file": "spec01"}), ice_params)


@pytest.fixture(scope="session")
def heat_capacity():
    """Effective heat capacity at (theta, phi) from its kernel, the
    isotherm and the ice model's lookups, as the transport coefficients
    evaluate it: a step from theta_ref, or from theta itself, and zero
    ice without an ice model."""
    def evaluate(theta, phi, params, ice_model=None, theta_ref=None):
        theta = np.asarray(theta, dtype=float)
        w = constitutive.water_content(phi, params)
        if theta_ref is None:
            theta_ref = theta
        if ice_model is None:
            ice = (np.zeros(np.broadcast_shapes(theta.shape, w.shape)),) * 2
            frozen_ref = np.zeros(np.shape(theta_ref))
        else:
            ice = ice_model.ice_content(theta, w)
            frozen_ref = ice_model.frozen_fraction(theta_ref)
        return constitutive._effective_heat_capacity(theta, w, params, ice,
                                                     theta_ref, frozen_ref)[0]
    return evaluate
