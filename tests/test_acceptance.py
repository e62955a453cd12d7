"""End-to-end acceptance suite.

Eleven numbered checks gate a release: the material property curves,
the crystallization pressure model and its quadrature, the transport
solver's convergence orders and conservation, the mechanics building
blocks, nonlocal averaging, damage irreversibility, the full winter
reference scenario, sensitivity to the pore structure, and bitwise run
determinism. Every test prints exactly one ``criterion NN PASS/FAIL``
line; a FAIL also names the sub-checks that missed their tolerance.

The three full simulations (reference twice, fine-pored variant once)
run once per session through module fixtures, so this file dominates
the wall time of the whole suite.
"""

import math
import time
from importlib import resources

import numpy as np
import pytest

import test_transport_solver as tts
from frostsim import constitutive, driver, ice, mechanics
from frostsim import transport_solver as ts
from frostsim.mesh import BoundaryTag, generate_lshape, generate_rectangle


def _report(num: int, label: str, checks: dict):
    """Print the one-line verdict, then fail listing any missed checks."""
    ok = all(bool(v) for v in checks.values())
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    if not ok:
        bad = ", ".join(name for name, v in checks.items() if not v)
        pytest.fail(f"criterion {num} ({label}) failed: {bad}")


def _spec01_psd():
    return ice.load_psd_csv(
        resources.files("frostsim.data").joinpath("psd_spec01.csv"))


# -- full simulation fixtures -----------------------------------------------


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """The built-in winter scenario, timed, with its probe CSV on disk."""
    out = tmp_path_factory.mktemp("reference_a")
    t0 = time.perf_counter()
    summary = driver.run({}, out_dir=out)
    elapsed = time.perf_counter() - t0
    return summary, elapsed, out / "probes.csv"


@pytest.fixture(scope="module")
def repeat_run(tmp_path_factory):
    """A second, independent run of the identical reference config."""
    out = tmp_path_factory.mktemp("reference_b")
    driver.run({}, out_dir=out)
    return out / "probes.csv"


@pytest.fixture(scope="module")
def fine_pore_run():
    """The reference scenario on the finer pore-size table."""
    return driver.run({"ice": {"psd_file": "spec02", "n": 0.13}})


# -- criteria ---------------------------------------------------------------


def test_01_moisture_and_vapor_curves():
    t0 = time.perf_counter()
    params = constitutive.TransportParams()
    w80 = constitutive.water_content(0.8, params)
    psat0 = constitutive.saturation_pressure(0.0)
    # both closed forms of the saturation curve, evaluated at the splice
    over_ice = 611.0 * math.exp(22.44 * 0.0 / (272.44 + 0.0))
    over_water = 611.0 * math.exp(17.08 * 0.0 / (234.18 + 0.0))
    elapsed = time.perf_counter() - t0
    _report(1, "moisture and vapor property curves", {
        "shape factor is derived, not stored":
            params.b_phi == constitutive.derive_b_phi(160.0, 23.0),
        "w(0.80) recovers 23 kg/m^3 within 1e-6": abs(w80 - 23.0) <= 1e-6,
        "p_sat(0) is exactly 611 Pa": psat0 == 611.0,
        "ice and water branches agree at 0 degC within 1e-9 Pa":
            abs(over_ice - over_water) <= 1e-9,
        "runtime under 1 s": elapsed < 1.0,
    })


def test_02_crystallization_pressure_thermodynamics():
    t0 = time.perf_counter()
    params = ice.IceParams()
    thetas = np.linspace(-30.0, -0.1, 200)
    r_cr = ice.critical_radius(thetas, params)
    chi_at_cr = ice.wall_pressure(r_cr, thetas, params)
    target = params.gamma_li / ice.interface_radius(thetas, params)
    # tolerance is relative; the pressures span 1e5..1e7 Pa
    identity_err = float(np.max(np.abs(chi_at_cr - target) / target))

    psd = _spec01_psd()
    thawed = ice.average_pore_pressure(np.array([0.0, 2.5, 30.0]), psd, params)
    colder = np.linspace(-0.1, -30.0, 300)      # |theta| increasing
    pp = ice.average_pore_pressure(colder, psd, params)
    elapsed = time.perf_counter() - t0
    _report(2, "crystallization pressure thermodynamics", {
        "wall pressure at the critical radius is gamma_li/r_ir within 1e-12":
            identity_err <= 1e-12,
        "gauge pressure is exactly zero at and above 0 degC":
            bool(np.all(thawed == 0.0)),
        "averaged pressure never decreases as cooling deepens":
            bool(np.all(np.diff(pp) >= 0.0)),
        "runtime under 1 s": elapsed < 1.0,
    })


def test_03_pore_size_quadrature_robustness():
    params = ice.IceParams()
    psd = _spec01_psd()
    changes = {}
    for theta in (-5.0, -20.0):
        coarse = ice.average_pore_pressure(theta, psd, params,
                                           bins_per_interval=8)
        fine = ice.average_pore_pressure(theta, psd, params,
                                         bins_per_interval=80)
        changes[theta] = abs(fine - coarse) / abs(fine)
    _report(3, "pore-size quadrature robustness", {
        "10x bin refinement moves p_p(-5) by under 0.5%":
            changes[-5.0] < 5e-3,
        "10x bin refinement moves p_p(-20) by under 0.5%":
            changes[-20.0] < 5e-3,
    })


def test_04_transport_convergence_orders():
    t0 = time.perf_counter()
    mesh = generate_rectangle(1.0, 1.0, 12, 12)
    reference = tts.mms_run(mesh, tts.MMS_T_END / 512, tts.MMS_T_END,
                            0.5)[0].theta

    errs_trap = tts.mms_errors(mesh, 0.5, reference, (8, 16, 32, 64))
    # transition-region error components cancel at coarse steps, so the
    # asymptotic order is judged on the finest pair
    order_trap = math.log2(errs_trap[-2] / errs_trap[-1])

    errs_euler = tts.mms_errors(mesh, 1.0, reference, (8, 16, 32, 64))
    orders_euler = np.log2(errs_euler[:-1] / errs_euler[1:])

    spatial = []
    for cells in (8, 16, 32):
        m = generate_rectangle(1.0, 1.0, cells, cells)
        state, prob = tts.mms_run(m, 0.1 / 32, 0.1, 0.5)
        e = state.theta - tts.mms_exact(m, 0.1)
        M = prob.assemble(state.theta, state.phi, state.t).block("C", "tt")
        spatial.append(math.sqrt(e @ (M @ e)))
    orders_space = np.log2(np.array(spatial[:-1]) / spatial[1:])
    elapsed = time.perf_counter() - t0
    _report(4, "transport solver convergence orders", {
        "trapezoidal errors decay monotonically":
            bool(np.all(np.diff(errs_trap) < 0.0)),
        "trapezoidal stepping is at least order 1.9": order_trap >= 1.9,
        "implicit Euler stepping is order 1.0 (0.9..1.15)":
            bool(np.all((orders_euler > 0.9) & (orders_euler < 1.15))),
        "spatial L2 convergence is at least order 1.8 on both refinements":
            bool(np.all(orders_space >= 1.8)),
        "runtime under 30 s": elapsed < 30.0,
    })


def test_05_closed_system_moisture_conservation():
    mesh = generate_rectangle(1.0, 1.0, 8, 8)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    prob = ts.TransportProblem(mesh, ts.ConstantCoefficients())
    state = ts.TransportState(
        0.0, np.full(mesh.num_nodes, 1.0),
        0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y),
        np.zeros(2 * mesh.num_nodes))
    state.rdot = prob.consistent_rates(state)
    M = prob.assemble(state.theta, state.phi, 0.0).block("C", "pp")
    ones = np.ones(mesh.num_nodes)
    mass0 = ones @ (M @ state.phi)
    for _ in range(100):
        state = prob.step(state, 0.05, tol=1e-12, relax=1.0)
    drift = abs(ones @ (M @ state.phi) - mass0) / abs(mass0)
    _report(5, "closed-system moisture conservation", {
        "moisture mass drift over 100 zero-flux steps is under 1e-10":
            drift <= 1e-10,
        "the field actually relaxed": float(np.std(state.phi)) < 0.2,
    })


def test_06_elastic_patch_test_and_damage_anchors():
    mesh = generate_rectangle(1.0, 1.0, 4, 4)
    exx, eyy, gxy = 1.2e-4, -3.0e-5, 8.0e-5
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    ux = exx * x + 0.5 * gxy * y
    uy = 0.5 * gxy * x + eyy * y
    bnd = mesh.nodes_with_tag(BoundaryTag.EXT)
    dofs = np.concatenate([2 * bnd, 2 * bnd + 1])
    vals = np.concatenate([ux[bnd], uy[bnd]])
    params = mechanics.MechParams()
    prob = mechanics.MechanicsProblem(mesh, params, constraints=(dofs, vals))
    state = prob.solve()
    strain_err = float(np.max(np.abs(
        prob.strains(state.u) - np.array([exx, eyy, gxy]))))

    biot = mechanics.biot_coefficient(0.35)
    eps0, epsf = params.eps_0, params.eps_f
    _report(6, "elastic patch test and damage law anchors", {
        "uniform strain is reproduced within 1e-10": strain_err <= 1e-10,
        "patch test leaves the material undamaged":
            bool(np.all(state.d_w == 0.0)),
        "Biot coefficient at n=0.35 is 0.5185 within 1e-4":
            abs(biot - 0.5185) <= 1e-4,
        "damage is exactly 0 at the onset strain":
            mechanics.damage_function(eps0, eps0, epsf) == 0.0,
        "damage is exactly 1 at the failure strain":
            mechanics.damage_function(epsf, eps0, epsf) == 1.0,
    })


def test_07_nonlocal_partition_of_unity():
    mesh = generate_lshape(1.0, 0.4, 0.05)
    # interaction length comparable to the element size, so off-diagonal
    # weights are substantial and normalization is actually exercised
    averager = mechanics.NonlocalAverager(mesh, 0.05)
    row_sums = averager.weights @ np.ones(mesh.num_elements)
    constant = averager(np.full(mesh.num_elements, 3.7))
    _report(7, "nonlocal averaging partition of unity", {
        "weights sum to 1 within 1e-12 at every element":
            float(np.max(np.abs(row_sums - 1.0))) <= 1e-12,
        "a constant field is a fixed point within 1e-12":
            float(np.max(np.abs(constant - 3.7))) <= 1e-12,
        "averaging is not trivially diagonal":
            averager.weights.nnz > mesh.num_elements,
    })


def test_08_damage_irreversibility(reference_run):
    summary, _, _ = reference_run
    d_steps = np.diff(summary.damage_history, axis=0)
    k_steps = np.diff(summary.kappa_history, axis=0)
    _report(8, "damage and history irreversibility", {
        "element damage never decreases at any step":
            bool(np.all(d_steps >= 0.0)),
        "the history variable never decreases at any step":
            bool(np.all(k_steps >= 0.0)),
        "damage actually evolved": float(summary.damage_history[-1].max()) > 0.0,
    })


def test_09_winter_reference_scenario(reference_run):
    summary, elapsed, _ = reference_run
    mesh = summary.mesh
    d_w = summary.mechanics.d_w
    # the exposed faces of this corner geometry lie on x = 0 and y = 0,
    # so min(cx, cy) is the centroid distance to the exterior surface
    dist_ext = np.minimum(mesh.centroids[:, 0], mesh.centroids[:, 1])
    damaged = d_w > 0.0

    records = summary.records
    final = records[-1]
    d0 = np.concatenate([[0.0], [r.d_w[0] for r in records]])
    grow = np.flatnonzero(np.diff(d0) > 1e-12)
    theta_at_grow = np.array([records[k].theta[0] for k in grow])
    phi_at_grow = np.array([records[k].phi[0] for k in grow])
    pp_at_grow = np.array([records[k].p_p[0] for k in grow])

    _report(9, "winter reference scenario", {
        "frost damage occurred": bool(np.any(damaged)),
        "all damage sits within 0.12 m of the exterior faces":
            bool(np.all(dist_ext[damaged] <= 0.12)),
        "deeper material is pristine":
            bool(np.all(d_w[dist_ext > 0.12] == 0.0)),
        "the exterior corner probe ends with the largest damage":
            int(np.argmax(final.d_w)) == 0 and float(final.d_w[0]) > 0.05,
        "probes past mid-wall stay undamaged":
            bool(np.all(final.d_w[2:] == 0.0)),
        "damage only grew during freezing at the corner":
            len(grow) > 0 and bool(np.all(theta_at_grow < 0.0)),
        "growth coincided with elevated surface moisture":
            bool(np.all(phi_at_grow > 0.75)),
        "growth coincided with pore pressure pulses":
            bool(np.all(pp_at_grow > 0.0)),
        "runtime under 60 s": elapsed < 60.0,
    })


def test_10_pore_structure_sensitivity(reference_run, fine_pore_run):
    reference = reference_run[0]
    fine = fine_pore_run
    peak_ref = max(float(r.p_p[0]) for r in reference.records)
    peak_fine = max(float(r.p_p[0]) for r in fine.records)
    rel_change = abs(peak_fine - peak_ref) / peak_ref
    _report(10, "pore structure sensitivity", {
        "peak corner pore pressure shifts by more than 10%":
            rel_change > 0.10,
        # measured once and pinned: the finer, lower-porosity table
        # produces the smaller peak in this scenario
        "shift direction matches the recorded baseline":
            peak_fine < peak_ref,
        "the damage history is genuinely different":
            not np.array_equal(reference.damage_history,
                               fine.damage_history),
    })


def test_11_run_determinism(reference_run, repeat_run):
    first = reference_run[2].read_bytes()
    second = repeat_run.read_bytes()
    _report(11, "run determinism", {
        "two runs write byte-identical probe CSVs": first == second,
        "the CSV has substance": len(first) > 1000,
    })
