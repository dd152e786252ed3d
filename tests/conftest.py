from __future__ import annotations

import numpy as np
import pytest

from scatterlab.cli import RunConfig
from scatterlab.kernels import b_kernel, kd_kernels
from scatterlab.potentials import catalog
from scatterlab.propagator import prepare_propagator
from scatterlab.scattering import scattering_data

# moderate grid for scattering-level tests: includes k = 0 exactly
K_SCATTER = np.linspace(-30.0, 30.0, 1201)

# fine symmetric grid for Wiener-algebra estimates and kernel transforms
K_WIENER = np.linspace(-60.0, 60.0, 24001)

# row abscissae for kernel tables; ±2 reaches past every well in the catalog
XS_KERNEL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])

_ACCEPTANCE: list[tuple[int, str, bool]] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Recorder for the acceptance battery; results echo in the summary."""

    def record(num: int, desc: str, ok: bool) -> bool:
        _ACCEPTANCE.append((num, desc, bool(ok)))
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, desc, ok in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"[{num:2d}] {'PASS' if ok else 'FAIL'}  {desc}")


@pytest.fixture(scope="session")
def free_pot():
    return catalog("free")


@pytest.fixture(scope="session")
def pt_pot():
    return catalog("poeschl_teller")


@pytest.fixture(scope="session")
def sw_pot():
    return catalog("square_well")


@pytest.fixture(scope="session")
def gw_pot():
    return catalog("gaussian_well")


@pytest.fixture(scope="session")
def pt_scatter(pt_pot):
    """(ScatteringData, JostField+, JostField−) for the sech² well."""
    return scattering_data(pt_pot, K_SCATTER, extra_x=(-3.0, 3.0))


@pytest.fixture(scope="session")
def sw_scatter(sw_pot):
    return scattering_data(sw_pot, K_SCATTER, extra_x=(-3.0, 3.0))


@pytest.fixture(scope="session")
def gw_scatter(gw_pot):
    return scattering_data(gw_pot, K_SCATTER, extra_x=(-3.0, 3.0))


@pytest.fixture(scope="session")
def free_scatter(free_pot):
    return scattering_data(free_pot, K_SCATTER, extra_x=(-3.0, 3.0))


# ------------------------------------------------- wide-window kernel data
# the fine grid runs ~8 s per potential, so everything downstream (kernel
# tables, functionals, acceptance) shares these


@pytest.fixture(scope="session")
def pt_wiener(pt_pot):
    """(ScatteringData, JostField+, JostField−) on K_WIENER with kernel rows."""
    return scattering_data(pt_pot, K_WIENER, extra_x=XS_KERNEL)


@pytest.fixture(scope="session")
def sw_wiener(sw_pot):
    return scattering_data(sw_pot, K_WIENER, extra_x=XS_KERNEL)


@pytest.fixture(scope="session")
def gw_wiener(gw_pot):
    return scattering_data(gw_pot, K_WIENER, extra_x=XS_KERNEL)


# ------------------------------------------------- propagator field tables
# the CLI's default grids: x on [−8, 8] step 0.25, k on [−60, 60] with 24001 nodes
_DEFAULT = RunConfig.load(None)
X_DEFAULT, K_DEFAULT = _DEFAULT.x_grid(), _DEFAULT.k_grid()


@pytest.fixture(scope="session")
def free_pd(free_pot):
    return prepare_propagator(free_pot, X_DEFAULT, K_DEFAULT)


@pytest.fixture(scope="session")
def pt_pd(pt_pot):
    return prepare_propagator(pt_pot, X_DEFAULT, K_DEFAULT)


@pytest.fixture(scope="session")
def sw_pd(sw_pot):
    return prepare_propagator(sw_pot, X_DEFAULT, K_DEFAULT)


@pytest.fixture(scope="session")
def gw_pd(gw_pot):
    return prepare_propagator(gw_pot, X_DEFAULT, K_DEFAULT)


@pytest.fixture(scope="session")
def pt_pd_fine(pt_pot):
    """0.125-step position grid; resolves a Gaussian packet well enough to
    compare one full evolution against the split-step oracle."""
    return prepare_propagator(pt_pot, np.linspace(-8.0, 8.0, 129), K_DEFAULT)


def _tables(pot, wiener):
    _, jp, jm = wiener
    return tuple(kd_kernels(b_kernel(jf, pot=pot), jf, pot=pot) for jf in (jp, jm))


@pytest.fixture(scope="session")
def pt_tables(pt_pot, pt_wiener):
    """Kernel tables (side +, side −) with K, D and ∂ₓB filled."""
    return _tables(pt_pot, pt_wiener)


@pytest.fixture(scope="session")
def sw_tables(sw_pot, sw_wiener):
    return _tables(sw_pot, sw_wiener)


@pytest.fixture(scope="session")
def gw_tables(gw_pot, gw_wiener):
    return _tables(gw_pot, gw_wiener)
