import numpy as np
import pytest

from floquet_avg import averaging, pendulum


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def pendulum_pipeline(omega, eps, beta, order):
    """series split -> standard form -> recursion -> monodromy expansion."""
    params = pendulum.PendulumParams(omega, eps, beta)
    system = pendulum.series_split(params)
    x0, h_terms = averaging.standard_form(system)
    avg = averaging.run_recursion(h_terms, system.period, order)
    mono = averaging.assemble_monodromy(x0, avg, system.period)
    return params, system, x0, avg, mono


@pytest.fixture(autouse=True)
def fresh_coefficient_tables():
    """Every test builds the pendulum's coefficient tables it uses, so a test
    that monkeypatches the averaging layer cannot pass by reading a table
    built earlier, and a table built under its patch does not outlive it."""
    pendulum._TABLES.clear()
    yield
    pendulum._TABLES.clear()
