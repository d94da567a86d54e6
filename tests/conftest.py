import numpy as np
import pytest

from floquet_avg import averaging, pendulum


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def pendulum_pipeline(omega, eps, beta, order):
    """series split -> standard form -> recursion -> monodromy expansion, on
    the point's own series as a model file's analyze runs them: its table,
    evaluated with its one monomial at 1."""
    params = pendulum.PendulumParams(omega, eps, beta)
    system = pendulum.series_split(params)
    table = averaging.system_table(system, order)
    avg = averaging.evaluate_table(table, np.ones((len(table.A), 1))).cell(0)
    mono = averaging.assemble_monodromy(table.x0, avg, system.period)
    return params, system, table.x0, avg, mono


def pendulum_expansion(omegas, epss, beta, order):
    """The pendulum's averaged expansion at K points, as an order-K scan evaluates it."""
    values = pendulum.monomial_values(omegas, epss, beta, order)
    return averaging.evaluate_table(pendulum.averaged_table(order), values)


@pytest.fixture(autouse=True)
def fresh_coefficient_tables():
    """Every test builds the pendulum's coefficient tables it uses, so a test
    that monkeypatches the averaging layer cannot pass by reading a table
    built earlier, and a table built under its patch does not outlive it."""
    pendulum._TABLES.clear()
    yield
    pendulum._TABLES.clear()
