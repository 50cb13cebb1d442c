import pytest

from polystokes import fixtures as fx
from polystokes.regularity import DataFlags, ProblemSpec

ALL_FLAGS = DataFlags(data_in_required_spaces=True,
                      compatibility_conditions_hold=True,
                      small_data=True,
                      lipschitz_graph=True)


@pytest.fixture(scope="session")
def cube():
    return fx.cube()


@pytest.fixture(scope="session")
def step():
    return fx.step_prism()


@pytest.fixture(scope="session")
def cube_dirichlet(cube):
    return ProblemSpec(cube, fx.with_conditions(cube, 0), ALL_FLAGS)


@pytest.fixture(scope="session")
def step_dirichlet(step):
    return ProblemSpec(step, fx.with_conditions(step, 0), ALL_FLAGS)


@pytest.fixture(scope="session")
def cube_neumann_top(cube):
    return ProblemSpec(cube, fx.with_conditions(cube, 0, {fx.top_face(cube): 3}),
                       ALL_FLAGS)


@pytest.fixture(scope="session")
def cube_slip_top(cube):
    return ProblemSpec(cube, fx.with_conditions(cube, 0, {fx.top_face(cube): 2}),
                       ALL_FLAGS)
