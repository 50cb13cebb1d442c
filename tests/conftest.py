import pytest
from hypothesis import settings

from polystokes import fixtures as fx
from polystokes.regularity import DataFlags, ProblemSpec

# a longer search for the property tests: --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500)

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


# one field of a cube domain document broken, and what the error must say
_MALFORMED_EDITS = (
    ("complement: false", "complement: 'false'", "'complement' must be true or false"),
    ("[-1, -1, -1]", "[-1, x, -1]", "vertex 0: coordinates"),
    ("[-1, -1, -1]", "[-1, %d, -1]" % 10 ** 400, "vertex 0: coordinates"),
    ("[4, 0, 2, 6]", "[4, 0, x, 6]", "face 0: 'loop'"),
    ("[4, 0, 2, 6]", "[4.5, 0, 2, 6]", "face 0: 'loop'"),
    ("[4, 0, 2, 6]", "7", "face 0: 'loop'"),
    ("bc: dirichlet", "bc: [dirichlet]", "face 0: unknown boundary tag"),
    ("", "vertex_bounds:\n  abc: {bound: 0.3}\n", "unknown vertex 'abc'"),
    ("", "vertex_bounds:\n  1.5: {bound: 0.3}\n", "unknown vertex 1.5"),
    ("", "vertex_bounds:\n  0: {bound: x}\n", "not a finite number"),
    ("", "vertex_bounds:\n  0: {bound: .inf}\n", "not a finite number"),
    ("", "vertex_bounds:\n  0: {bound: .nan}\n", "not a finite number"),
    ("", "vertex_bounds:\n  0: {bound: -0.5}\n", "must exceed -1/2"),
)


@pytest.fixture(scope="session")
def malformed_cube_documents(cube):
    doc = fx.domain_document(cube, fx.with_conditions(cube, 0))
    return [(doc.replace(old, new, 1) if old else doc + new, message)
            for old, new, message in _MALFORMED_EDITS]
