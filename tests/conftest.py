import pytest

from netdes.synthesis import build_problem
from netdes.synthesis import SynthesisMode, synthesize_supremal_attack
from systems import shipped_system


@pytest.fixture(scope="session")
def guideway():
    return shipped_system("guideway")


@pytest.fixture(scope="session")
def reduced():
    return shipped_system("reduced")


@pytest.fixture(scope="session")
def guideway_problem(guideway):
    return build_problem(guideway)


@pytest.fixture(scope="session")
def reduced_problem(reduced):
    return build_problem(reduced)


@pytest.fixture(scope="session")
def guideway_attacks(guideway_problem):
    nb = synthesize_supremal_attack(guideway_problem, SynthesisMode.DAMAGE_NONBLOCKING)
    r = synthesize_supremal_attack(guideway_problem, SynthesisMode.DAMAGE_REACHABLE)
    return nb, r


@pytest.fixture(scope="session")
def reduced_attacks(reduced_problem):
    nb = synthesize_supremal_attack(reduced_problem, SynthesisMode.DAMAGE_NONBLOCKING)
    r = synthesize_supremal_attack(reduced_problem, SynthesisMode.DAMAGE_REACHABLE)
    return nb, r
