import pytest

from derangetropy import FAMILIES, DistributionSpec, char_function, checks, from_analytic

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_specs():
    return {name: DistributionSpec(name) for name in FAMILIES}


@pytest.fixture(scope="session")
def ref_grids(ref_specs):
    # default production size; shared because construction is pure
    return {name: from_analytic(spec, 4097) for name, spec in ref_specs.items()}


@pytest.fixture(scope="session")
def uniform_cf(ref_grids):
    # the uniform CF on the default window, the costliest CF the tests share
    return char_function(ref_grids["uniform"])


@pytest.fixture(scope="session")
def registry():
    # every suite but convergence, once; criterion 9 needs the whole
    # sup-distance sequence, which the registry does not keep
    return [c for suite in ("constants", "normalization", "ode", "cf", "median") for c in checks.run(suite)]
