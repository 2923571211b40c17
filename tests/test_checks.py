import pytest

from derangetropy import FAMILIES, TransformKind, checks, gaussian_convergence, transforms
from derangetropy.cli import main


def test_check_names_unique(registry):
    names = [c.name for c in registry]
    assert len(set(names)) == len(names)


def test_every_registry_check_passes(registry):
    assert [c.name for c in registry if not c.passed] == []


def test_verify_suites_are_the_registry_suites(capsys):
    assert main(["verify", "--help"]) == 0
    choices = "{" + ",".join([*checks.SUITES, "all"]) + "}"
    assert f"--suite {choices}" in capsys.readouterr().out


def test_ode_suite_checks_the_package_kernel_rows(monkeypatch):
    # a Type III row with the modulation dropped, 2 sin(pi z), solves no
    # third-order equation of the suite; its residual must be reported red
    monkeypatch.setitem(transforms._KERNELS, TransformKind.TYPE3, (2.0, 1, 0.0))
    failed = [c.name for c in checks.run("ode") if not c.passed]
    assert "type3/max_abs_residual" in failed


@pytest.fixture(scope="module")
def convergence_checks():
    return {c.name: c for c in checks.run("convergence")}


@pytest.mark.parametrize("family", FAMILIES)
def test_convergence_checks_are_gaussian_convergence_rows(ref_grids, convergence_checks, family):
    # the registry computes the sup distance only at step 30, through the
    # function gaussian_convergence calls at every step
    d = gaussian_convergence(TransformKind.TYPE3, ref_grids[family], 30)
    assert convergence_checks[f"{family}/sup_distance_at_30"].observed == d.sup_distance[-1]
    if family == "uniform":
        assert convergence_checks["uniform/step1_variance"].observed == d.variance[1]
