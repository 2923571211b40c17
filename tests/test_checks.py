from derangetropy import checks
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
