"""The files around the code agree with it and with each other.

The two pins of the test tools, in pyproject.toml's test extra and on CI's
pip install line, must name the same versions, CI's oldest Python must be
pyproject.toml's floor, and the digest script must cover every CLI command
and flag.
"""

import re
from pathlib import Path

from pinchcalc import cli

ROOT = Path(__file__).parents[1]
TOOLS = ("pytest", "hypothesis")


def pins(text):
    """Each test tool's pinned version in text, as tool==version."""
    return {tool: re.findall(rf"\b{tool}==([\w.]+)", text) for tool in TOOLS}


def test_the_two_pins_of_the_test_tools_agree():
    # read with a regex, not tomllib, which Python 3.10 lacks
    extra = re.search(r"^test = \[(.*)\]$",
                      (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    install = re.search(r"^ *- run: python -m pip install (.*)$",
                        (ROOT / ".github/workflows/tier1.yml").read_text(),
                        re.M).group(1)
    assert pins(extra) == pins(install)
    assert all(len(versions) == 1 for versions in pins(extra).values())


def test_ci_starts_at_the_python_floor():
    # each matrix's lowest version is requires-python's floor, read with a
    # regex as above
    floor = re.search(r'^requires-python = ">=([\d.]+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    matrices = re.findall(r"^ *python-version: \[(.*)\]$",
                          (ROOT / ".github/workflows/tier1.yml").read_text(), re.M)
    assert matrices
    for matrix in matrices:
        versions = re.findall(r'"([\d.]+)"', matrix)
        assert min(versions, key=lambda v: tuple(map(int, v.split(".")))) == floor


def test_the_digest_script_runs_every_command(monkeypatch):
    # its usage line reads CANONICAL; verify has lines of its own.  Its
    # invocations are listed, not run
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import cli_digests

    assert set(cli_digests.CANONICAL) == set(cli.COMMANDS) - {"verify"}
    assert {line for line, _ in cli_digests.invocations()} >= set(cli.COMMANDS)
    assert {token for argv in cli_digests.ARGV_FORMS for token in argv} >= set(cli.FLAGS)
