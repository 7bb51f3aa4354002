"""The bundled lattice files are the output of `tools/make_lattice_assets.py`.

The tool builds D4, E8, K12 and Leech from their constructions and checks
each Gram matrix against catalogue invariants before writing it.  These tests
compare the text it would write with the committed file, byte for byte, and
check that its checks refuse a wrong Gram matrix, under `python -O` too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest


TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_lattice_assets.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("make_lattice_assets", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_committed(name):
    tool = load_tool()
    build = tool.LATTICES[name][1]
    assert tool.asset_text(name, build()) == (tool.OUT / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["d4", "e8", "k12"])
def test_committed_file_is_the_tool_output(name):
    check_committed(name)


@pytest.mark.slow
def test_committed_leech_is_the_tool_output():
    check_committed("leech")


# the D4 Gram matrix with its first diagonal entry raised by 2: still even,
# symmetric and positive definite, but of determinant 12, not 4
REFUSE = f"""
import importlib.util, sys
spec = importlib.util.spec_from_file_location("tool", {str(TOOL)!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
gram = tool.build_d4()
gram[0][0] += 2
try:
    tool.asset_text("d4", gram)
except tool.InvariantError as exc:
    print(sys.flags.optimize, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_changed_gram_is_refused(flags):
    res = subprocess.run([sys.executable, *flags, "-c", REFUSE], capture_output=True, text=True,
                         check=True)
    assert res.stdout == f"{len(flags)} d4: det 12 != 4\n"
