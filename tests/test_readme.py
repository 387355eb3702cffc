"""The annotated CLI examples and the library example in README.md do and
print what the README says."""

import ast
import re
from pathlib import Path

import pytest

import conicac
from conicac import cli
from oracles import bound_c_phi, theta

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """Map each `ac ...` command to the output its `# -> ...` note gives,
    whether the note shares the command's line or follows on the next."""
    examples, cmd = {}, None
    for line in README.read_text().splitlines():
        code, _, note = line.partition("#")
        if code.startswith("ac "):
            cmd = code[3:].strip()
        if note.startswith(" -> ") and cmd is not None:
            examples[cmd] = note[4:].strip()
    return examples


@pytest.mark.parametrize("cmd", ["exact 9", "nrc --p0 1", "nrc --p0 2 --c 1.62",
                                 "nrc --range 25", "nrc --complete 8 6"])
def test_readme_example_output(capsys, cmd):
    want = readme_examples()[cmd]
    assert cli.main(cmd.split()) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == want


def test_readme_library_example():
    """The `## Library` block imports only exported names, runs, and gives
    the results its comments state."""
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    imported = [a.name for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) for a in node.names]
    assert imported and set(imported) <= set(conicac.__all__)
    ns = {}
    exec(block, ns)
    assert ns["size"] == 8 and ns["res"].is_ac and ns["res"].size >= 8
    assert ns["tr"].bound == 8
    assert ns["p0"] == 2129
    assert ns["phi"].tolist() == [bound_c_phi(13)]
    assert ns["th"].tolist() == [theta(128)]
