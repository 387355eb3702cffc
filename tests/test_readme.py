"""The annotated CLI examples in README.md print what the README says."""

from pathlib import Path

import pytest

from conicac import cli

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
