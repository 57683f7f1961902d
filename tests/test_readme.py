"""The CLI examples in README.md print exactly what the README shows."""
import shlex
from pathlib import Path

import pytest

from horseshoe.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """(argv, expected output) for each README CLI example that shows output."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    examples = []
    for line in block.strip("\n").splitlines():
        if line.startswith("$ "):
            argv = shlex.split(line[2:], comments=True)
            assert argv[0] == "horseshoe"
            examples.append((argv[1:], []))
        else:
            examples[-1][1].append(line + "\n")
    return [(argv, "".join(out)) for argv, out in examples if out]


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 11


@pytest.mark.parametrize(
    "argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES]
)
def test_readme_cli_example(capsys, argv, expected):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err == ""
