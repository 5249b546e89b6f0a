"""The library examples of README.md run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    flags=re.M | re.S)


def run_block(source, monkeypatch, capsys):
    """Run one example from the repository root; return the lines it prints."""
    monkeypatch.chdir(ROOT)
    exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})
    return capsys.readouterr().out.splitlines()


def test_readme_has_two_library_examples():
    assert len(BLOCKS) == 2


def test_readme_library_example_runs(monkeypatch, capsys):
    assert run_block(BLOCKS[0], monkeypatch, capsys)


def test_readme_pipeline_example_prints_its_commented_lines(monkeypatch,
                                                            capsys):
    expected = ["0.2 certificate-failed None",
                "3.0 exponential-basis-constructed 4.0"]
    assert all(f"# {line}\n" in BLOCKS[1] for line in expected)
    assert run_block(BLOCKS[1], monkeypatch, capsys) == expected
