"""The library examples and the config example of README.md work as
written."""

import configparser
import re
from pathlib import Path

from wanloc import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
INI_BLOCKS = re.findall(r"^```ini\n(.*?)^```", README, flags=re.M | re.S)


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


def test_readme_config_example_parses_and_shows_every_pipeline_key(tmp_path):
    block, = INI_BLOCKS
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    cfg = cli.parse_config(str(path))
    assert (cfg.model_type, cfg.L, cfg.seed) == ("disordered", 12, 7)
    assert cfg.model_params == {"gap": 2.0, "w": 0.5}
    assert (cfg.basis_mode, cfg.chern_windows) == ("columns", (2, 3))
    text = configparser.ConfigParser()
    text.read_string(block)
    assert set(text["pipeline"]) == set(cli.PIPELINE_PARSERS)
