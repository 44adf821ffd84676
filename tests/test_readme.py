"""The README's Python examples and its CLI example run as written."""

import re
import shlex
from pathlib import Path

from specwin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    text = README.read_text()
    block, after = re.search(r"^```sh\n(cat > config\.json.*?)^```\n\n(.*?)\n\n",
                             text, flags=re.MULTILINE | re.DOTALL).groups()
    config = re.search(r"<<'EOF'\n(.*?)^EOF$", block,
                       flags=re.MULTILINE | re.DOTALL).group(1)
    commands = [shlex.split(line.split("#")[0])
                for line in block.splitlines() if line.startswith("specwin ")]
    assert [cmd[-1] for cmd in commands] == ["gen", "train", "validate",
                                             "report"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(config)
    for cmd in commands:
        assert main(cmd[1:]) == 0, cmd
    # every artifact the paragraph below the block names
    for name in ("params.json", "report.json", "report.csv", "errors_*.csv",
                 "summary.md", "boxplot.csv"):
        assert f"{name}`" in after, name
        assert list((tmp_path / "out").glob(name)), name
