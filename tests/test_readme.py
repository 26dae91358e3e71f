"""The README's JSON examples, run as written: the run-config and backend
files pass a dry run, and the manifest header and record load."""

import json
import re

import pytest

from absynth.cli import main
from absynth.records import load_manifest, record_to_json
from tests_helpers import SRC_DIR

README = SRC_DIR.parents[1] / "README.md"


def json_blocks():
    """The text of the four ```json blocks in the README, in order: the
    run-config file, the backend file, the manifest header and a record."""
    blocks = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 4
    return blocks


@pytest.mark.parametrize("index, flag", [(0, "--config"), (1, "--backend")],
                         ids=["run-config", "backend"])
def test_config_example_passes_a_dry_run(index, flag, tmp_path, monkeypatch, capsys):
    path = tmp_path / "example.json"
    path.write_text(json_blocks()[index], encoding="utf-8")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # the examples name relative paths
    assert main(["gen", "--dry-run", flag, str(path)]) == 0
    assert "dry run" in capsys.readouterr().out
    assert list(work.iterdir()) == []


def test_manifest_example_loads_and_its_line_is_the_compact_json():
    _, _, header, pretty = json_blocks()
    row = json.loads(pretty)
    line = json.dumps(row, sort_keys=True, ensure_ascii=False)
    [record] = load_manifest(f"{header.strip()}\n{line}\n").records
    assert record_to_json(record) == line
