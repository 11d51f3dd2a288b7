"""The package namespace is the documented surface and nothing more, and
the README documents what the code accepts."""

import re
import types
from pathlib import Path

import softaug
from softaug.cli import _KEYS, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_explicit_and_resolves():
    assert len(softaug.__all__) == len(set(softaug.__all__))
    for name in softaug.__all__:
        assert not isinstance(getattr(softaug, name), types.ModuleType), name


def test_readme_library_block_runs():
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    imported = {name for name in namespace if not name.startswith("__")}
    assert imported and imported <= set(softaug.__all__)


def test_readme_config_block_parses_and_names_every_key(tmp_path):
    config = README.read_text().split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", config, re.DOTALL).group(1)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert parse_config(str(path)).dataset.source == "synth"
    for section, keys in _KEYS.items():
        assert f"[{section}]" in block
        for key in keys:
            assert re.search(rf"\b{key}\b", block), f"[{section}] {key}"
