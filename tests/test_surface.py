"""The package namespace is the documented surface and nothing more, and
the README documents what the code accepts."""

import argparse
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import softaug
from softaug.cli import _KEYS, _KINDS, _SOURCES, build_parser, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_is_explicit_and_resolves():
    assert len(softaug.__all__) == len(set(softaug.__all__))
    for name in softaug.__all__:
        assert not isinstance(getattr(softaug, name), types.ModuleType), name


def test_import_loads_no_pool_module():
    # the trainer and compare import their executors when they run: the
    # import time every command pays stays free of them
    probe = ("import sys, softaug; "
             "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    src = str(Path(softaug.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


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
    for name in (*_SOURCES, *_KINDS):
        assert re.search(rf"\b{name}\b", block), name


def test_readme_names_every_cli_option():
    commands = README.read_text().split("## CLI commands", 1)[1].split("\n## ", 1)[0]
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        assert f"`{name}`" in commands, name
        for action in parser._actions:
            for option in action.option_strings:
                if option not in ("-h", "--help"):
                    # --config must not count as named by --config-a
                    assert re.search(rf"`{option}(?![\w-])", commands), f"{name} {option}"
