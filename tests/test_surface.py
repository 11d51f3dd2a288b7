"""The package namespace is the documented surface and nothing more, and
the README documents what the code accepts; importing it first starts
OpenBLAS on one thread."""

import argparse
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import softaug
from softaug.cli import _KEYS, _KINDS, _SOURCES, build_parser, parse_config

from conftest import BLAS_THREAD_VARS, blas_threads

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


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# run after the imports under test: the OpenBLAS count, whether the
# environment is what it was before them, the variable, and the threads
BLAS_PROBE = """
import json, os, sys
before = dict(os.environ)
{imports}
from softaug.model import _openblas
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps([_openblas().scipy_openblas_get_num_threads64_(),
                  dict(os.environ) == before, os.environ.get("OPENBLAS_NUM_THREADS"), tasks]))
"""


def blas_start(imports, **variables):
    """What a fresh process reports after ``imports``, with none of the
    thread variables set but ``variables``."""
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREAD_VARS}
    env.update(variables, PYTHONPATH=str(Path(softaug.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", BLAS_PROBE.format(imports=imports)],
                         capture_output=True, text=True, env=env, check=True).stdout
    return json.loads(out)


needs_getter = pytest.mark.skipif(blas_threads() is None, reason="numpy bundles no OpenBLAS getter")


@needs_getter
@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS starts on 1 thread on one CPU anyway")
def test_import_starts_openblas_on_one_thread():
    threads, environ_kept, variable, tasks = blas_start("import softaug")
    assert (threads, environ_kept, variable) == (1, True, None)
    assert tasks in (1, None)


@needs_getter
def test_import_keeps_a_thread_count_the_user_set():
    threads, environ_kept, variable, _ = blas_start("import softaug", OPENBLAS_NUM_THREADS="2")
    assert (threads, environ_kept, variable) == (min(2, CPUS), True, "2")


@needs_getter
def test_import_after_numpy_keeps_its_thread_count():
    assert blas_start("import numpy, softaug")[0] == blas_start("import numpy")[0]


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
