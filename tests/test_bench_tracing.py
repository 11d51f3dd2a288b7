"""The benchmark tracer patches package functions by module and name.

Renaming or deleting one of them breaks the traced benchmark run; this
test makes the same break fail the suite.
"""

import importlib.util
from pathlib import Path

import softaug.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("softaug_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_function():
    tracing = load_tracing()
    original = softaug.cli.parse_config
    with tracing.Tracer():
        assert softaug.cli.parse_config is not original
    assert softaug.cli.parse_config is original
