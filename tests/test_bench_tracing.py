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


TINY = """\
[dataset]
source = synth
num_classes = 4
train_per_class = 2
test_per_class = 2
seed = 7

[sampler]
kind = gaussian
sigma = 0.3
length = 32

[softening]
mode = target_and_weight
k = 2

[train]
epochs = 1
batch_size = 4
lr0 = 0.05
hidden = 4
seed = 1

[output]
dir = {out}
"""


def test_tracer_counts_the_metrics_and_train_layers(tmp_path):
    # a refactor that moves work out of these names would read 0 for
    # their per-layer benchmark metrics
    config = tmp_path / "tiny.ini"
    config.write_text(TINY.format(out=tmp_path / "run"))
    checkpoint = str(tmp_path / "run" / "checkpoint.bin")
    with load_tracing().Tracer() as tracer:
        assert softaug.cli.main(["train", "--config", str(config)]) == 0
        assert softaug.cli.main(["occlusion", "--config", str(config), "--checkpoint", checkpoint,
                                 "--lambdas", "0,0.5", "--out", str(tmp_path / "occ")]) == 0
    calls = {name: tracer.total(name, 0) for name in (
        "metrics.evaluate", "metrics.ece", "metrics.occlusion_sweep", "model.train")}
    assert calls == {"metrics.evaluate": 1, "metrics.ece": 1, "metrics.occlusion_sweep": 1,
                     "model.train": 1}
