import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import multiprocessing
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import types
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softaug import GaussianCropConfig, MlpClassifier, RandomSource, StandardCropConfig, cli
from softaug.cli import ConfigError, main, parse_config
from softaug.model import init_mlp, save_checkpoint

from conftest import blas_threads

BASE = {
    "dataset": {"source": "synth", "num_classes": 4, "train_per_class": 8,
                "test_per_class": 4, "seed": 7},
    "sampler": {"kind": "gaussian", "sigma": 0.3, "length": 32},
    "softening": {"mode": "target_and_weight", "k": 2},
    "train": {"epochs": 2, "batch_size": 8, "lr0": 0.05, "hidden": 8, "seed": 1},
    "output": {"dir": ""},
}


def write_config(path, out_dir, **overrides):
    """Render BASE with per-section overrides; a None value drops the key."""
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections["output"]["dir"] = str(out_dir)
    for name, keys in overrides.items():
        for key, value in keys.items():
            if value is None:
                sections[name].pop(key, None)
            else:
                sections[name][key] = value
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


@pytest.fixture
def cfg_path(tmp_path):
    def build(**overrides):
        return write_config(tmp_path / "exp.ini", tmp_path / "run", **overrides)
    return build


# --- parsing ---


def test_parse_config_happy_path(cfg_path):
    path = cfg_path()
    cfg = parse_config(path)
    assert [f.name for f in dataclasses.fields(cfg)] == ["raw", "dataset", "train", "out_dir"]
    assert cfg.dataset.source == "synth"
    assert cfg.dataset.num_classes == 4
    assert cfg.train.sampler == GaussianCropConfig(0.3, 32)
    assert cfg.train.policy.mode == "target_and_weight"
    assert cfg.train.policy.k == 2.0
    assert cfg.train.policy.p_min == 0.25
    assert cfg.train.epochs == 2
    assert cfg.train.hidden_sizes == (8,)
    # keys the INI leaves out take the dataclass defaults
    assert cfg.train.momentum == 0.9
    assert (cfg.train.sigma_decay_final_epochs, cfg.train.sigma_decay_factor) == (0, 1000.0)
    assert cfg.train.policy.alpha is None
    assert cfg.raw == open(path, "rb").read()


def test_parse_config_mode_aliases(cfg_path):
    assert parse_config(cfg_path(softening={"mode": "hard"})).train.policy.mode == "hard"
    assert parse_config(cfg_path(softening={"mode": "none"})).train.policy.mode == "hard"


def test_parse_config_hidden_list(cfg_path):
    cfg = parse_config(cfg_path(train={"hidden": "64, 32"}))
    assert cfg.train.hidden_sizes == (64, 32)


def test_parse_config_rejects_unknown_section(tmp_path, cfg_path):
    path = cfg_path()
    with open(path, "a") as fh:
        fh.write("\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="extras"):
        parse_config(path)


def test_parse_config_rejects_unknown_key(cfg_path):
    with pytest.raises(ConfigError, match="hidden_sizes"):
        parse_config(cfg_path(train={"hidden_sizes": 8}))


def test_parse_config_rejects_missing_section(tmp_path):
    path = tmp_path / "short.ini"
    path.write_text("[dataset]\nsource = synth\n")
    with pytest.raises(ConfigError, match="missing section"):
        parse_config(str(path))


def test_parse_config_rejects_bad_types(cfg_path):
    with pytest.raises(ConfigError, match="epochs"):
        parse_config(cfg_path(train={"epochs": "three"}))
    with pytest.raises(ConfigError, match="hidden"):
        parse_config(cfg_path(train={"hidden": " , "}))


def test_parse_config_source_rules(cfg_path, tmp_path):
    with pytest.raises(ConfigError, match="source"):
        parse_config(cfg_path(dataset={"source": "imagenet"}))
    # synth must not carry file paths
    with pytest.raises(ConfigError, match="train_path"):
        parse_config(cfg_path(dataset={"train_path": "/tmp/x.bin"}))
    # cifar needs paths and fixed class count, and no synth knobs
    with pytest.raises(ConfigError, match="source=cifar10 requires key 'train_path'"):
        parse_config(cfg_path(dataset={
            "source": "cifar10", "num_classes": None, "train_per_class": None,
            "test_per_class": None, "seed": None}))
    with pytest.raises(ConfigError, match="source=synth requires key 'num_classes'"):
        parse_config(cfg_path(dataset={"num_classes": None}))
    with pytest.raises(ConfigError, match="train_per_class"):
        parse_config(cfg_path(dataset={
            "source": "cifar10", "num_classes": None, "test_per_class": None,
            "seed": None, "train_path": "/tmp/a", "test_path": "/tmp/b"}))
    with pytest.raises(ConfigError, match="num_classes must be 10"):
        parse_config(cfg_path(dataset={
            "source": "cifar10", "num_classes": 4, "train_per_class": None,
            "test_per_class": None, "seed": None,
            "train_path": "/tmp/a", "test_path": "/tmp/b"}))


def test_parse_config_sampler_key_scoping(cfg_path):
    with pytest.raises(ConfigError, match="does not apply"):
        parse_config(cfg_path(sampler={"kind": "uniform", "range": 4}))  # sigma left over
    with pytest.raises(ConfigError, match="requires key"):
        parse_config(cfg_path(sampler={"kind": "gaussian", "sigma": None}))
    with pytest.raises(ConfigError, match="requires key"):
        parse_config(cfg_path(sampler={
            "kind": "resize_crop", "length": None, "width": 224, "height": 224}))
    cfg = parse_config(cfg_path(sampler={
        "kind": "standard", "sigma": None, "length": None,
        "width": 224, "height": 224, "scale_min": 0.2}))
    assert cfg.train.sampler == StandardCropConfig(224, 224, scale_min=0.2)
    assert cfg.train.sampler.ratio_min == 0.75


def test_parse_config_p_min_must_match_chance(cfg_path):
    cfg = parse_config(cfg_path(softening={"p_min": 0.25}))
    assert cfg.dataset.num_classes == 4
    with pytest.raises(ConfigError, match="1/num_classes"):
        parse_config(cfg_path(softening={"p_min": 0.2}))


def test_parse_config_alpha_bounds(cfg_path):
    cfg = parse_config(cfg_path(softening={"alpha": 0.1}))
    assert cfg.train.policy.alpha == 0.1
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(cfg_path(softening={"alpha": 1.0}))
    with pytest.raises(ConfigError, match="chance"):
        parse_config(cfg_path(softening={"alpha": 0.9}))  # 1 - 0.9 < 1/4


# --- train command ---


def test_train_writes_artifacts(cfg_path, tmp_path, capsys):
    path = cfg_path()
    assert main(["train", "--config", path]) == 0
    run = tmp_path / "run"
    for name in ("config.ini", "epoch_log.csv", "final_metrics.csv", "checkpoint.bin"):
        assert (run / name).exists(), name
    # snapshot is the config byte for byte
    assert (run / "config.ini").read_bytes() == open(path, "rb").read()
    log_lines = (run / "epoch_log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,mean_loss,top1_error,lr,sigma"
    assert len(log_lines) == 3  # header + one row per epoch
    metrics = (run / "final_metrics.csv").read_text().splitlines()
    assert metrics[0] == "metric,value"
    assert metrics[1].startswith("test_top1_error,")
    assert metrics[2].startswith("test_ece,")
    assert "test top-1 error" in capsys.readouterr().out


def test_train_out_flag_overrides_config(cfg_path, tmp_path):
    path = cfg_path()
    other = tmp_path / "elsewhere"
    assert main(["train", "--config", path, "--out", str(other)]) == 0
    assert (other / "checkpoint.bin").exists()


def test_train_seed_flag_changes_model(cfg_path, tmp_path):
    path = cfg_path()
    main(["train", "--config", path, "--out", str(tmp_path / "a")])
    main(["train", "--config", path, "--out", str(tmp_path / "b"), "--seed", "1"])
    main(["train", "--config", path, "--out", str(tmp_path / "c"), "--seed", "2"])
    a = (tmp_path / "a" / "checkpoint.bin").read_bytes()
    b = (tmp_path / "b" / "checkpoint.bin").read_bytes()
    c = (tmp_path / "c" / "checkpoint.bin").read_bytes()
    assert a == b  # flag equals the config seed
    assert a != c


# sha256 of each of TRAIN_ARTIFACTS after two epochs. numpy's
# OpenBLAS picks its GEMM kernel for the CPU at run time, and kernels
# round the matmuls differently, so a digest belongs to one build (numpy
# 2.4.6, OpenBLAS 0.3.31) and one kernel. Each training therefore runs in
# a child process under OPENBLAS_CORETYPE=Prescott, the SSE3 kernel that
# every x86-64 CPU runs (OpenBLAS reports its core name as "Katmai"). A
# change that alters the training stream on purpose must update them and
# say so.
GOLDEN_KERNEL = "Prescott"
TRAIN_ARTIFACTS = ("checkpoint.bin", "epoch_log.csv", "final_metrics.csv")
GOLDEN = {
    "uniform_none": (
        {"sampler": {"kind": "uniform", "sigma": None, "range": 8},
         "softening": {"mode": "none"}},
        "dba6cc09d10416ed02957a8a542e2b078f9f25bcda4234834461d254f932af8a",
        "89590bec76abda2c23b2c0062f41b0097269d26887d5a7ccc08b3db9cce5b1ef",
        "e8319136f673ec13a1e6d4744c34e555e3d6a809e047dfeba5da2cfa78849c53",
    ),
    "gaussian_sigma_decay": (
        {"train": {"sigma_decay_final_epochs": 1}},
        "e13e0fe2a2db21ddf1f3199b79a319df831a9217031d760ffb9dccb0bec10fb4",
        "715098d7acab2f221153c3a926890217fcdbb0acb9494f1409d2b08f3099b6d6",
        "372c6bf9a4ce24046d4bcd44778d135dd0494420f809d11d8044b666dbf9180e",
    ),
    "gaussian_alpha": (
        {"softening": {"alpha": 0.1}},
        "dacf75abf07ec275dccb05e96d39390694af2bcfdcad82ac0e2ba91e5a1116d3",
        "a2d9182fdd068335a4b5ada05ac4e40b7f4504a4f2f33f9cc4b86e28e1e2d9dc",
        "985b69431cab43cad8c8be00f41022321f3880fc489e05ee2d7628e5271824da",
    ),
}


def golden_kernel():
    """The environment entry that pins a new process's OpenBLAS to GOLDEN_KERNEL;
    OpenBLAS reads it once, when the process loads numpy."""
    machine = platform.machine()
    if machine not in ("x86_64", "AMD64"):
        pytest.fail(f"the training goldens are pinned to the x86-64 OpenBLAS kernel "
                    f"{GOLDEN_KERNEL}, which platform.machine() {machine!r} cannot run")
    return {"OPENBLAS_CORETYPE": GOLDEN_KERNEL}


def run_under_golden_kernel(argv, **env):
    """``softaug *argv`` in a child process pinned to GOLDEN_KERNEL, with
    ``env`` added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, **golden_kernel(), "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "softaug.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("arm", sorted(GOLDEN))
def test_train_golden_fingerprint(arm, cfg_path, tmp_path):
    overrides, *digests = GOLDEN[arm]
    run_under_golden_kernel(["train", "--config", cfg_path(**overrides)])
    assert [sha256_of(tmp_path / "run" / name) for name in TRAIN_ARTIFACTS] == digests


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_model_does_not_depend_on_the_blas_thread_count(cfg_path, tmp_path):
    # 40 images in batches of 25 at hidden 16 are in OpenBLAS's threaded
    # range, where 1 and 2 threads round GOLDEN_KERNEL's float32 GEMMs
    # differently; the GOLDEN configs are too small for it to thread
    path = cfg_path(dataset={"train_per_class": 10},
                    train={"epochs": 1, "batch_size": 25, "hidden": 16})
    digests = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        run_under_golden_kernel(["train", "--config", path, "--out", str(out)],
                                OPENBLAS_NUM_THREADS=threads)
        digests[threads] = [sha256_of(out / name) for name in TRAIN_ARTIFACTS]
    assert digests["1"] == digests["2"]
    assert digests["1"][2] == (
        "2c6f580663deb44905341c7aa722bb115e19cd84f25a4f22638b3b51b6cba2f7")


# sha256 of the CSVs the commands other than train write. The occlusion
# and compare digests go through training, so their commands run in child
# processes under GOLDEN_KERNEL too: occlusion's train and sweep, and
# compare, whose workers are forked from its process and keep its kernel.
# Curve and sampler-stats involve no matmul and run in this process.
_RESIZE = {"kind": "resize_crop", "length": None, "min_length": 16,
           "width": 32, "height": 32}
_STANDARD = {"kind": "standard", "sigma": None, "length": None,
             "width": 64, "height": 64}
_STATS = ["sampler-stats", "--draws", "300", "--seed", "4"]
GOLDEN_WRITERS = {
    "curve": (
        {}, ["curve", "--points", "11", "--k-list", "0,0.5,2"], "curve.csv",
        "ca6efed647633642f61b1a34a4ab28293b91aa66dd7fd579beb36284074b28b6",
    ),
    "stats_gaussian": (
        {}, _STATS, "sampler_stats.csv",
        "671f82cb7c0affa2bcebde305a980bd3265d9a24cf0fac67ee6ef11132215ee7",
    ),
    "stats_uniform": (
        {"sampler": {"kind": "uniform", "sigma": None, "range": 8}}, _STATS,
        "sampler_stats.csv",
        "f0ab03eb01aaba98b413593c0030db2b5eb9e58c80683fa1a62363cd1bea1d25",
    ),
    "stats_resize_crop": (
        {"sampler": _RESIZE}, _STATS, "sampler_stats.csv",
        "cbd2560c3cc3d965bf6a2676a7cef5141b413b8251417acd088c683e7e9366f3",
    ),
    "stats_standard": (
        {"sampler": _STANDARD}, _STATS, "sampler_stats.csv",
        "8fed8644c8674f27ebcfee67caff45ddc13fcdee02c33e165c3f5363d3f2927d",
    ),
    # on a checkpoint trained from the same config
    "occlusion": (
        {}, ["occlusion", "--checkpoint", "{run}/checkpoint.bin", "--trials", "2",
             "--seed", "3"], "occlusion.csv",
        "e6688ad732b21d9ff62fc7f9528a31bd663e2f3049a804401f3e41ee2532ddd8",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WRITERS))
def test_writer_golden_fingerprint(name, cfg_path, tmp_path):
    overrides, argv, filename, digest = GOLDEN_WRITERS[name]
    path = cfg_path(**overrides)
    out = tmp_path / "out"
    argv = [*(arg.format(run=tmp_path / "run") for arg in argv), "--config", path,
            "--out", str(out)]
    if name == "occlusion":
        run_under_golden_kernel(["train", "--config", path])
        run_under_golden_kernel(argv)
    else:
        assert main(argv) == 0
    assert sha256_of(out / filename) == digest


def compare_argv(tmp_path, seeds, out):
    """compare's argv for the hard and soft BASE arms over ``seeds`` seeds,
    writing to ``tmp_path / out``."""
    arm_a = write_config(tmp_path / "hard.ini", tmp_path / "out_a",
                         softening={"mode": "none"})
    arm_b = write_config(tmp_path / "soft.ini", tmp_path / "out_b")
    return ["compare", "--config-a", arm_a, "--config-b", arm_b, "--seeds", str(seeds),
            "--out", str(tmp_path / out)]


def compare_digest(tmp_path, seeds):
    """sha256 of compare.csv for the hard and soft BASE arms over ``seeds``
    seeds, from a child process pinned to GOLDEN_KERNEL: this process's
    kernel is loaded already, and forked workers would keep it."""
    run_under_golden_kernel(compare_argv(tmp_path, seeds, "cmp"))
    return sha256_of(tmp_path / "cmp" / "compare.csv")


def compare_here(tmp_path, out):
    """The bytes of compare.csv for the hard and soft BASE arms over one seed,
    from ``main`` in this process, on the kernel it loaded."""
    assert main(compare_argv(tmp_path, 1, out)) == 0
    return (tmp_path / out / "compare.csv").read_bytes()


COMPARE_GOLDEN = "792cb40546b3759842cd688a31cd6564ff70e84363952fac137ea17fb29fb799"


def test_compare_golden_fingerprint(tmp_path):
    assert compare_digest(tmp_path, 1) == COMPARE_GOLDEN


def test_compare_golden_fingerprint_three_seeds(tmp_path):
    # six trainings: the rows must come out in arm-then-seed order
    assert compare_digest(tmp_path, 3) == (
        "47015130812a38029379adb87574d1ffe83654ef1f657db787b171cec1d60d9a")


def test_train_exit_2_on_bad_config(cfg_path, tmp_path, capsys):
    path = cfg_path(softening={"mode": "soft"})
    assert main(["train", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err
    # checks that need the data or the checkpoint also run before
    # anything is written
    assert main(["train", "--config", cfg_path(dataset={"num_classes": 9})]) == 2
    assert "num_classes" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    assert main(["occlusion", "--config", cfg_path(), "--checkpoint",
                 str(tmp_path / "missing.bin"), "--out", str(tmp_path / "occ")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "occ").exists()
    # non-finite and degenerate values fail up front, never mid-run
    for overrides in ({"softening": {"k": "nan"}}, {"train": {"lr0": "nan"}},
                      {"train": {"lr0": "inf"}}, {"train": {"weight_decay": "inf"}},
                      {"sampler": {"sigma": "nan"}},
                      {"train": {"sigma_decay_final_epochs": 1,
                                 "sigma_decay_factor": "inf"}},
                      {"train": {"sigma_decay_factor": "inf"}}):
        assert main(["train", "--config", cfg_path(**overrides)]) == 2, overrides
        assert "error:" in capsys.readouterr().err
    # every command validates the whole config, not only the keys it reads
    assert main(["curve", "--config", cfg_path(dataset={"num_classes": 0})]) == 2
    assert "num_classes" in capsys.readouterr().err
    # the synth class range and split sizes hold for the commands that render no data
    for dataset, message in (({"num_classes": 9}, "num_classes must be in [2, 8]"),
                             ({"train_per_class": 0}, "[dataset] train_per_class must be >= 1"),
                             ({"test_per_class": 0}, "[dataset] test_per_class must be >= 1")):
        for command in (["curve"], ["sampler-stats", "--draws", "10"]):
            out = tmp_path / command[0]
            assert main([*command, "--config", cfg_path(dataset=dataset),
                         "--out", str(out)]) == 2, command
            assert message in capsys.readouterr().err
            assert not out.exists()
    assert main(["curve", "--config", cfg_path(train={"lr0": "nan"})]) == 2
    assert "[train] lr0" in capsys.readouterr().err


@pytest.mark.parametrize("rewrite, code, expected", [
    (lambda text, run: text.replace(f"= {run}", f"= {run}/runs/100%"), 0, "runs/100%"),
    (lambda text, run: text.replace(f"= {run}", f"= {run}/%(seed)s"), 0, "%(seed)s"),
    (lambda text, _run: "[DEFAULT]\nseed = 3\n" + text, 2,
     "error: [DEFAULT] is not supported; set ['seed'] per section\n"),
    (lambda text, _run: text.replace("k = 2", "k = 2\nk = 3"), 2, "error:"),
    (lambda text, _run: text.replace("k = 2", "k = 2 ; \udcff"), 2, "error:"),
    (lambda text, run: text.replace(f"= {run}", "="), 2, "error: [output] dir is empty\n"),
    # the byte-order mark Windows Notepad writes
    (lambda text, run: "\ufeff" + text.replace(f"= {run}", f"= {run}/bom"), 0, "bom"),
], ids=["percent", "percent-placeholder", "default-section", "duplicate-key", "non-utf8",
        "empty-dir", "bom"])
def test_hostile_ini_text_exits_cleanly(rewrite, code, expected, cfg_path, tmp_path, capsys,
                                        monkeypatch):
    # values are read literally: a % is neither an escape nor a reference
    monkeypatch.chdir(tmp_path)
    path = Path(cfg_path())
    text = rewrite(path.read_text(), tmp_path / "run")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["train", "--config", str(path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(expected)
        # rejected before any write, also into the current directory
        assert list(tmp_path.iterdir()) == [path]
    else:
        # the snapshot is the file's bytes, a byte-order mark included
        assert (tmp_path / "run" / expected / "config.ini").read_bytes() == path.read_bytes()


# one valid [sampler] section per kind, for the fuzzer to start from
_VALID_SAMPLERS = {
    "gaussian": {"sigma": 0.3},
    "uniform": {"range": 4},
    "resize_crop": {"sigma": 0.3, "min_length": 8, "width": 32, "height": 32},
    "standard": {"width": 32, "height": 32},
}
_HOSTILE_VALUES = st.sampled_from([
    "", " ", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "-1", "2",
    "0.5", "1", str(2**63), str(-2**63 - 1), str(10**30), "%", "%(seed)s", "100%", "a,b",
    ",", "8, 8", "none", "hard", *cli._SOURCES, *cli._KINDS,
]) | st.integers(-2**70, 2**70).map(str) | st.floats().map(repr)


@st.composite
def ini_texts(draw):
    """A config that starts valid and then gets up to four hostile edits:
    a value set, a key dropped or an unknown key added, then perhaps a
    key repeated."""
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections["output"]["dir"] = "fuzz-out"
    kind = draw(st.sampled_from(sorted(_VALID_SAMPLERS)))
    sections["sampler"] = {"kind": kind, **_VALID_SAMPLERS[kind]}
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(cli._KEYS)))
        key = draw(st.sampled_from(sorted(cli._KEYS[name]) + ["unknown"]))
        if draw(st.booleans()):
            sections[name][key] = draw(_HOSTILE_VALUES)
        else:
            sections[name].pop(key, None)
    lines = []
    for name, keys in sections.items():
        lines += [f"[{name}]", *(f"{key} = {value}" for key, value in keys.items()), ""]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return "\n".join(lines)


def run_quietly(argv):
    """``main(argv)`` with its output captured: (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150)
@given(ini_texts())
def test_fuzzed_ini_text_exits_cleanly(text):
    # every path the commands write is under --out: the fuzzed [output]
    # dir and dataset paths are parsed but never opened
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(text)
        for command in (["curve", "--points", "2"], ["sampler-stats", "--draws", "10"]):
            code, err = run_quietly([*command, "--config", str(path),
                                     "--out", str(Path(tmp) / "out")])
            assert code in (0, 2), (command, err)
            assert "Traceback" not in err


# --- CIFAR files ---


def cifar10_bytes(labels, seed):
    """CIFAR-10 records: a label byte, then 3072 random pixel bytes each."""
    pixels = np.random.default_rng(seed).integers(0, 256, (len(labels), 3072), dtype=np.uint8)
    return b"".join(bytes([label]) + row.tobytes() for label, row in zip(labels, pixels))


def cifar_config(tmp, train_bytes, test_bytes):
    """A one-epoch cifar10 config over train.bin and test.bin in ``tmp``,
    writing to ``tmp``/run."""
    for name, blob in (("train.bin", train_bytes), ("test.bin", test_bytes)):
        (tmp / name).write_bytes(blob)
    return write_config(tmp / "cifar.ini", tmp / "run", train={"epochs": 1}, dataset={
        "source": "cifar10", "num_classes": None, "train_per_class": None,
        "test_per_class": None, "seed": None, "train_path": tmp / "train.bin",
        "test_path": tmp / "test.bin"})


@pytest.mark.parametrize("empty", ["train", "test"])
def test_empty_cifar_split_exits_2_before_writing(empty, tmp_path, capsys):
    records = cifar10_bytes(range(10), seed=5)
    path = cifar_config(tmp_path, *(b"" if split == empty else records
                                    for split in ("train", "test")))
    for argv in (["train", "--config", path],
                 ["compare", "--config-a", path, "--config-b", path, "--seeds", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {empty}_path {tmp_path / empty}.bin: ")
        assert not (tmp_path / "run").exists()


@st.composite
def cifar_files(draw):
    """Train and test bytes of 0-3 CIFAR-10 records each; one file in three
    gets a label out of range or is cut anywhere."""
    files = []
    for _ in range(2):
        count = draw(st.integers(0, 3))
        labels = draw(st.lists(st.integers(0, 9), min_size=count, max_size=count))
        blob = bytearray(cifar10_bytes(labels, draw(st.integers(0, 2**32 - 1))))
        edit = draw(st.sampled_from(["none"] * 4 + ["label", "cut"]))
        if edit == "label" and count:
            blob[3073 * draw(st.integers(0, count - 1))] = draw(st.integers(10, 255))
        elif edit == "cut":
            del blob[draw(st.integers(0, len(blob))):]
        files.append(bytes(blob))
    return files


@settings(max_examples=60)
@given(cifar_files())
def test_fuzzed_cifar_bytes_exit_cleanly(files):
    with tempfile.TemporaryDirectory() as tmp:
        path = cifar_config(Path(tmp), *files)
        code, err = run_quietly(["train", "--config", path])
        assert code in (0, 2), err
        assert "Traceback" not in err
        assert (code == 0) == (Path(tmp) / "run").exists(), err
        # every bad file is named with its split
        if code == 2:
            assert any(err.startswith(f"error: {split}_path {Path(tmp) / split}.bin: ")
                       for split in ("train", "test")), err


def test_train_exit_2_on_missing_config(capsys):
    assert main(["train", "--config", "/nonexistent/exp.ini"]) == 2


def test_train_exit_3_on_numeric_blowup(cfg_path, tmp_path, capsys):
    run = tmp_path / "run"
    # a good run first: the failed rerun below must leave none of its artifacts
    assert main(["train", "--config", cfg_path()]) == 0
    capsys.readouterr()
    path = cfg_path(train={"lr0": 1e308, "epochs": 3})
    assert main(["train", "--config", path]) == 3
    # the snapshot lands before training, so the crashed run is attributable
    assert (run / "config.ini").read_bytes() == Path(path).read_bytes()
    assert sorted(child.name for child in run.iterdir()) == ["config.ini"]
    # the diagnostic is the only line: no numpy overflow warnings ahead of it
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1
    # so no checkpoint is left for the failed run's config to be scored with
    assert main(["occlusion", "--config", str(run / "config.ini"),
                 "--checkpoint", str(run / "checkpoint.bin")]) == 2


def test_train_exit_2_on_impossible_allocation(cfg_path, tmp_path, capsys):
    # 3072 x 10**13 float64 weights is beyond any 64-bit address space, so
    # the allocation fails without touching memory
    assert main(["train", "--config", cfg_path(train={"hidden": 10**13})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # as with exit 3, the snapshot written before training stays
    assert (tmp_path / "run" / "config.ini").exists()


def test_train_exit_2_on_sigma_decay_without_gaussian(cfg_path, tmp_path, capsys):
    path = cfg_path(sampler={"kind": "uniform", "sigma": None, "range": 4},
                    train={"sigma_decay_final_epochs": 2})
    assert main(["train", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: [train] sigma decay needs a gaussian")
    assert not (tmp_path / "run").exists()


def test_train_checks_the_arm_before_rendering_data(cfg_path, tmp_path, capsys, monkeypatch):
    def refuse(_spec):
        raise AssertionError("train rendered the data before checking the arm")
    monkeypatch.setattr(cli, "build_datasets", refuse)
    path = cfg_path(sampler={"kind": "resize_crop", "sigma": 0.3, "min_length": 16,
                             "length": None, "width": 32, "height": 32})
    assert main(["train", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("error: resize-crop sampling needs sub-pixel")
    assert not (tmp_path / "run").exists()


def test_train_exit_2_on_sampler_dataset_mismatch(cfg_path, tmp_path):
    path = cfg_path(sampler={"kind": "gaussian", "sigma": 0.3, "length": 64})
    assert main(["train", "--config", path]) == 2
    path = cfg_path(sampler={"kind": "resize_crop", "sigma": 0.3, "min_length": 16,
                             "length": None, "width": 32, "height": 32})
    assert main(["train", "--config", path]) == 2
    assert not (tmp_path / "run").exists()
    # compare checks both arms before it snapshots either config
    arm_b = write_config(tmp_path / "arm_b.ini", tmp_path / "out_b")
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", path, "--config-b", arm_b, "--seeds", "1",
                 "--out", str(out)]) == 2
    assert not out.exists()


# --- curve command ---


def test_curve_rows(cfg_path, tmp_path):
    path = cfg_path()
    out = tmp_path / "curve_out"
    assert main(["curve", "--config", path, "--points", "5",
                 "--k-list", "0,1", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[0] == "k,v,p"
    # k = 0: flat at p_min until v = 1 snaps to full confidence
    assert lines[1] == "0,0,0.25"
    assert lines[2] == "0,0.25,0.25"
    assert lines[4] == "0,0.75,0.25"
    assert lines[5] == "0,1,1"
    # k = 1: affine between p_min and 1
    assert lines[6] == "1,0,0.25"
    assert lines[8] == "1,0.5,0.625"
    assert lines[10] == "1,1,1"


def test_curve_defaults_to_config_k(cfg_path, tmp_path):
    path = cfg_path(softening={"k": 3})
    out = tmp_path / "c2"
    assert main(["curve", "--config", path, "--points", "3", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("3,0,")


def test_curve_on_alpha_config_is_constant(cfg_path, tmp_path):
    # the label-smoothing arm trains on 1 - alpha at every v; curve shows that
    out = tmp_path / "c4"
    assert main(["curve", "--config", cfg_path(softening={"alpha": 0.1}),
                 "--points", "5", "--k-list", "0,2", "--out", str(out)]) == 0
    rows = (out / "curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    assert all(row.endswith(",0.9") for row in rows)


def test_curve_rejects_bad_k_list(cfg_path, tmp_path):
    # every k is checked before the run directory is made
    for k_list in (" , ", "-1", "nan", "1,-1"):
        assert main(["curve", "--config", cfg_path(), "--k-list", k_list,
                     "--out", str(tmp_path / "c3")]) == 2
        assert not (tmp_path / "c3").exists()


@pytest.mark.parametrize("argv", [
    ["curve", "--k-list", ""],
    ["occlusion", "--lambdas", "", "--checkpoint", "missing.bin"],
], ids=["curve", "occlusion"])
def test_empty_list_flag_rejected(argv, cfg_path, tmp_path, capsys):
    # an empty value is not an unset flag: no fallback to the default list
    out = tmp_path / "empty"
    assert main([*argv, "--config", cfg_path(), "--out", str(out)]) == 2
    assert "empty list" in capsys.readouterr().err
    assert not out.exists()


# --- occlusion command ---


def test_occlusion_lambda_zero_matches_clean_eval(cfg_path, tmp_path):
    path = cfg_path()
    run = tmp_path / "run"
    assert main(["train", "--config", path]) == 0
    out = tmp_path / "occ"
    assert main(["occlusion", "--config", path,
                 "--checkpoint", str(run / "checkpoint.bin"),
                 "--lambdas", "0,0.5", "--out", str(out)]) == 0
    occ_rows = (out / "occlusion.csv").read_text().splitlines()
    assert occ_rows[0] == "lambda,top1_error"
    clean = [line for line in (run / "final_metrics.csv").read_text().splitlines()
             if line.startswith("test_top1_error,")][0].split(",")[1]
    assert occ_rows[1] == f"0,{clean}"


def test_occlusion_into_the_train_dir_keeps_the_train_artifacts(cfg_path, tmp_path):
    path = cfg_path()
    run = tmp_path / "run"
    assert main(["train", "--config", path]) == 0
    before = {child.name: child.read_bytes() for child in run.iterdir()}
    # the checkpoint it reads is one of the files in the directory it writes to
    for _ in range(2):
        assert main(["occlusion", "--config", path, "--checkpoint", str(run / "checkpoint.bin"),
                     "--lambdas", "0,0.5", "--out", str(run)]) == 0
    after = {child.name: child.read_bytes() for child in run.iterdir()}
    assert after.pop("occlusion.csv").splitlines()[0] == b"lambda,top1_error"
    assert after == before


def test_occlusion_rejects_architecture_mismatch(cfg_path, tmp_path):
    path = cfg_path()
    assert main(["train", "--config", path]) == 0
    other = write_config(tmp_path / "eight.ini", tmp_path / "other",
                         dataset={"num_classes": 8})
    assert main(["occlusion", "--config", other,
                 "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--out", str(tmp_path / "occ2")]) == 2


def test_occlusion_rejects_non_finite_checkpoint(cfg_path, tmp_path, capsys):
    path = cfg_path()
    assert main(["train", "--config", path]) == 0
    ckpt = tmp_path / "run" / "checkpoint.bin"
    blob = bytearray(ckpt.read_bytes())
    blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()  # the last bias
    ckpt.write_bytes(bytes(blob))
    out = tmp_path / "occ"
    assert main(["occlusion", "--config", path, "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 2
    assert "layer 1 has a non-finite" in capsys.readouterr().err
    assert not out.exists()


def save_overflowing_checkpoint(path):
    """Finite weights of +-1e307 that fit the BASE config: they load, but
    their logits overflow and the softmax rows turn NaN."""
    weights = np.where(np.arange(4)[:, None] % 2 == 0, 1e307, -1e307) * np.ones((4, 3072))
    save_checkpoint(MlpClassifier((3072, 4), [weights], [np.zeros(4)]), str(path))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's matmul overflow warning
def test_occlusion_exits_2_on_logits_that_overflow(cfg_path, tmp_path, capsys):
    # the sweep rejects the NaN rows as evaluate does
    ckpt = tmp_path / "checkpoint.bin"
    save_overflowing_checkpoint(ckpt)
    out = tmp_path / "occ"
    assert main(["occlusion", "--config", cfg_path(), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: probs must be non-negative and sum to 1\n"
    assert not (out / "occlusion.csv").exists()


@functools.lru_cache(maxsize=None)
def checkpoint_blob():
    """The bytes of an untrained checkpoint that fits the BASE config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        save_checkpoint(init_mlp((3072, 8, 4), RandomSource(0)), str(path))
        return path.read_bytes()


# magic, version and size count, then the three-entry size table
_HEADER, _SIZE_TABLE = 16, 12


@st.composite
def checkpoint_bytes(draw):
    """A valid checkpoint with one edit: cut short, a header or weight byte
    flipped, a size table entry overwritten, or bytes appended."""
    blob = bytearray(checkpoint_blob())
    edit = draw(st.sampled_from(["truncate", "header", "weight", "size", "trailing"]))
    if edit == "truncate":
        del blob[draw(st.integers(0, _HEADER + _SIZE_TABLE) | st.integers(0, len(blob) - 1)):]
    elif edit == "size":
        at = _HEADER + 4 * draw(st.integers(0, 2))
        blob[at : at + 4] = struct.pack("<I", draw(st.sampled_from([0, 1, 2**31, 2**32 - 1])))
    elif edit == "trailing":
        blob += draw(st.binary(min_size=1, max_size=16))
    else:
        end = _HEADER + _SIZE_TABLE
        at = draw(st.integers(0, end - 1) if edit == "header" else st.integers(end, len(blob) - 1))
        blob[at] ^= draw(st.integers(1, 255))
    return bytes(blob)


@settings(max_examples=150)
@given(checkpoint_bytes())
def test_fuzzed_checkpoint_bytes_exit_cleanly(blob):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, out = Path(tmp) / "checkpoint.bin", Path(tmp) / "occ"
        ckpt.write_bytes(blob)
        path = write_config(Path(tmp) / "exp.ini", out,
                            dataset={"train_per_class": 1, "test_per_class": 1})
        code, err = run_quietly(["occlusion", "--config", path, "--checkpoint", str(ckpt),
                                 "--lambdas", "0,0.5"])
        assert code in (0, 2), err
        assert "Traceback" not in err
        assert (code == 0) == (out / "occlusion.csv").exists(), err
        # a checkpoint that fails to load creates nothing; one that loads but
        # gives no distributions fails in the sweep, inside its run directory
        if not err.startswith("error: probs must be"):
            assert (code == 0) == out.exists(), err


def test_occlusion_rejects_bad_lambdas(cfg_path, tmp_path):
    path = cfg_path()
    assert main(["train", "--config", path]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    out = str(tmp_path / "occ3")
    assert main(["occlusion", "--config", path, "--checkpoint", ckpt,
                 "--lambdas", "0,1.5", "--out", out]) == 2
    assert not Path(out).exists()


# --- sampler-stats command ---


def test_visibility_histogram_bins_right_inclusive():
    # bin m holds ((m-1)/10, m/10]: v = 0 counts in bin 1, v = m/10 in bin
    # m, and the next float above m/10 in bin m + 1
    for m in range(1, 10):
        vs = np.array([0.0, m / 10, np.nextafter(m / 10, 1.0)])
        hist = [n for name, n in cli._visibility_rows(vs) if name.startswith("vis_hist_bin_")]
        expected = [0] * 10
        for bin_ in (1, m, m + 1):
            expected[bin_ - 1] += 1
        assert hist == expected, m
    rows = dict(cli._visibility_rows(np.array([1.0])))
    assert rows["vis_hist_bin_10"] == 1


def test_sampler_stats_degenerate_sigma(cfg_path, tmp_path):
    path = cfg_path(sampler={"sigma": 1e-12})
    out = tmp_path / "stats"
    assert main(["sampler-stats", "--config", path, "--draws", "200",
                 "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in
        (out / "sampler_stats.csv").read_text().splitlines()[1:]
    )
    assert rows["kind"] == "gaussian"
    assert rows["draws"] == "200"
    assert rows["std_offset"] == "0"
    assert rows["min_offset"] == "0" and rows["max_offset"] == "0"
    assert rows["frac_fully_visible"] == "1"
    assert rows["vis_hist_bin_10"] == "200"
    assert rows["vis_hist_bin_1"] == "0"


def test_sampler_stats_standard_kind(cfg_path, tmp_path):
    path = cfg_path(sampler={"kind": "standard", "sigma": None, "length": None,
                             "width": 64, "height": 64})
    out = tmp_path / "stats2"
    assert main(["sampler-stats", "--config", path, "--draws", "500",
                 "--out", str(out)]) == 0
    rows = dict(
        line.split(",") for line in
        (out / "sampler_stats.csv").read_text().splitlines()[1:]
    )
    assert rows["kind"] == "standard"
    assert 0.4 < float(rows["mean_area_fraction"]) < 0.65
    assert int(rows["max_w"]) <= 64
    # windows always land inside the source image, so the fraction of it
    # they cover is exactly their area fraction
    assert rows["frac_visibility_positive"] == "1"
    assert rows["mean_visibility"] == rows["mean_area_fraction"]


@pytest.mark.parametrize("sampler", [
    {}, {"kind": "uniform", "sigma": None, "range": 8}, _RESIZE, _STANDARD,
], ids=["gaussian", "uniform", "resize_crop", "standard"])
def test_sampler_stats_exit_2_on_draws_too_large_to_hold(sampler, cfg_path, tmp_path, capsys):
    # every output array is allocated before the first draw
    out = tmp_path / "huge"
    assert main(["sampler-stats", "--config", cfg_path(sampler=sampler),
                 "--draws", "10000000000000", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "sampler_stats.csv").exists()


@pytest.mark.parametrize("command", [["sampler-stats", "--draws", "10"], ["train"]])
def test_gaussian_spread_overflow_exits_2_before_writing(command, cfg_path, tmp_path, capsys):
    # sigma * length is inf: before, the bulk draws returned zero offsets
    out = tmp_path / "spread"
    assert main([*command, "--config", cfg_path(sampler={"sigma": 1e308}),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: [sampler] sigma * length must be finite")
    assert not out.exists() and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "compare"])
def test_decayed_sigma_underflow_exits_2_before_writing(command, cfg_path, tmp_path, capsys):
    # sigma / factor rounds to 0: before, the final epochs failed after the run dir was made
    path = cfg_path(sampler={"sigma": 1e-320},
                    train={"sigma_decay_final_epochs": 1, "sigma_decay_factor": 1e6})
    configs = (["--config-a", path, "--config-b", path] if command == "compare"
               else ["--config", path])
    out = tmp_path / "decayed"
    assert main([command, *configs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: [train] decayed sigma: sigma * length must be "
                                       "finite and > 0, got 0.0 * 32\n")
    assert not out.exists() and not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sampler", [
    {**_RESIZE, "sigma": 1e308, "min_length": 8}, {**_STANDARD, "ratio_max": 1e308},
], ids=["resize_crop", "standard"])
def test_sampler_stats_saturates_without_warnings(sampler, cfg_path, tmp_path, capsys):
    assert main(["sampler-stats", "--config", cfg_path(sampler=sampler), "--draws", "500",
                 "--out", str(tmp_path / "stats")]) == 0
    assert capsys.readouterr().err == ""


# sha256 of sampler_stats.csv at the default 100k draws, seed 1, for the
# samplers of configs/soft_synth.ini, configs/hard_synth.ini,
# bench/configs/resize_crop_synth.ini and bench/configs/standard_synth.ini.
# gaussian, uniform and resize_crop were pinned from the scalar draw loop
# that the array path replaced; standard is pinned from its stream of one
# 13-uniform block per window, which both paths draw through one rule
STATS_100K = {
    "gaussian": ({}, "d33dea75c1ac433277161fdd0ae157a66a80c61cbdc3e0c82189cd4159b05ef9"),
    "uniform": ({"kind": "uniform", "sigma": None, "range": 16},
                "073674b1edd63fedd9c19a242503f1cb9f8985c9fab4d0419ad3d3ab7d473a41"),
    "resize_crop": ({**_RESIZE, "min_length": 8, "sigma": 0.3},
                    "f565a896848fa9ec36f4b49048c7fb5ed8d7aa3075aee2642bf46eb3329fb9db"),
    "standard": ({**_STANDARD, "width": 32, "height": 32},
                 "90e6374cf148b2401bbfbade200d511df018f61973af09103842fd1048b1ef3a"),
}


@pytest.mark.parametrize("kind", sorted(STATS_100K))
def test_sampler_stats_golden_at_default_draws(kind, cfg_path, tmp_path):
    sampler, digest = STATS_100K[kind]
    out = tmp_path / "stats"
    assert main(["sampler-stats", "--config", cfg_path(sampler=sampler), "--seed", "1",
                 "--out", str(out)]) == 0
    assert sha256_of(out / "sampler_stats.csv") == digest


def test_sampler_stats_rejects_range_beyond_image(cfg_path, tmp_path, capsys):
    path = cfg_path(sampler={"kind": "uniform", "sigma": None, "range": 40})
    assert main(["sampler-stats", "--config", path, "--draws", "10",
                 "--out", str(tmp_path / "s4")]) == 2
    assert "[sampler] range" in capsys.readouterr().err


@pytest.mark.parametrize("sampler", [
    {**_STANDARD, "width": 2**40, "height": 2**40},
    {**_RESIZE, "min_length": 8, "width": 2**63},
], ids=["standard-2^40", "resize_crop-2^63"])
def test_sampler_stats_rejects_sides_beyond_2_31(sampler, cfg_path, tmp_path, capsys):
    # windows are int64, and a covered area of side**2 would wrap (2^40:
    # a negative min_visibility) or overflow (2^63: an OverflowError)
    out = tmp_path / "big"
    assert main(["sampler-stats", "--config", cfg_path(sampler=sampler), "--draws", "10",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [sampler] width and height must be in [1, 2**31], got ")
    assert "Traceback" not in err
    assert not out.exists()


# --- compare command ---


def test_compare_identical_arms_zero_delta(tmp_path):
    arm_a = write_config(tmp_path / "arm_a.ini", tmp_path / "out_a")
    arm_b = write_config(tmp_path / "arm_b.ini", tmp_path / "out_b")
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm_a, "--config-b", arm_b,
                 "--seeds", "2", "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "arm,seed,top1_error,ece"
    assert len(lines) == 6  # 2 arms x 2 seeds + delta
    assert lines[1].startswith("arm_a,1,")
    assert lines[2].startswith("arm_a,2,")
    assert lines[3].startswith("arm_b,1,")
    assert lines[-1] == "delta,,0,0"
    assert (out / "config_a.ini").exists()
    assert (out / "config_b.ini").exists()


def test_compare_reruns_byte_identical(tmp_path):
    arm_a = write_config(tmp_path / "hard.ini", tmp_path / "out_a",
                         softening={"mode": "none"})
    arm_b = write_config(tmp_path / "soft.ini", tmp_path / "out_b")
    first = tmp_path / "cmp1"
    second = tmp_path / "cmp2"
    for out in (first, second):
        assert main(["compare", "--config-a", arm_a, "--config-b", arm_b,
                     "--seeds", "2", "--out", str(out)]) == 0
    assert (first / "compare.csv").read_bytes() == (second / "compare.csv").read_bytes()


def test_compare_failed_rerun_leaves_no_old_csv(tmp_path, capfd):
    arm_a = write_config(tmp_path / "s0.ini", tmp_path / "out_a")
    good = write_config(tmp_path / "s1.ini", tmp_path / "out_b")
    bad = write_config(tmp_path / "s_bad.ini", tmp_path / "out_b", train={"lr0": 1e308})
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm_a, "--config-b", good, "--seeds", "1",
                 "--out", str(out)]) == 0
    assert main(["compare", "--config-a", arm_a, "--config-b", bad, "--seeds", "1",
                 "--out", str(out)]) == 3
    assert "error: non-finite loss" in capfd.readouterr().err
    # the snapshots are the failed run's, and the first run's compare.csv is gone
    assert sorted(child.name for child in out.iterdir()) == ["config_a.ini", "config_b.ini"]
    assert (out / "config_b.ini").read_bytes() == Path(bad).read_bytes()


def test_compare_rejects_dataset_mismatch(tmp_path):
    arm_a = write_config(tmp_path / "a.ini", tmp_path / "out_a")
    arm_b = write_config(tmp_path / "b.ini", tmp_path / "out_b",
                         dataset={"seed": 8})
    assert main(["compare", "--config-a", arm_a, "--config-b", arm_b,
                 "--out", str(tmp_path / "cmp")]) == 2


def no_process_left():
    """No compare worker and no resource tracker outlives the command:
    this process has no child left, running or unreaped."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_leaves_no_process(tmp_path):
    before = dict(os.environ)
    compare_here(tmp_path, "cmp")
    assert dict(os.environ) == before
    no_process_left()


def exit_worker(*_args):
    """Stands in for a compare job and kills its worker process."""
    os._exit(1)


@pytest.mark.parametrize("case", ["blowup", "allocation", "dead_worker"])
def test_compare_job_errors_reach_the_cli(case, tmp_path, capfd, monkeypatch):
    # capfd, not capsys: it also sees what a worker writes to stderr
    overrides, code, line = {
        "blowup": ({"lr0": 1e308}, 3, "error: non-finite loss in epoch 0, batch 1 "),
        "allocation": ({"hidden": 10**13}, 2, "error: Unable to allocate "),
        "dead_worker": ({}, 2, "error: A process in the process pool was terminated"),
    }[case]
    if case == "dead_worker":
        monkeypatch.setattr(cli, "_train_eval", exit_worker)
    arm_a = write_config(tmp_path / "a.ini", tmp_path / "out_a")
    arm_b = write_config(tmp_path / "b.ini", tmp_path / "out_b", train=overrides)
    before = dict(os.environ)
    assert main(["compare", "--config-a", arm_a, "--config-b", arm_b, "--seeds", "1",
                 "--out", str(tmp_path / "cmp")]) == code
    err = capfd.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1, err
    assert dict(os.environ) == before
    no_process_left()


def test_compare_pool_workers_run_one_blas_thread(monkeypatch):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    threads = {}
    for user_setting in (None, "2"):
        if user_setting:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_setting)
        before = dict(os.environ)
        with cli._worker_pool(1) as pool:
            threads[user_setting] = pool.submit(blas_threads).result(timeout=120)
        # the pin lives only in the workers' environment, never in this one's
        assert dict(os.environ) == before
        no_process_left()
    if threads[None] is None:
        pytest.skip("this numpy bundles no OpenBLAS thread getter")
    # the workers run one thread whatever the user set
    assert threads == {None: 1, "2": 1}


def test_compare_parent_renders_no_data(tmp_path, monkeypatch):
    expected = compare_here(tmp_path, "plain")
    parent = os.getpid()

    def parent_refuses(render):
        def call(*args):
            if os.getpid() == parent:
                raise AssertionError("the compare parent rendered a dataset")
            return render(*args)
        return call
    # the forked workers inherit the patch and render through it
    for name in ("build_datasets", "synth_shapes"):
        monkeypatch.setattr(cli, name, parent_refuses(getattr(cli, name)))
    assert compare_here(tmp_path, "patched") == expected


def test_compare_exit_2_on_dataset_too_large_to_hold(tmp_path, capsys):
    # 4 * 10**12 images of 3 x 32 x 32 float64: no address space holds them
    arm = write_config(tmp_path / "arm.ini", tmp_path / "out",
                       dataset={"train_per_class": 10**12})
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm, "--config-b", arm, "--seeds", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not out.exists()


def test_compare_runs_from_a_script_read_on_stdin(tmp_path, monkeypatch):
    # python - < script.py runs a __main__ whose __file__ is '<stdin>';
    # forked workers never re-run it
    script = types.ModuleType("__main__")
    script.__file__ = "<stdin>"
    monkeypatch.setitem(sys.modules, "__main__", script)
    arm = write_config(tmp_path / "arm.ini", tmp_path / "out", train={"epochs": 1})
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm, "--config-b", arm, "--seeds", "1",
                 "--out", str(out)]) == 0
    assert (out / "compare.csv").is_file()
    no_process_left()


def test_compare_off_linux_runs_its_jobs_in_this_process(tmp_path, monkeypatch):
    forked = compare_here(tmp_path, "forked")

    def refuse():
        raise AssertionError("compare started a child process")
    monkeypatch.setattr(cli, "_FORK_WORKERS", False)  # as on macOS and Windows
    monkeypatch.setattr(os, "fork", refuse)
    before = dict(os.environ)
    assert compare_here(tmp_path, "in_process") == forked
    assert dict(os.environ) == before
    no_process_left()


def compare_in_this_process(argv):
    """A spawned process's target: exit with ``main(argv)``'s code."""
    sys.exit(main(argv))


def test_compare_in_a_spawned_process(tmp_path):
    # compare forks its workers from a child that was itself spawned
    arm = write_config(tmp_path / "arm.ini", tmp_path / "out", train={"epochs": 1})
    out = tmp_path / "cmp"
    child = multiprocessing.get_context("spawn").Process(
        target=compare_in_this_process,
        args=(["compare", "--config-a", arm, "--config-b", arm, "--seeds", "1",
               "--out", str(out)],))
    child.start()
    child.join(timeout=300)
    assert child.exitcode == 0
    assert (out / "compare.csv").is_file()
    # the tracker this test's spawn started
    resource_tracker._resource_tracker._stop()
    no_process_left()


def test_compare_without_sched_getaffinity(tmp_path, monkeypatch):
    # where os has no sched_getaffinity, the pool falls back to
    # os.cpu_count, and rows are read in submission order either way
    expected = compare_here(tmp_path, "plain")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert compare_here(tmp_path, "patched") == expected


def test_negative_seeds_rejected_before_writing(cfg_path, tmp_path, capsys):
    for section in ("dataset", "train"):
        assert main(["train", "--config", cfg_path(**{section: {"seed": -5}})]) == 2
        assert f"[{section}] seed must be >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("train", "--seed", "-1", "must be >= 0, got -1"),
    ("occlusion", "--seed", "-1", "must be >= 0, got -1"),
    ("sampler-stats", "--seed", "-1", "must be >= 0, got -1"),
    ("compare", "--seed", "-1", "must be >= 0, got -1"),
    ("curve", "--points", "1", "must be >= 2, got 1"),
    ("occlusion", "--trials", "0", "must be >= 1, got 0"),
    ("sampler-stats", "--draws", "0", "must be >= 1, got 0"),
    ("compare", "--seeds", "0", "must be >= 1, got 0"),
    ("train", "--seed", "abc", "invalid int value: 'abc'"),
], ids=["train-seed", "occlusion-seed", "sampler-stats-seed", "compare-seed", "curve-points",
        "occlusion-trials", "sampler-stats-draws", "compare-seeds", "train-seed-not-int"])
def test_integer_flags_bounded_by_parser(command, flag, value, message, tmp_path, capsys,
                                         monkeypatch):
    def refuse(_path):
        raise AssertionError("the config was read before the flags were checked")
    monkeypatch.setattr(cli, "parse_config", refuse)
    configs = (["--config-a", "a.ini", "--config-b", "b.ini"] if command == "compare"
               else ["--config", "exp.ini"])
    checkpoint = ["--checkpoint", "model.bin"] if command == "occlusion" else []
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([command, *configs, *checkpoint, flag, value, "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: softaug ")
    assert f"argument {flag}: {message}" in err
    assert not out.exists()


def test_compare_same_stem_gets_suffixes(tmp_path):
    (tmp_path / "x").mkdir()
    (tmp_path / "y").mkdir()
    arm_a = write_config(tmp_path / "x" / "exp.ini", tmp_path / "out_a")
    arm_b = write_config(tmp_path / "y" / "exp.ini", tmp_path / "out_b")
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm_a, "--config-b", arm_b,
                 "--seeds", "1", "--out", str(out)]) == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[1].startswith("exp_a,")
    assert lines[2].startswith("exp_b,")


# --- the run directory, the same rule for every command ---


SUBPARSERS = next(action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices
README_COMMANDS = (Path(__file__).resolve().parent.parent / "README.md").read_text().split(
    "## CLI commands", 1)[1].split("\n## ", 1)[0]
# command -> the files its README row says it writes
WRITES = {command: re.findall(r"`([\w.]+)`", writes)
          for command, writes in re.findall(r"^\| `([\w-]+)` \| ([^|]*) \|", README_COMMANDS,
                                            re.MULTILINE)}
# the cheapest value of each count flag a command may take
CHEAP = {"--points": "3", "--trials": "1", "--draws": "100", "--seeds": "1"}


def run_dir_inputs(tmp_path, command, **overrides):
    """``command``'s argv without ``--out``, and {option: INI path} for each
    of its ``--config*`` options. Each INI differs in its bytes and writes
    to its own [output] dir; any other required option must be known here."""
    configs, argv = {}, [command]
    for action in SUBPARSERS[command]._actions:
        option = next(iter(action.option_strings), action.dest)
        if option.startswith("--config"):
            name = option[2:].replace("-", "_")
            configs[option] = write_config(tmp_path / f"{name}.ini", tmp_path / f"{name}_dir",
                                           **overrides)
            with open(configs[option], "a") as fh:
                fh.write(f"; {option}\n")
            argv += [option, configs[option]]
        elif option == "--checkpoint":
            (tmp_path / "model.bin").write_bytes(checkpoint_blob())
            argv += [option, str(tmp_path / "model.bin")]
        elif option in CHEAP:
            argv += [option, CHEAP[option]]
        else:
            assert not action.required, f"{command} {option}: give it a value here"
    return argv, configs


def snapshot_option(name):
    """The config option a snapshot is named after: config_a.ini <- --config-a."""
    return "--" + name.removesuffix(".ini").replace("_", "-")


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_run_dir_contract(command, tmp_path, monkeypatch, capfd):
    options = [option for action in SUBPARSERS[command]._actions
               for option in action.option_strings]
    assert options.count("--out") == 1
    assert options.count("--config") + options.count("--config-a") == 1, options
    out = tmp_path / "out"

    # a failed check makes no directory, neither --out nor [output] dir
    argv, configs = run_dir_inputs(tmp_path, command, softening={"mode": "soft"})
    assert main([*argv, "--out", str(out)]) == 2
    assert sorted(child.suffix for child in tmp_path.iterdir()) == sorted(
        [".ini"] * len(configs) + [".bin"] * ("--checkpoint" in options))

    # --out wins over [output] dir; the files are the README's, the snapshots the INI bytes
    argv, configs = run_dir_inputs(tmp_path, command)
    assert main([*argv, "--out", str(out)]) == 0
    assert sorted(child.name for child in out.iterdir()) == sorted(WRITES[command])
    for name in WRITES[command]:
        if name.endswith(".ini"):
            assert (out / name).read_bytes() == Path(configs[snapshot_option(name)]).read_bytes()
    assert not any(child.name.endswith("_dir") for child in tmp_path.iterdir())

    # without --out it writes to the first config's [output] dir, and a rerun
    # that fails after its checks leaves none of an earlier run's artifacts
    run = Path(parse_config(next(iter(configs.values()))).out_dir)
    run.mkdir()
    for name in [*WRITES[command], "notes.txt"]:
        (run / name).write_bytes(b"stale")

    def full_disk(*_args, **_kwargs):
        raise OSError("No space left on device")
    for writer in ("_write_csv", "write_sweep_csv", "save_checkpoint"):
        monkeypatch.setattr(cli, writer, full_disk)
    assert main(argv) == 2
    assert "No space left on device" in capfd.readouterr().err
    left = {child.name: child.read_bytes() for child in run.iterdir()}
    assert left.pop("notes.txt") == b"stale"
    assert left == {name: Path(configs[snapshot_option(name)]).read_bytes()
                    for name in WRITES[command] if name.endswith(".ini")}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's matmul overflow warning
@pytest.mark.parametrize("command, option, value", [
    # sizes past the 128 TiB user address space, which no host can allocate
    ("curve", "--points", str(10**14)),
    ("sampler-stats", "--draws", str(10**13)),
    ("occlusion", "--checkpoint", None),  # an overflowing checkpoint, made below
], ids=["curve", "sampler-stats", "occlusion"])
def test_rerun_that_fails_in_its_work_leaves_no_earlier_csv(command, option, value, tmp_path,
                                                           capsys):
    if value is None:
        value = str(tmp_path / "overflow.bin")
        save_overflowing_checkpoint(value)
    argv, _ = run_dir_inputs(tmp_path, command)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    (csv,) = WRITES[command]
    assert (out / csv).exists()
    # the later value of a repeated option wins
    assert main([*argv, option, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.is_dir() and not (out / csv).exists()


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_empty_out_rejected_before_the_config_is_read(command, tmp_path, capsys):
    # "" is not an unset --out: it would have written to the [output] dir
    argv, _ = run_dir_inputs(tmp_path, command)
    inputs = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--out", ""])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: softaug ") and "argument --out: must not be empty" in err
    assert sorted(tmp_path.iterdir()) == inputs
