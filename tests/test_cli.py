import ctypes
import dataclasses
import hashlib
import multiprocessing
import os
import sys
import types
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np
import pytest

from softaug import GaussianCropConfig, SigmaDecay, StandardCropConfig, cli
from softaug.cli import ConfigError, main, parse_config

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
    assert cfg.train.sigma_decay == SigmaDecay(0, 1000.0)
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


# sha256 of (checkpoint.bin, epoch_log.csv) after two epochs. The digests
# are pinned to one numpy/OpenBLAS build (numpy 2.4.6, OpenBLAS 0.3.31):
# another BLAS may round the matmuls differently. A change that alters
# the training stream on purpose must update them and say so.
GOLDEN = {
    "uniform_none": (
        {"sampler": {"kind": "uniform", "sigma": None, "range": 8},
         "softening": {"mode": "none"}},
        "b357ce99ea618379ce2e257b0266c528cf1d85e0575b6161ea222a633e6ded26",
        "ea5bf7f8fd75ea00c08e234e84a729d63555dc1578ae0d0b17be9c6a9514af45",
    ),
    "gaussian_sigma_decay": (
        {"train": {"sigma_decay_final_epochs": 1}},
        "50cac6f5922f43364255ca64d2dc3c55ed56d10aa84ce7ff15cca62a80a33f01",
        "0d86022b3971937b6eb4759fa4103bc3de7abe555257c006d811b188ed24cb6b",
    ),
    "gaussian_alpha": (
        {"softening": {"alpha": 0.1}},
        "a61c2f2f71f09f922b42daadde11ac2095cbb7850c38f40d932511da44fcd91f",
        "773ea110045e6a37e2158d2d1f3f6fd8d8f6866acf1f301b98a1decf34162af6",
    ),
}


@pytest.mark.parametrize("arm", sorted(GOLDEN))
def test_train_golden_fingerprint(arm, cfg_path, tmp_path):
    overrides, checkpoint_sha, log_sha = GOLDEN[arm]
    assert main(["train", "--config", cfg_path(**overrides)]) == 0
    run = tmp_path / "run"
    assert hashlib.sha256((run / "checkpoint.bin").read_bytes()).hexdigest() == checkpoint_sha
    assert hashlib.sha256((run / "epoch_log.csv").read_bytes()).hexdigest() == log_sha


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the CSVs the commands other than train write. The occlusion
# and compare digests go through training, so they carry GOLDEN's
# numpy/OpenBLAS caveat; curve and sampler-stats involve no matmul.
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
        "843f079bfad3d203046a93d80a845b5901ddbac8b3aebcdb57e1ebd7a594456d",
    ),
    # on a checkpoint trained from the same config
    "occlusion": (
        {}, ["occlusion", "--checkpoint", "{run}/checkpoint.bin", "--trials", "2",
             "--seed", "3"], "occlusion.csv",
        "c5e522b9a8b7e449e41ddd027a94de8adda236a3636735b263a571c1a9c1e19e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WRITERS))
def test_writer_golden_fingerprint(name, cfg_path, tmp_path):
    overrides, argv, filename, digest = GOLDEN_WRITERS[name]
    path = cfg_path(**overrides)
    run = tmp_path / "run"
    if name == "occlusion":
        assert main(["train", "--config", path]) == 0
    out = tmp_path / "out"
    argv = [arg.format(run=run) for arg in argv]
    assert main([*argv, "--config", path, "--out", str(out)]) == 0
    assert sha256_of(out / filename) == digest


def compare_digest(tmp_path, seeds):
    """sha256 of compare.csv for the hard and soft BASE arms over ``seeds`` seeds."""
    arm_a = write_config(tmp_path / "hard.ini", tmp_path / "out_a",
                         softening={"mode": "none"})
    arm_b = write_config(tmp_path / "soft.ini", tmp_path / "out_b")
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm_a, "--config-b", arm_b,
                 "--seeds", str(seeds), "--out", str(out)]) == 0
    return sha256_of(out / "compare.csv")


COMPARE_GOLDEN = "e3294a2d94f381a2be77b926ed5254a1e7e42fa617c86bad816b5a37e69f1c04"


def test_compare_golden_fingerprint(tmp_path):
    assert compare_digest(tmp_path, 1) == COMPARE_GOLDEN


def test_compare_golden_fingerprint_three_seeds(tmp_path):
    # six trainings: the rows must come out in arm-then-seed order
    assert compare_digest(tmp_path, 3) == (
        "2ddf54a13b1ef86171a7c69a325339658c42dcfb1adc4704106075043708bbd4")


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


def test_train_exit_2_on_missing_config(capsys):
    assert main(["train", "--config", "/nonexistent/exp.ini"]) == 2


def test_train_exit_3_on_numeric_blowup(cfg_path, tmp_path, capsys):
    path = cfg_path(train={"lr0": 1e308, "epochs": 3})
    assert main(["train", "--config", path]) == 3
    # the snapshot lands before training, so the crashed run is attributable
    assert (tmp_path / "run" / "config.ini").exists()
    # the diagnostic is the only line: no numpy overflow warnings ahead of it
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1


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
    assert main(["curve", "--config", cfg_path(), "--k-list", " , ",
                 "--out", str(tmp_path / "c3")]) == 2
    assert not (tmp_path / "c3").exists()


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


def test_occlusion_rejects_architecture_mismatch(cfg_path, tmp_path):
    path = cfg_path()
    assert main(["train", "--config", path]) == 0
    other = write_config(tmp_path / "eight.ini", tmp_path / "other",
                         dataset={"num_classes": 8})
    assert main(["occlusion", "--config", other,
                 "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--out", str(tmp_path / "occ2")]) == 2


def test_occlusion_rejects_bad_lambdas(cfg_path, tmp_path):
    path = cfg_path()
    assert main(["train", "--config", path]) == 0
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    out = str(tmp_path / "occ3")
    assert main(["occlusion", "--config", path, "--checkpoint", ckpt,
                 "--lambdas", "0,1.5", "--out", out]) == 2
    assert not Path(out).exists()


# --- sampler-stats command ---


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


def test_sampler_stats_rejects_range_beyond_image(cfg_path, tmp_path, capsys):
    path = cfg_path(sampler={"kind": "uniform", "sigma": None, "range": 40})
    assert main(["sampler-stats", "--config", path, "--draws", "10",
                 "--out", str(tmp_path / "s4")]) == 2
    assert "[sampler] range" in capsys.readouterr().err


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
    compare_digest(tmp_path, 1)
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


def openblas():
    """numpy's bundled OpenBLAS, or None where this numpy has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    found = sorted(libs.glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(found[0])) if found else None


def blas_threads():
    """OpenBLAS threads in force in the calling process, or None."""
    getter = getattr(openblas(), "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter()


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
    assert threads[None] == 1
    # a thread count the user set wins; OpenBLAS caps it at the CPUs
    assert threads["2"] == min(2, os.cpu_count())


def test_compare_parent_renders_no_data(tmp_path, monkeypatch):
    def refuse(*_args):
        raise AssertionError("the compare parent rendered a dataset")
    # patched in this process only: spawned workers import the real ones
    monkeypatch.setattr(cli, "build_datasets", refuse)
    monkeypatch.setattr(cli, "synth_shapes", refuse)
    assert compare_digest(tmp_path, 1) == COMPARE_GOLDEN


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


def test_compare_exit_2_on_script_from_stdin(tmp_path, capsys, monkeypatch):
    # python - < script.py runs a __main__ whose __file__ is '<stdin>'
    script = types.ModuleType("__main__")
    script.__file__ = "<stdin>"
    monkeypatch.setitem(sys.modules, "__main__", script)
    arm = write_config(tmp_path / "arm.ini", tmp_path / "out")
    out = tmp_path / "cmp"
    assert main(["compare", "--config-a", arm, "--config-b", arm, "--seeds", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: compare cannot run from a script read on standard input")
    assert "'<stdin>' is not a file" in err and err.count("\n") == 1
    assert not out.exists()
    no_process_left()


def test_compare_without_private_tracker_stop(tmp_path, monkeypatch):
    monkeypatch.delattr(resource_tracker.ResourceTracker, "_stop")
    compare_digest(tmp_path, 1)
    # the tracker that compare could not stop is stopped here
    monkeypatch.undo()
    resource_tracker._resource_tracker._stop()
    no_process_left()


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
