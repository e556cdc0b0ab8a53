"""Command-line interface: subcommands, exit codes, run artifacts."""
import json
import os
import shutil

import numpy as np
import pytest

from leocsi.channel import CsiTensor
from leocsi.cli import EXIT_CONFIG, EXIT_DATA, main
from leocsi.config import desk_scenario
from leocsi.dataset import DatasetMeta, SampleRecord, build_dataset, load_dataset, save_dataset
from leocsi.evaluation import BASELINES, eval_nmse


def run(*argv):
    return main(list(argv))


def _one_run_dir(root):
    entries = sorted(os.listdir(root))
    assert entries, f"no run directory under {root}"
    return os.path.join(root, entries[-1])


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    out = str(root / "runs")
    code = run(
        "--desk", "--out", out, "--seed", "3",
        "generate", "--train-count", "16", "--test-count", "10",
    )
    assert code == 0
    run_dir = _one_run_dir(out)
    return run_dir


def test_generate_artifacts(cli_dataset):
    for split in ("train", "test"):
        assert os.path.isfile(os.path.join(cli_dataset, split, "meta.json"))
        assert os.path.isfile(os.path.join(cli_dataset, split, "data.bin"))
    manifest = json.loads(open(os.path.join(cli_dataset, "manifest.json")).read())
    assert "resolved_config" in manifest and "input_hashes" in manifest


def test_generate_never_mutates_previous_run(cli_dataset, tmp_path):
    before = {
        p: os.path.getmtime(os.path.join(cli_dataset, p))
        for p in os.listdir(cli_dataset)
    }
    out = str(tmp_path / "runs2")
    assert run("--desk", "--out", out, "generate", "--train-count", "4", "--test-count", "4") == 0
    after = {
        p: os.path.getmtime(os.path.join(cli_dataset, p))
        for p in os.listdir(cli_dataset)
    }
    assert before == after


def test_train_and_eval_cycle(cli_dataset, tmp_path):
    out = str(tmp_path / "runs")
    code = run(
        "--desk", "--out", out, "--seed", "1",
        "--set", "train.max_steps=4", "--set", "train.batch=8",
        "train-cp", "--dataset", os.path.join(cli_dataset, "train"),
    )
    assert code == 0
    train_run = _one_run_dir(out)
    model_dir = os.path.join(train_run, "model")
    assert os.path.isfile(os.path.join(train_run, "loss_trace.csv"))
    assert os.path.isfile(os.path.join(model_dir, "model.json"))

    out2 = str(tmp_path / "eval")
    code = run(
        "--desk", "--out", out2,
        "eval", "--dataset", os.path.join(cli_dataset, "test"),
        "--model", model_dir, "--baseline", "persistence",
    )
    assert code == 0
    doc = json.loads(open(os.path.join(_one_run_dir(out2), "eval.json")).read())
    assert set(doc["nmse_db"]) == {"model", "persistence"}


def test_train_bf_cycle(cli_dataset, tmp_path):
    out = str(tmp_path / "runs")
    code = run(
        "--desk", "--out", out,
        "--set", "train.max_steps=3", "--set", "train.batch=8",
        "train-bf", "--dataset", os.path.join(cli_dataset, "train"),
    )
    assert code == 0


def test_sweep_velocity(cli_dataset, tmp_path):
    out = str(tmp_path / "runs")
    code = run(
        "--desk", "--out", out,
        "sweep", "--kind", "velocity",
        "--dataset", os.path.join(cli_dataset, "test"),
        "--baseline", "persistence",
    )
    assert code == 0
    run_dir = _one_run_dir(out)
    assert os.path.isfile(os.path.join(run_dir, "sweep.csv"))
    assert os.path.isfile(os.path.join(run_dir, "sweep.json"))


def _sweep_snr(dataset, out, snrs):
    return run(
        "--desk", "--out", out, "--set", f"sweep.snrs_db={json.dumps(snrs)}",
        "sweep", "--kind", "snr", "--dataset", dataset, "--baseline", "persistence",
    )


def test_sweep_snr_renoises_clean_histories(cli_dataset, tmp_path):
    # At a nominal 60 dB the re-noised histories are nearly clean, so the
    # sweep must read like eval on a noise-free rebuild of the split, not
    # like eval on its stored 15 dB histories.
    test_dir = os.path.join(cli_dataset, "test")
    out = str(tmp_path / "runs")
    assert _sweep_snr(test_dir, out, [60.0]) == 0
    doc = json.loads(open(os.path.join(_one_run_dir(out), "sweep.json")).read())
    swept = doc["values"]["persistence"][0]

    meta, noisy = load_dataset(test_dir)
    _, clean = build_dataset(meta.scenario, meta.m, "test", meta.t_p, meta.t_f,
                             seed=meta.seed, test_snr_db=float("inf"))
    on_clean = eval_nmse(BASELINES["persistence"], clean)
    on_noisy = eval_nmse(BASELINES["persistence"], noisy)
    assert abs(swept - on_clean) < 1e-3
    assert abs(swept - on_noisy) > 10 * abs(swept - on_clean)


@pytest.mark.parametrize("case", ["train split", "wrong seed"])
def test_sweep_snr_needs_a_rebuildable_test_split(cli_dataset, tmp_path, capsys, case):
    if case == "train split":
        dataset = os.path.join(cli_dataset, "train")
    else:
        dataset = str(tmp_path / "test")
        shutil.copytree(os.path.join(cli_dataset, "test"), dataset)
        meta_path = os.path.join(dataset, "meta.json")
        doc = json.loads(open(meta_path).read())
        doc["seed"] += 1
        with open(meta_path, "w") as fh:
            json.dump(doc, fh)
    out = str(tmp_path / "runs")
    assert _sweep_snr(dataset, out, [10.0]) == EXIT_DATA
    assert "data error" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_sweep_unknown_baseline_is_config_error(cli_dataset, tmp_path, capsys):
    out = str(tmp_path / "runs")
    code = run("--desk", "--out", out, "sweep", "--kind", "velocity",
               "--dataset", os.path.join(cli_dataset, "test"), "--baseline", "nope")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["config error: unknown baseline 'nope'"]
    assert not os.path.exists(out)


def test_eval_static_channel_floor(tmp_path, capsys):
    # A constant channel makes persistence exact: NMSE floor sentinel.
    scen = desk_scenario()
    h = (np.random.default_rng(0).standard_normal((1, scen.num_devices, scen.num_antennas))
         + 1j * np.random.default_rng(1).standard_normal((1, scen.num_devices, scen.num_antennas)))
    data = np.repeat(h, 10, axis=0)
    records = [
        SampleRecord(
            past=CsiTensor(data[:8].astype(np.complex128), scen.slot_interval_s),
            future=CsiTensor(data[8:].astype(np.complex128), scen.slot_interval_s, origin_slot=8),
            device_speed_mps=np.zeros(scen.num_devices),
            noise_snr_db=float("inf"),
            future_noised=False,
        )
    ]
    meta = DatasetMeta(scenario=scen, m=1, t_p=8, t_f=2, split="test", seed=0,
                       snr_policy="none")
    ds = str(tmp_path / "static")
    save_dataset(ds, meta, records)
    out = str(tmp_path / "runs")
    code = run("--desk", "--out", out, "eval", "--dataset", ds, "--baseline", "persistence")
    assert code == 0
    assert "floor(-inf)" in capsys.readouterr().out


def test_grad_check_subcommand(tmp_path, capsys):
    assert run("--out", str(tmp_path / "runs"), "grad-check") == 0
    assert "max relative gradient error" in capsys.readouterr().out


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": {"num_devicez": 2}}))
    cases = [
        ["--config", str(bad)],
        ["--desk", "--set", "scenario.bogus=1"],  # unknown key on the desk preset
        ["--desk", "--set", "model.patch=3"],  # invalid value on the desk preset
        ["--set", "model.activation=gelu"],  # not a model option
    ]
    for i, flags in enumerate(cases):
        out = str(tmp_path / f"r{i}")
        code = run(*flags, "--out", out, "generate", "--train-count", "1", "--test-count", "1")
        assert code == EXIT_CONFIG, flags
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), flags
        assert not os.path.exists(out), flags


def test_train_shape_mismatch_is_data_error(cli_dataset, tmp_path, capsys):
    out = str(tmp_path / "runs")
    code = run("--desk", "--out", out, "--set", "model.t_p=6",
               "train-cp", "--dataset", os.path.join(cli_dataset, "train"))
    assert code == EXIT_DATA
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("data error: ")
    assert not os.path.exists(out)


def test_exit_code_bad_set_syntax(tmp_path):
    code = run("--set", "nonsense", "--out", str(tmp_path / "r"),
               "generate", "--train-count", "1", "--test-count", "1")
    assert code == EXIT_CONFIG
    code = run("--set", "nosection.key=1", "--out", str(tmp_path / "r"),
               "generate", "--train-count", "1", "--test-count", "1")
    assert code == EXIT_CONFIG


def test_exit_code_data_error(tmp_path):
    code = run("--desk", "--out", str(tmp_path / "r"),
               "eval", "--dataset", str(tmp_path / "missing"), "--baseline", "persistence")
    assert code == EXIT_DATA


def test_unknown_baseline_is_config_error(cli_dataset, tmp_path):
    code = run("--desk", "--out", str(tmp_path / "r"),
               "eval", "--dataset", os.path.join(cli_dataset, "test"),
               "--baseline", "oracle")
    assert code == EXIT_CONFIG


def test_set_overrides_reach_scenario(tmp_path):
    out = str(tmp_path / "runs")
    code = run(
        "--desk", "--out", out, "--set", "scenario.num_devices=4",
        "generate", "--train-count", "2", "--test-count", "2",
    )
    assert code == 0
    meta = json.loads(
        open(os.path.join(_one_run_dir(out), "train", "meta.json")).read()
    )
    assert meta["scenario"]["num_devices"] == 4
