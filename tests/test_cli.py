"""Command-line interface: subcommands, exit codes, run artifacts."""
import contextlib
import dataclasses
import io
import json
import os
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leocsi.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, main
from leocsi.config import ScenarioConfig, desk_scenario
from leocsi.dataset import Dataset, DatasetMeta, build_dataset, load_dataset, save_dataset
from leocsi.evaluation import BASELINES, eval_nmse
from leocsi.models import Model, ModelConfig, desk_model_config
from leocsi.training import TrainConfig


def run(*argv):
    return main(list(argv))


def _one_error_line(capsys, prefix):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


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


def test_manifest_records_versions(cli_dataset):
    import leocsi
    import platform
    manifest = json.loads(open(os.path.join(cli_dataset, "manifest.json")).read())
    assert manifest["versions"] == {"leocsi": leocsi.__version__,
                                    "python": platform.python_version(),
                                    "numpy": np.__version__}


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
    _, clean = build_dataset(meta.scenario, len(noisy), "test", noisy.t_p, noisy.t_f,
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
    split = Dataset(
        csi=data[None].astype(np.complex128), t_p=8,
        speeds_mps=np.zeros((1, scen.num_devices)), snr_db=np.array([float("inf")]),
        future_noised=np.array([False]),
    )
    meta = DatasetMeta(scenario=scen, split="test", seed=0, snr_policy="none")
    ds = str(tmp_path / "static")
    save_dataset(ds, meta, split)
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
    generate = ["generate", "--train-count", "1", "--test-count", "1"]
    cases = [
        ["--config", str(bad), *generate],
        ["--desk", "--set", "scenario.bogus=1", *generate],  # unknown key on the desk preset
        ["--desk", "--set", "model.patch=3", *generate],  # invalid value on the desk preset
        ["--set", "model.activation=gelu", *generate],  # not a model option
        ["--desk", "--set", "scenario.rician_db=1e400", *generate],  # overflows to inf
        ["--desk", "--set", "train.lr=NaN", *generate],
        ["--desk", "generate", "--train-count", "0", "--test-count", "1"],
        ["--desk", "--set", "model.heads=3", "train-cp", "--dataset", "unused"],
        # Field types: ints take no float, string or bool; tuples need their length.
        ["--desk", "--set", "model.t_p=abc", *generate],
        ["--set", "model.t_p=abc", "pretrain", "--dataset", "unused"],
        ["--set", "train.batch=2.5", "pretrain", "--dataset", "unused"],
        ["--set", "train.max_steps=2.5", "pretrain", "--dataset", "unused"],
        ["--set", "train.clip_norm=1.0", "pretrain", "--dataset", "unused"],  # removed key
        ["--set", "model.d_llm=1e3", "pretrain", "--dataset", "unused"],
        ["--desk", "--set", "model.patch=true", *generate],
        ["--desk", "--set", "scenario.los_phi_range=[1, 2, 3]", *generate],
        # Finite values that used to crash channel synthesis.
        ["--desk", "--set", "scenario.rician_db=1e300", *generate],
        ["--desk", "--set", "scenario.carrier_hz=1e-300", *generate],
        ["--desk", "--set", "scenario.device_speed_range_mps=[2, 1]", *generate],
        ["--desk", "--set", "model.t_f=0", *generate],
    ]
    for i, flags in enumerate(cases):
        out = str(tmp_path / f"r{i}")
        code = run("--out", out, *flags)
        assert code == EXIT_CONFIG, flags
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), flags
        assert not os.path.exists(out), flags


def test_generate_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # An oversized scenario, e.g. scenario.num_devices=1000000000000, fails
    # to allocate its split; the configuration is generate's only input.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr("leocsi.cli.build_dataset", no_memory)
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, "generate", "--train-count", "1",
               "--test-count", "1") == EXIT_CONFIG
    assert "Unable to allocate" in _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["generate", "train-cp"])
def test_out_beneath_a_file_is_config_error(cli_dataset, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = (["generate", "--train-count", "1", "--test-count", "1"] if command == "generate"
            else [command, "--dataset", os.path.join(cli_dataset, "train")])
    assert run("--desk", "--set", "train.max_steps=1", "--out", str(blocker / "runs"),
               *args) == EXIT_CONFIG
    assert "--out" in _one_error_line(capsys, "config error: ")
    assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == ""


_CONFIG_KEYS = [
    f"{section}.{field.name}"
    for section, cls in (("scenario", ScenarioConfig), ("model", ModelConfig), ("train", TrainConfig))
    for field in dataclasses.fields(cls)
]
_NUMBER_TEXT = st.one_of(
    st.integers(-2, 16).map(str),
    st.sampled_from(["NaN", "1e400", "-1e400", "0.0", "0.5", "-1.0", "2.5", "1e3", "1e300", "1e-300"]),
)
_VALUE_TEXT = st.one_of(
    _NUMBER_TEXT,
    st.sampled_from(['"abc"', "abc", '"csi"', '"bf"', '"none"', "true", "false", "null"]),
    st.lists(_NUMBER_TEXT, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"),
)


@given(st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), _VALUE_TEXT), min_size=1, max_size=2))
@settings(max_examples=300, deadline=None)
def test_set_fuzz_exits_cleanly(overrides):
    # Any --set value either runs or is one config error line with no run
    # directory: never a traceback or a numpy warning.
    argv = ["--desk"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "runs")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--out", out, "generate", "--train-count", "1", "--test-count", "1"])
        lines = err.getvalue().strip().splitlines()
        if code == EXIT_CONFIG:
            assert len(lines) == 1 and lines[0].startswith("config error: "), lines
            assert not os.path.exists(out)
        else:
            assert code == 0 and not lines, (code, lines)


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


def test_unknown_baseline_is_config_error(cli_dataset, tmp_path, capsys):
    out = str(tmp_path / "r")
    code = run("--desk", "--out", out,
               "eval", "--dataset", os.path.join(cli_dataset, "test"),
               "--baseline", "oracle")
    assert code == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_eval_and_sweep_validate_set_overrides(cli_dataset, tmp_path, capsys, command):
    out = str(tmp_path / "runs")
    kind = ["--kind", "velocity"] if command == "sweep" else []
    code = run("--desk", "--out", out, "--set", "scenario.bogus=1", command, *kind,
               "--dataset", os.path.join(cli_dataset, "test"), "--baseline", "persistence")
    assert code == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, split, flag",
    [("eval", "test", "--model"), ("train-cp", "train", "--backbone")],
)
def test_missing_checkpoint_leaves_no_run_directory(cli_dataset, tmp_path, capsys,
                                                    command, split, flag):
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, command, "--dataset",
               os.path.join(cli_dataset, split), flag, "nowhere") == EXIT_DATA
    _one_error_line(capsys, "data error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["pretrain", "train-cp"])
def test_non_finite_training_is_numeric_failure(cli_dataset, tmp_path, capsys, command):
    out = str(tmp_path / "runs")
    code = run("--desk", "--out", out, "--set", "train.lr=1e300",
               "--set", "train.max_steps=3", "--set", "train.batch=8",
               command, "--dataset", os.path.join(cli_dataset, "train"))
    assert code == EXIT_NUMERIC
    line = _one_error_line(capsys, "numeric failure: ")
    assert line.endswith("at step 1")
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def desk_backbone(cli_dataset, tmp_path_factory):
    """A desk (two-layer) backbone pretrained for one step."""
    pre = str(tmp_path_factory.mktemp("pre"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run("--desk", "--out", pre, "--set", "train.max_steps=1",
                   "pretrain", "--dataset", os.path.join(cli_dataset, "train")) == 0
    return os.path.join(_one_run_dir(pre), "backbone")


@pytest.mark.parametrize("layers", [1, 3])
def test_backbone_of_another_depth_is_data_error(cli_dataset, desk_backbone, tmp_path, capsys,
                                                 layers):
    # With three layers the third kept its random draw, frozen; with one the
    # pretrained second layer was dropped.  Both ran and exited 0.
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, "--set", f"model.backbone_layers={layers}",
               "train-cp", "--dataset", os.path.join(cli_dataset, "train"),
               "--backbone", desk_backbone) == EXIT_DATA
    assert "backbone.l" in _one_error_line(capsys, "data error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("case", ["train.seed", "--seed"])
def test_negative_seed_is_config_error(cli_dataset, tmp_path, capsys, case):
    if case == "train.seed":
        flags = ["--set", "train.seed=-1", "--set", "train.max_steps=1",
                 "train-cp", "--dataset", os.path.join(cli_dataset, "train")]
    else:
        flags = ["--seed", "-1", "generate", "--train-count", "1", "--test-count", "1"]
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, *flags) == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("snrs, code", [("[1e400]", EXIT_CONFIG), ("[-1e400]", EXIT_CONFIG),
                                        ("[Infinity]", 0)])
@pytest.mark.parametrize("via", ["--set", "--config"])
def test_overflowing_number_is_config_error(cli_dataset, tmp_path, capsys, snrs, code, via):
    # JSON reads 1e400 as infinity; only the literal Infinity means no noise.
    if via == "--set":
        flags = ["--set", f"sweep.snrs_db={snrs}"]
    else:
        path = tmp_path / "run.json"
        path.write_text('{"sweep": {"snrs_db": %s}}' % snrs)
        flags = ["--config", str(path)]
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, *flags, "sweep", "--kind", "snr", "--dataset",
               os.path.join(cli_dataset, "test"), "--baseline", "persistence") == code
    if code == EXIT_CONFIG:
        assert "1e400" in _one_error_line(capsys, "config error: ")
        assert not os.path.exists(out)


def test_backbone_of_another_width_is_data_error(cli_dataset, tmp_path, capsys):
    pre = str(tmp_path / "pre")
    train = os.path.join(cli_dataset, "train")
    assert run("--desk", "--out", pre, "--set", "model.d_llm=32", "--set", "train.max_steps=1",
               "pretrain", "--dataset", train) == 0
    capsys.readouterr()
    out = str(tmp_path / "runs")
    backbone = os.path.join(_one_run_dir(pre), "backbone")
    assert run("--desk", "--out", out, "train-cp", "--dataset", train,
               "--backbone", backbone) == EXIT_DATA
    assert "shape mismatch" in _one_error_line(capsys, "data error: ")
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def bf_model_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bf") / "model")
    Model(desk_model_config(head="bf"), seed=0).save(path)
    return path


def test_eval_of_a_beamforming_model_reports_sum_rates(cli_dataset, bf_model_dir, tmp_path):
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, "eval", "--dataset", os.path.join(cli_dataset, "test"),
               "--model", bf_model_dir, "--baseline", "persistence") == 0
    doc = json.loads(open(os.path.join(_one_run_dir(out), "eval.json")).read())
    assert set(doc["nmse_db"]) == {"persistence"}
    assert set(doc["sum_rate"]) == {"model", "mrt_outdated", "zf_outdated", "wmmse_perfect"}
    rates = doc["sum_rate"]
    assert rates["mrt_outdated"] <= rates["wmmse_perfect"] and rates["model"] > 0


def test_sweep_of_a_beamforming_model_is_config_error(cli_dataset, bf_model_dir, tmp_path,
                                                     capsys):
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, "sweep", "--kind", "velocity", "--dataset",
               os.path.join(cli_dataset, "test"), "--model", bf_model_dir) == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, flag, damaged", [
    ("train-cp", "--backbone", "params.json"),
    ("eval", "--model", "model.json"),
    ("eval", "--model", "params.bin"),
])
def test_malformed_checkpoint_is_data_error(cli_dataset, bf_model_dir, tmp_path, capsys,
                                            command, flag, damaged):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(bf_model_dir, ckpt)
    target = ckpt / damaged
    if damaged == "params.bin":
        target.write_bytes(target.read_bytes()[:100])
    else:
        target.write_text("{not json")
    split = "train" if command == "train-cp" else "test"
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, command, "--dataset", os.path.join(cli_dataset, split),
               flag, str(ckpt)) == EXIT_DATA
    _one_error_line(capsys, "data error: ")
    assert not os.path.exists(out)


def test_checkpoint_missing_a_parameter_is_data_error(cli_dataset, bf_model_dir, tmp_path,
                                                     capsys):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(bf_model_dir, ckpt)
    doc = json.loads((ckpt / "params.json").read_text())
    doc["params"] = [e for e in doc["params"] if e["name"] != "decoder.fc1.b"]
    (ckpt / "params.json").write_text(json.dumps(doc))
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, "eval", "--dataset", os.path.join(cli_dataset, "test"),
               "--model", str(ckpt)) == EXIT_DATA
    assert "decoder.fc1.b" in _one_error_line(capsys, "data error: ")
    assert not os.path.exists(out)


@pytest.fixture(scope="module")
def csi_model_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("csi") / "model")
    Model(desk_model_config(), seed=0).save(path)
    return path


# Half the keys drawn are the sweep section's, which only sweep reads.
_EVAL_KEYS = st.one_of(st.sampled_from(_CONFIG_KEYS),
                       st.sampled_from(["sweep.snrs_db", "sweep.bogus"]))
_EVAL_COMMANDS = [["eval"], ["sweep", "--kind", "velocity"], ["sweep", "--kind", "snr"]]
_PREFIXES = {EXIT_CONFIG: "config error: ", EXIT_DATA: "data error: ",
             EXIT_NUMERIC: "numeric failure: "}


@given(command=st.sampled_from(_EVAL_COMMANDS), with_model=st.booleans(),
       baselines=st.lists(st.sampled_from(["persistence", "ar1"]), max_size=2, unique=True),
       overrides=st.lists(st.tuples(_EVAL_KEYS, _VALUE_TEXT), max_size=2))
@settings(max_examples=60, deadline=None)
def test_eval_and_sweep_fuzz_exit_cleanly(cli_dataset, csi_model_dir, command, with_model,
                                          baselines, overrides):
    # Any --set value on eval or sweep either runs or ends in one error line
    # with a documented exit code and no run directory.
    argv = ["--desk"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    argv += command + ["--dataset", os.path.join(cli_dataset, "test")]
    argv += ["--model", csi_model_dir] if with_model else []
    for name in baselines:
        argv += ["--baseline", name]
    _exits_cleanly(argv)


def _exits_cleanly(argv):
    """``main(argv)`` either runs silently or prints one error line with a
    documented exit code and leaves no run directory; numpy warnings fail."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "runs")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--out", out, *argv])
        lines = err.getvalue().strip().splitlines()
        if code == 0:
            assert not lines, lines
        else:
            assert code in _PREFIXES, (code, lines)
            assert len(lines) == 1 and lines[0].startswith(_PREFIXES[code]), lines
            assert not os.path.exists(out)


@pytest.mark.parametrize("setting", ['sweep.snrs_db="abc"', "sweep.snrs_db=null",
                                     "sweep.snrs_db=5", "sweep.snrs_db=[NaN]",
                                     "sweep.snrs_db=[]", "sweep.bogus=1"])
@pytest.mark.parametrize("kind", ["snr", "velocity"])
def test_bad_sweep_section_is_config_error(cli_dataset, tmp_path, capsys, setting, kind):
    # With --kind snr each of these was a traceback (exit 1) or, for the last
    # two, silently ran; --kind velocity never read the section.
    out = str(tmp_path / "runs")
    assert run("--desk", "--out", out, "--set", setting, "sweep", "--kind", kind,
               "--dataset", os.path.join(cli_dataset, "test"),
               "--baseline", "persistence") == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


def test_sweep_snr_points_at_the_bounds_run(cli_dataset, csi_model_dir, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("--desk", "--out", str(tmp_path / "runs"),
                   "--set", "sweep.snrs_db=[-300, 300, Infinity]", "sweep", "--kind", "snr",
                   "--dataset", os.path.join(cli_dataset, "test"), "--model", csi_model_dir,
                   "--baseline", "persistence", "--baseline", "ar1") == 0


def test_sum_rate_eval_needs_no_more_devices_than_antennas(tmp_path, capsys):
    # Zero forcing, one of the sum-rate references, needs K <= N; desk N = 4.
    wide = ["--desk", "--set", "scenario.num_devices=6", "--set", "model.num_devices=6"]
    assert run(*wide, "--out", str(tmp_path / "gen"), "generate",
               "--train-count", "1", "--test-count", "2") == 0
    capsys.readouterr()
    model = str(tmp_path / "bf6")
    Model(desk_model_config(head="bf", num_devices=6), seed=0).save(model)
    out = str(tmp_path / "runs")
    test_split = os.path.join(_one_run_dir(str(tmp_path / "gen")), "test")
    assert run(*wide, "--out", out, "eval", "--dataset", test_split,
               "--model", model) == EXIT_CONFIG
    _one_error_line(capsys, "config error: ")
    assert not os.path.exists(out)


# Every TrainConfig field, and two that no longer exist.
_TRAIN_KEYS = [f"train.{field.name}" for field in dataclasses.fields(TrainConfig)]
_TRAIN_KEYS += ["train.betas", "train.clip_norm"]


_TRAIN_OVERRIDES = st.lists(st.tuples(st.sampled_from(_TRAIN_KEYS), _VALUE_TEXT),
                            min_size=1, max_size=2)


def _train_exits_cleanly(command, cli_dataset, overrides):
    """Any train.* value on a training command either trains or ends in one
    error line with a documented exit code and no run directory.  The last
    --set wins, so no example trains more than two steps."""
    argv = ["--desk"]
    for key, value in overrides:
        argv += ["--set", f"{key}={value}"]
    _exits_cleanly(argv + ["--set", "train.max_steps=2", command,
                           "--dataset", os.path.join(cli_dataset, "train")])


@given(overrides=_TRAIN_OVERRIDES)
@settings(max_examples=30, deadline=None)
def test_train_fuzz_exits_cleanly(cli_dataset, overrides):
    _train_exits_cleanly("train-cp", cli_dataset, overrides)


@given(overrides=_TRAIN_OVERRIDES)
@settings(max_examples=30, deadline=None)
def test_train_bf_fuzz_exits_cleanly(cli_dataset, overrides):
    _train_exits_cleanly("train-bf", cli_dataset, overrides)


@given(overrides=_TRAIN_OVERRIDES)
@settings(max_examples=30, deadline=None)
def test_pretrain_fuzz_exits_cleanly(cli_dataset, overrides):
    _train_exits_cleanly("pretrain", cli_dataset, overrides)
