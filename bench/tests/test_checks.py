"""Each correctness check of the benchmark rejects a deliberately corrupted output.

One real round of every workload is run once; each test corrupts a copy of
its outputs and asserts that the named check fails, while the untouched
outputs pass every check.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""
import copy
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from leocsi import autodiff as ad  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import Checks  # noqa: E402
from workloads import WORKLOADS, OnlinePredict, Round  # noqa: E402


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(11, str(tmp_path_factory.mktemp(name)), Checks())
        out[name] = (workload, workload.run_round(0, Round()))
    return out


def failures(workload, out, corrupt=None):
    bad = copy.deepcopy(out)
    if corrupt is not None:
        corrupt(bad)
    workload.checks = Checks()
    workload.check(bad)
    return workload.checks.failures


def _nudge(a, by=1e-6):
    a[(0,) * a.ndim] += by


def _swap_slots(a):
    a[[0, 1]] = a[[1, 0]]


def _more_noise(bad):
    rng = np.random.default_rng(0)
    for rec in bad["test"]:
        p = rec.past.data
        sigma = np.sqrt(np.mean(np.abs(p) ** 2) / 10 ** 1.5 / 2)
        p += sigma * (rng.standard_normal(p.shape) + 1j * rng.standard_normal(p.shape))


def _first_backbone_weight(model):
    name = next(n for n in sorted(model.params.names()) if n.startswith("backbone."))
    return model.params[name].data


CORRUPTIONS = {
    "desk-study": [
        ("losses not finite", lambda b: b["LoRA-CP"].__setitem__(5, float("nan"))),
        ("pretrain loss did not fall", lambda b: b["pretrain"].reverse()),
        ("LoRA-BF loss did not fall", lambda b: b["LoRA-BF"].reverse()),
        ("LoRA-BF changed the frozen backbone",
         lambda b: _nudge(_first_backbone_weight(b["models"]["LoRA-BF"]), 1e-12)),
        ("warm-started LoRA model differs", lambda b: _nudge(b["warm_start"][0], 1e-12)),
        ("test NMSE disagrees", lambda b: _nudge(b["cp_pred"])),
        ("sum_rate disagrees", lambda b: _swap_slots(b["w"][0])),
        ("misses the power budget", lambda b: b["w"].__imul__(1.01)),
        ("graph NMSE", lambda b: _swap_slots(b["graph_nmse"][1][0])),
        ("graph BF loss", lambda b: b["graph_bf"][1].__imul__(1.01)),
    ],
    "full-scale-data": [
        ("written test split", lambda b: _nudge(b["test"][0].past.data)),
        ("written train split", lambda b: _nudge(b["train"][1].future.data)),
        ("!= rebuilt clean channel",
         lambda b: [_swap_slots(r.future.data) for r in b["test"]]),
        ("history SNR", _more_noise),
        ("mean |h|^2", lambda b: [r.future.data.__imul__(1.2) for r in b["test"]]),
        ("eval.json persistence", lambda b: b["eval"]["nmse_db"].__setitem__(
            "persistence", b["eval"]["nmse_db"]["persistence"] + 1e-6)),
        ("finite NMSE per baseline",
         lambda b: b["eval"]["nmse_db"].__setitem__("ar2", float("nan"))),
        ("power budget", lambda b: b["slots"][0]["mrt"].__imul__(1.01)),
        ("ZF interference leak",
         lambda b: b["slots"][0].__setitem__("zf", b["slots"][0]["mrt"])),
        ("WMMSE rate fell", lambda b: b["slots"][0]["trace"].reverse()),
        ("sum_rate off", lambda b: b["slots"][0]["rates"].__setitem__(
            0, b["slots"][0]["rates"][0] * (1 + 1e-6))),
        ("WMMSE below MRT", lambda b: b["slots"][0].__setitem__(
            "wmmse", np.roll(b["slots"][0]["wmmse"], 1, axis=0))),
    ],
    "online-predict": [
        ("non-finite cp output", lambda b: _nudge(b["cp"][0], float("nan"))),
        ("single cp predict != its predict_batch row", lambda b: _nudge(b["cp"][3])),
        ("misses the power budget", lambda b: b["batch"]["bf"].__imul__(1.01)),
        ("autoregressive rollout",
         lambda b: b["rollouts"].__setitem__(0, b["rollouts"][0][:1])),
        ("backbone calls per rollout", lambda b: b["backbone_calls"].__setitem__(0, 3)),
        ("one-slot rollout != parallel", lambda b: _nudge(b["one_slot"][0])),
    ],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untouched_outputs_pass(rounds, name):
    workload, out = rounds[name]
    assert failures(workload, out) == []


@pytest.mark.parametrize(
    "name,expected,corrupt",
    [(name, expected, corrupt) for name, cases in CORRUPTIONS.items()
     for expected, corrupt in cases],
    ids=[f"{name}: {expected}" for name, cases in CORRUPTIONS.items() for expected, _ in cases],
)
def test_check_rejects_corrupted_output(rounds, name, expected, corrupt):
    workload, out = rounds[name]
    found = failures(workload, out, corrupt)
    assert any(expected in f for f in found), found


def test_checkpoint_round_trip_check_rejects_a_changed_model(tmp_path):
    workload = OnlinePredict(3, str(tmp_path), Checks())
    workload.final_checks()
    assert workload.checks.failures == []
    _nudge(_first_backbone_weight(workload.models["bf"]))
    workload.final_checks()
    assert any("bf checkpoint round trip" in f for f in workload.checks.failures)


def test_finite_difference_check_catches_a_wrong_gradient():
    store = ad.ParamStore()
    store.add("w", np.random.default_rng(0).standard_normal(5))

    def loss(leaves, slope=2.0):
        w = leaves["w"]
        return ad.Tensor(np.sum(w.data ** 2), parents=(w,),
                         backward=lambda g: w._accumulate(g * slope * w.data))

    assert checks.finite_difference_error(loss, store, entries=5) < 1e-8
    wrong = checks.finite_difference_error(lambda lv: loss(lv, slope=2.02), store, entries=5)
    assert wrong > 1e-3


def test_a_round_that_raises_counts_as_failed_and_makes_the_run_incorrect(
        monkeypatch, capsys):
    class FirstRoundRaises(OnlinePredict):
        def run_round(self, index, rnd):
            if index == 0:
                raise RuntimeError("broken round")
            return super().run_round(index, rnd)

    monkeypatch.setitem(WORKLOADS, "online-predict", FirstRoundRaises)
    handler = signal.getsignal(signal.SIGTERM)
    try:
        rc = run.main(["--workload", "online-predict", "--seed", "5", "--seconds", "0.5"])
    finally:
        signal.signal(signal.SIGTERM, handler)
    assert rc == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    ops = 3 * OnlinePredict.N_TEST + 2  # one round: single-sample calls and two batches
    assert result["failed"] == ops and result["attempted"] >= 2 * ops
    assert result["correct"] is False


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "online-predict",
         "--seed", "5", "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
