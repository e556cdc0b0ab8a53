"""Tests of the benchmark's span tracer.

Run from the repository root:  python3 -m pytest bench/tests -q
"""
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from leocsi import autodiff as ad  # noqa: E402
from leocsi import beamform, channel, config, dataset  # noqa: E402

from tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_of_nested_calls_with_known_cost():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.spend(2.0)

    def inner():
        clock.spend(1.0)
        leaf()
        clock.spend(0.5)

    def outer():
        clock.spend(3.0)
        inner()
        inner()
        clock.spend(4.0)

    leaf, inner, outer = tr.wrap("leaf", leaf), tr.wrap("inner", inner), tr.wrap("outer", outer)
    tr.enabled = True
    outer()
    outer()
    agg = tr.aggregate()
    assert agg["outer"] == {"calls": 2, "self_s": 2 * 7.0}
    assert agg["inner"] == {"calls": 4, "self_s": 4 * 1.5}
    assert agg["leaf"] == {"calls": 4, "self_s": 4 * 2.0}
    # Self times partition the traced interval.
    assert sum(v["self_s"] for v in agg.values()) == clock.now


def test_disabled_tracer_records_nothing_and_spans_close_on_error():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("boom")

    wrapped = tr.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.aggregate()["boom"]["calls"] == 0
    tr.enabled = True
    try:
        wrapped()
    except ValueError:
        pass
    assert tr.aggregate()["boom"] == {"calls": 1, "self_s": 1.0}
    assert tr._stack == []


def test_install_wraps_every_binding_and_uninstall_restores_them():
    original = channel.generate_episode
    assert dataset.generate_episode is original
    tr = Tracer()
    tr.install()
    try:
        assert channel.generate_episode is not original
        assert dataset.generate_episode is channel.generate_episode
        tr.enabled = True
        dataset.build_dataset(config.desk_scenario(), 3, "test", 4, 2, seed=0)
        tr.enabled = False
    finally:
        tr.uninstall()
    assert channel.generate_episode is original and dataset.generate_episode is original
    agg = tr.aggregate()
    assert agg["dataset.build_dataset"]["calls"] == 1
    assert agg["channel.generate_episode"]["calls"] == 3
    assert agg["channel.sample_device_params"]["calls"] == 3 * 2
    assert agg["dataset.add_estimation_noise"]["calls"] == 3
    for name in ("dataset.build_dataset", "channel.generate_episode"):
        assert agg[name]["self_s"] > 0


def test_autodiff_ops_get_forward_and_backward_spans():
    tr = Tracer()
    tr.install()
    try:
        tr.enabled = True
        w = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        loss = ad.tsum((x @ w) * (x @ w))  # matmul via operator sugar
        loss.backward()
        tr.enabled = False
    finally:
        tr.uninstall()
    agg = tr.aggregate()
    assert agg["autodiff.matmul"]["calls"] == 2
    assert agg["autodiff.matmul.bwd"]["calls"] == 2
    assert agg["autodiff.mul.bwd"]["calls"] == 1
    assert agg["autodiff.tsum.bwd"]["calls"] == 1
    assert agg["autodiff.backward"]["calls"] == 1
    assert tr.counters["autodiff.nodes"] == 4
    assert np.allclose(w.grad, 2 * x.data.T @ (x.data @ w.data))
    assert ad.matmul.__name__ == "matmul"


def test_wmmse_iterations_are_counted():
    rng = np.random.default_rng(0)
    h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    tr = Tracer()
    tr.install()
    try:
        tr.enabled = True
        _, trace = beamform.wmmse(h, 1.0, 0.1)
        tr.enabled = False
    finally:
        tr.uninstall()
    assert tr.counters["beamform.wmmse.iterations"] == len(trace) - 1
    # sum_rate calls made inside wmmse are children of the wmmse span.
    agg = tr.aggregate()
    assert agg["beamform.sum_rate"]["calls"] >= len(trace)
