"""Acceptance suites: one test (and one PASS/FAIL line) per criterion.

Every criterion prints an explicit ``PASS:``/``FAIL:`` line with the
measured quantity so the run log shows the margins, then asserts.
"""
import time

import numpy as np
import pytest

from leocsi import autodiff as ad
from leocsi import nn
from leocsi.autodiff import ParamStore, Tensor
from leocsi.beamform import mrt, sum_rate, wmmse, zero_forcing
from leocsi.channel import (
    array_response,
    generate_episode,
    los_component,
    nlos_component,
    sample_device_params,
)
from leocsi.config import (
    SPEED_OF_LIGHT,
    KMH_TO_MPS,
    ArrayGeometry,
    ScenarioConfig,
    desk_scenario,
)
from leocsi.dataset import build_dataset, load_dataset, save_dataset
from leocsi.evaluation import eval_nmse, mrt_outdated, nmse_linear, nmse_metric, persistence_baseline
from leocsi.models import Model, desk_model_config, preprocess
from leocsi.training import (
    TrainConfig,
    bf_loss,
    bf_loss_graph,
    build_finetune_model,
    backbone_checksum,
    finetune_cp,
    nmse_loss,
    nmse_loss_graph,
    pretrain_backbone,
)

from conftest import TIMINGS


def report(ok: bool, name: str, detail: str):
    line = f"{'PASS' if ok else 'FAIL'}: {name} -- {detail}"
    print(line, flush=True)
    assert ok, line


# ======================================================================
# Gradient suite
# ======================================================================

class TestGradientSuite:
    TOL = 1e-4

    def test_every_block_and_both_losses(self):
        t0 = time.perf_counter()
        worst = 0.0
        rng = np.random.default_rng(0)

        # Individual neural blocks, tiny shapes, float64.
        store = ParamStore()
        r = np.random.default_rng(1)
        nn.init_params(store, r, nn.linear_specs("fc", 4, 6) + nn.encoder_layer_specs("enc", 8)
                       + nn.lora_specs("ada", 8, 2))
        for name in ("q", "k", "v"):
            nn.init_params(store, r, nn.lora_specs(f"ad2.{name}", 8, 2))
        # Gradients through the LoRA A matrix are zero while B is zero, so
        # give the adapters nonzero B entries to exercise both factors.
        store["ada.b"].data[...] = r.standard_normal((8, 2)) * 0.1
        for name in ("q", "k", "v"):
            store[f"ad2.{name}.b"].data[...] = r.standard_normal((8, 2)) * 0.1
        nn.init_params(store, r, nn.linear_specs("patch", 5, 8))
        x_lin = rng.standard_normal((3, 6))
        x_seq = rng.standard_normal((1, 4, 8))
        x_img = rng.standard_normal((1, 2, 2, 4, 4))

        blocks = {
            "linear": lambda lv: ad.tsum(nn.linear(lv, "fc", ad.constant(x_lin)) ** 2),
            "lora_linear": lambda lv: ad.tsum(
                nn.lora_linear(lv, "enc.attn.q", "ada", ad.constant(x_seq), 2, 16.0) ** 2
            ),
            "patchify": lambda lv: ad.tsum(
                nn.patchify(ad.constant(x_img), 2, lv, "patch") ** 2
            ),
            "attention": lambda lv: ad.tsum(
                nn.attention(lv, "enc.attn", ad.constant(x_seq), heads=2) ** 2
            ),
            "encoder_layer": lambda lv: ad.tsum(
                nn.encoder_layer(lv, "enc", ad.constant(x_seq), 2) ** 2
            ),
            "decoder_layer_lora": lambda lv: ad.tsum(
                nn.decoder_layer(
                    lv, "enc", ad.constant(x_seq), 2,
                    lora_prefix="ad2", lora_rank=2, lora_alpha=4.0,
                ) ** 2
            ),
        }
        for name, f in blocks.items():
            err = ad.grad_check(f, store, max_entries=40, rng_seed=7)
            worst = max(worst, err)
            assert err < self.TOL, f"{name}: {err:.2e}"

        # End-to-end losses through the full model.
        cfg = desk_model_config(
            t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1,
            backbone_layers=1, heads=2, lora_rank=2,
        )
        shape = (1, cfg.t_p, cfg.num_devices, cfg.num_antennas)
        past = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fshape = (1, cfg.t_f, cfg.num_devices, cfg.num_antennas)
        future = rng.standard_normal(fshape) + 1j * rng.standard_normal(fshape)
        x_norm, stats = preprocess(past)

        cp_model = Model(cfg, seed=3)
        err_cp = ad.grad_check(
            lambda lv: nmse_loss_graph(cp_model.forward_graph(lv, x_norm, stats), future),
            cp_model.params, max_entries=3, rng_seed=11,
        )
        bf_model = Model(desk_model_config(
            t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1,
            backbone_layers=1, heads=2, lora_rank=2, head="bf",
        ), seed=3)
        err_bf = ad.grad_check(
            lambda lv: bf_loss_graph(bf_model.forward_graph(lv, x_norm, stats), future, 0.1),
            bf_model.params, max_entries=3, rng_seed=11,
        )
        worst = max(worst, err_cp, err_bf)
        elapsed = time.perf_counter() - t0
        report(
            worst < self.TOL and elapsed < 120.0,
            "gradient suite",
            f"max rel err {worst:.2e} (tol 1e-4), runtime {elapsed:.1f}s (< 120s)",
        )


# ======================================================================
# Channel physics suite
# ======================================================================

class TestChannelPhysicsSuite:
    def test_unit_norm_steering_vectors(self):
        rng = np.random.default_rng(0)
        geom = ArrayGeometry(n_x=4, n_y=4, carrier_hz=5e9)
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(-np.pi, np.pi)
            phi = rng.uniform(0.0, np.pi)
            worst = max(worst, abs(np.linalg.norm(array_response(theta, phi, geom)) - 1.0))
        report(worst < 1e-12, "steering unit norm", f"max |norm-1| = {worst:.2e} (tol 1e-12)")

    @pytest.mark.slow
    def test_rician_power_split(self):
        cfg = ScenarioConfig(n_x=2, n_y=2, num_devices=2)  # kappa = 10 dB
        geom = cfg.geometry
        kappa = cfg.rician_linear
        w_los = np.sqrt(kappa / (kappa + 1.0))
        w_nlos = np.sqrt(1.0 / (kappa + 1.0))
        p_los = p_nlos = 0.0
        for seed in range(100_000):
            p = sample_device_params(cfg, 20.0, seed)
            p_los += np.sum(np.abs(w_los * los_component(0.0, cfg.carrier_hz, p, geom)) ** 2)
            p_nlos += np.sum(np.abs(w_nlos * nlos_component(0.0, cfg.carrier_hz, p, geom)) ** 2)
        ratio = p_los / p_nlos
        rel = abs(ratio - kappa) / kappa
        report(rel < 0.02, "rician power split",
               f"LOS/NLOS power ratio {ratio:.4f} vs kappa {kappa:.1f}, rel err {rel:.2e} (< 2%)")

    def test_zero_motion_time_invariant(self):
        cfg = desk_scenario(sat_speed_mps=0.0, compensate_sat_doppler=False)
        ep = generate_episode(cfg, np.zeros(cfg.num_devices), 16, rng_seed=0)
        exact = all(np.array_equal(ep.data[t], ep.data[0]) for t in range(16))
        report(exact, "zero-motion invariance", "all 16 slots bit-identical")

    def test_doppler_magnitude_bound(self):
        cfg = ScenarioConfig()  # default parameters: 7500 m/s, 5 GHz
        bound = cfg.sat_speed_mps / SPEED_OF_LIGHT * cfg.carrier_hz
        worst = 0.0
        for seed in range(500):
            p = sample_device_params(cfg, 100 * KMH_TO_MPS, seed)
            worst = max(worst, abs(p.sat_doppler_hz))
        report(
            bound == 125e3 and worst <= 125e3,
            "doppler bound",
            f"sat Doppler bound {bound/1e3:.0f} kHz, max drawn {worst/1e3:.2f} kHz (<= 125 kHz)",
        )


# ======================================================================
# Beamforming suite
# ======================================================================

class TestBeamformingSuite:
    def _rand_h(self, k, n, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)

    def test_wmmse_trace_monotone(self):
        worst = 0.0
        for seed in range(100):
            H = self._rand_h(4, 8, 100 + seed)
            _, trace = wmmse(H, 1.0, 0.1, tol=1e-10, max_iter=200)
            if len(trace) > 1:
                worst = min(worst, float(np.min(np.diff(trace))))
        report(worst >= -1e-9, "wmmse monotone trace",
               f"worst rate decrease {worst:.2e} over 100 (N=8,K=4) instances (>= -1e-9)")

    def test_wmmse_single_user_closed_form(self):
        h = self._rand_h(1, 8, seed=4)
        _, trace = wmmse(h, 1.0, 0.1, tol=1e-12, max_iter=300)
        closed = float(np.log2(1.0 + np.linalg.norm(h) ** 2 / 0.1))
        err = abs(trace[-1] - closed)
        report(err < 1e-6, "wmmse K=1 closed form",
               f"rate {trace[-1]:.6f} vs MRT closed form {closed:.6f}, err {err:.2e} (< 1e-6)")

    def test_orthogonal_instance_rate(self):
        # Unit-gain orthogonal channels, P_T = 2, sigma^2 = 1: each device
        # gets power 1 on its own channel -> sum rate 2*log2(2) = 2.0.
        H = np.eye(2, 4, dtype=complex)
        _, trace = wmmse(H, 2.0, 1.0, tol=1e-12)
        err = abs(trace[-1] - 2.0)
        report(err < 1e-4, "orthogonal sum rate", f"rate {trace[-1]:.6f} vs 2.0, err {err:.2e} (< 1e-4)")

    def test_emitted_power_budget(self):
        worst = 0.0
        for seed in range(100):
            H = self._rand_h(4, 8, 200 + seed)
            for W in (mrt(H, 1.0), zero_forcing(H, 1.0), wmmse(H, 1.0, 0.1)[0]):
                worst = max(worst, abs(np.sum(np.abs(W) ** 2) - 1.0))
        report(worst < 1e-6, "beamformer power budget",
               f"max |power - P_T| = {worst:.2e} relative (< 1e-6) over 300 beamformers")


# ======================================================================
# Learning suite (desk scale, seeded)
# ======================================================================

@pytest.mark.slow
class TestLearningSuite:
    def test_cpllm_beats_persistence_at_30kmh(self, cp_learn, thirty_kmh):
        model, trace = cp_learn
        assert len(trace) <= 2000
        model_nmse = eval_nmse(lambda p, _tf: model.predict_batch(p), thirty_kmh)
        pers_nmse = eval_nmse(lambda p, _tf: persistence_baseline(p, _tf), thirty_kmh)
        report(model_nmse < pers_nmse, "cpllm vs persistence @30km/h",
               f"model {model_nmse:.3f} dB < persistence {pers_nmse:.3f} dB "
               f"({len(trace)} steps)")

    def test_cp_training_converges(self, cp_learn):
        _, trace = cp_learn
        report(trace[-1] < 0.5 * trace[0], "cp loss convergence",
               f"loss {trace[0]:.4f} -> {trace[-1]:.4f} in {len(trace)} steps (< 0.5x)")

    def test_bfllm_between_mrt_and_wmmse(self, bf_learn, learn_data, desk_scen):
        model, trace = bf_learn
        assert len(trace) <= 2000
        _, test = learn_data
        r_model, r_mrt, r_wmmse = [], [], []
        for rec in test:
            w = model.predict(rec.past)
            w_mrt = mrt_outdated(rec.past.data, rec.future.data.shape, desk_scen.total_power)
            for t in range(rec.future.num_slots):
                h = rec.future.data[t]
                r_model.append(sum_rate(h, w[t], desk_scen.noise_power))
                r_mrt.append(sum_rate(h, w_mrt[t], desk_scen.noise_power))
                r_wmmse.append(wmmse(h, desk_scen.total_power, desk_scen.noise_power)[1][-1])
        m, lo, hi = map(lambda v: float(np.mean(v)), (r_model, r_mrt, r_wmmse))
        report(m > lo and m <= hi + 1e-6, "bfllm vs mrt/wmmse",
               f"model {m:.4f} > mrt-outdated {lo:.4f} and <= wmmse-perfect {hi:.4f} + 1e-6")

    def test_learning_budget(self, cp_learn, bf_learn):
        total = TIMINGS["learn_data"] + TIMINGS["cp_train"] + TIMINGS["bf_train"]
        report(total < 900.0, "learning wall clock",
               f"data + both trainings = {total:.1f}s (< 900s, single CPU core)")


# ======================================================================
# LoRA suite
# ======================================================================

@pytest.fixture(scope="module")
def lora_study():
    lo = desk_scenario(device_speed_range_mps=(10 * KMH_TO_MPS, 50 * KMH_TO_MPS))
    hi = desk_scenario(device_speed_range_mps=(60 * KMH_TO_MPS, 100 * KMH_TO_MPS))
    base = desk_model_config()
    _, pre_train = build_dataset(lo, 4096, "train", base.t_p, base.t_f, seed=11)
    _, ad_train = build_dataset(hi, 4096, "train", base.t_p, base.t_f, seed=12)
    _, test = build_dataset(hi, 200, "test", base.t_p, base.t_f, seed=13)
    test_hi = test[test.speeds_mps[:, 0] >= 60 * KMH_TO_MPS - 1e-9]

    tc_pre = TrainConfig(batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
                         max_steps=1000, seed=0)
    store, _ = pretrain_backbone(pre_train, base, tc_pre, seed=0)

    tc_ad = TrainConfig(batch=64, epochs=100, lr=3e-4, weight_decay=0.0,
                        max_steps=600, seed=0)
    out = {"store": store}
    for rank in (8, 0):
        cfg = desk_model_config(lora_rank=rank)
        model = build_finetune_model(cfg, store, seed=1)
        # Parameter-efficient protocol: only the output head (and, for
        # rank > 0, the adapters) may move during adaptation.
        model.params.freeze("encoder.")
        checksum_before = backbone_checksum(model.params)
        finetune_cp(ad_train, model, tc_ad)
        out[rank] = {
            "model": model,
            "nmse": eval_nmse(lambda p, _tf: model.predict_batch(p), test_hi),
            "checksum_invariant": backbone_checksum(model.params) == checksum_before,
        }
    return out


@pytest.mark.slow
class TestLoraSuite:
    def test_identity_at_init(self):
        # Zero-initialized B makes the adapted projection exactly the base one,
        # so a fresh rank-8 model and a rank-0 model compute the same function.
        cfg8 = desk_model_config(lora_rank=8)
        cfg0 = desk_model_config(lora_rank=0)
        rng = np.random.default_rng(0)
        shape = (2, cfg8.t_p, cfg8.num_devices, cfg8.num_antennas)
        past = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m8, m0 = Model(cfg8, seed=5), Model(cfg0, seed=5)
        # Same non-LoRA weights for an apples-to-apples forward pass.
        for name in m0.params.names():
            m8.params[name].data[...] = m0.params[name].data
        same = np.array_equal(m8.predict_batch(past), m0.predict_batch(past))
        report(same, "lora identity at init", "rank-8 forward == rank-0 forward (exact)")

    def test_frozen_backbone_checksum_invariant(self, lora_study):
        ok = lora_study[8]["checksum_invariant"] and lora_study[0]["checksum_invariant"]
        report(ok, "frozen backbone checksum", "backbone digest unchanged across fine-tuning")

    def test_adaptation_direction(self, lora_study):
        n8, n0 = lora_study[8]["nmse"], lora_study[0]["nmse"]
        report(n8 < n0, "lora adaptation direction",
               f"rank-8 {n8:.4f} dB < rank-0 {n0:.4f} dB on the 60-100 km/h shift")


# ======================================================================
# Decoding suite
# ======================================================================

@pytest.fixture(scope="module")
def one_slot_model(desk_scen):
    cfg = desk_model_config(t_f=1)
    _, train = build_dataset(desk_scen, 4096, "train", cfg.t_p, 1, seed=21)
    model = Model(cfg, seed=0)
    tc = TrainConfig(batch=64, epochs=100, lr=1e-3, weight_decay=0.0,
                     max_steps=800, seed=0, freeze="none")
    finetune_cp(train, model, tc)
    return model


@pytest.mark.slow
class TestDecodingSuite:
    def test_ar_equals_parallel_at_tf1(self, one_slot_model, small_test):
        same = all(
            np.array_equal(
                one_slot_model.predict_autoregressive(rec.past, 1),
                one_slot_model.predict(rec.past),
            )
            for rec in small_test[:5]
        )
        report(same, "ar == parallel at T_F=1", "identical outputs on 5 samples (exact)")

    def test_ar_backbone_call_count(self, one_slot_model, small_test):
        t_f = 4
        one_slot_model.backbone_calls = 0
        one_slot_model.predict_autoregressive(small_test[0].past, t_f)
        calls = one_slot_model.backbone_calls
        report(calls == t_f, "ar backbone calls", f"{calls} calls for T_F={t_f}")

    def test_ar_per_slot_error_growth(self, one_slot_model, desk_scen):
        cfg = one_slot_model.cfg
        t_f = 4
        _, test = build_dataset(desk_scen, 100, "test", cfg.t_p, t_f, seed=22)
        per_slot = []
        for t in range(t_f):
            vals = [
                nmse_linear(
                    one_slot_model.predict_autoregressive(rec.past, t_f)[t],
                    rec.future.data[t],
                )
                for rec in test
            ]
            per_slot.append(float(np.mean(vals)))
        ok = all(b >= a - 1e-12 for a, b in zip(per_slot, per_slot[1:]))
        report(ok, "ar error growth",
               "per-slot NMSE non-decreasing: " + ", ".join(f"{v:.4f}" for v in per_slot))


# ======================================================================
# Infrastructure suite
# ======================================================================

class TestInfrastructureSuite:
    def test_dataset_round_trip_bit_exact(self, tmp_path, desk_scen):
        meta, records = build_dataset(desk_scen, 8, "train", 8, 2, seed=31)
        save_dataset(str(tmp_path / "ds"), meta, records)
        _, loaded = load_dataset(str(tmp_path / "ds"))
        ok = all(
            np.array_equal(a.past.data, b.past.data)
            and np.array_equal(a.future.data, b.future.data)
            for a, b in zip(records, loaded)
        )
        report(ok, "dataset round trip", "save/load bit-exact for all 8 samples")

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        cfg = desk_model_config(
            t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1, heads=2,
        )
        model = Model(cfg, seed=7)
        model.save(str(tmp_path / "m"))
        loaded = Model.load(str(tmp_path / "m"))
        ok = all(
            np.array_equal(model.params[n].data, loaded.params[n].data)
            for n in model.params.names()
        )
        report(ok, "checkpoint round trip", "all parameter arrays bit-exact")

    def test_bit_reproducible_runs(self, desk_scen):
        cfg = desk_model_config(
            t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1, backbone_layers=1, heads=2,
        )
        _, records = build_dataset(desk_scen, 16, "train", 4, 2, seed=41)
        tc = TrainConfig(batch=8, epochs=3, lr=1e-3, max_steps=12, freeze="none", seed=5)

        def run():
            m = Model(cfg, seed=9)
            finetune_cp(records, m, tc)
            return {n: m.params[n].data.copy() for n in m.params.names()}

        a, b = run(), run()
        ok = all(np.array_equal(a[n], b[n]) for n in a)
        report(ok, "bit reproducibility", "two (seed, config)-identical runs match bit-for-bit")

    def test_metric_loss_cross_agreement(self):
        rng = np.random.default_rng(0)
        truth = rng.standard_normal((6, 2, 2, 4)) + 1j * rng.standard_normal((6, 2, 2, 4))
        pred = truth + 0.3 * (rng.standard_normal(truth.shape) + 1j * rng.standard_normal(truth.shape))
        # Independent paths: batch loss (mean of per-sample linear NMSE)
        # vs metric (linear mean then dB).
        loss = nmse_loss(pred, truth)
        metric = nmse_metric(list(pred), list(truth))
        err = abs(10 ** (metric / 10.0) - loss)
        report(err < 1e-9, "nmse metric/loss agreement",
               f"|linear(metric) - loss| = {err:.2e} (< 1e-9)")

    def test_bf_loss_independent_path(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 2, 2, 4)) + 1j * rng.standard_normal((3, 2, 2, 4))
        h = rng.standard_normal((3, 2, 2, 4)) + 1j * rng.standard_normal((3, 2, 2, 4))
        graph = float(bf_loss_graph(
            ad.constant(np.stack([w.real, w.imag], axis=2)), h, 0.1
        ).data)
        rates = [sum_rate(h[i, t], w[i, t], 0.1) for i in range(3) for t in range(2)]
        direct = -float(np.mean(rates))
        err = abs(graph - direct)
        report(err < 1e-9, "bf loss independent path",
               f"|graph loss - (-mean sum rate)| = {err:.2e} (< 1e-9)")
