"""The benchmark's three workloads.

Each workload builds its inputs from the run seed, then runs identical
rounds: every round makes the same calls into leocsi on inputs derived from
(seed, round index), timing each call inside ``Round.stage``.  ``run_round``
returns the round's outputs and ``check`` tests them outside the timed
stages, against properties of the method or computations made apart from
the program.  ``ops_per_round`` counts a round's units of work (samples
generated, training steps, predictions, evaluations, beamformers); it is
fixed by the workload's sizes, so every run attempts whole rounds of the
same operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import replace

import numpy as np

from leocsi import beamform, channel, cli, config, dataset, evaluation, models, training

import checks
from checks import Checks


class Round:
    """Program time per named stage, plus per-call latencies."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.stage_s: dict[str, float] = {}
        self.latencies_ms: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def stage(self, name: str, latency: str | None = None):
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.enabled = False
            self.stage_s[name] = self.stage_s.get(name, 0.0) + dt
            if latency is not None:
                self.latencies_ms.setdefault(latency, []).append(1e3 * dt)

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def round_seed(seed: int, index: int, salt: int = 0) -> int:
    return checks.seed_state(seed, index, salt)


def _stack(records, part: str) -> np.ndarray:
    return np.stack([getattr(r, part).data for r in records])


def _total(rounds: list[Round], stage: str) -> float:
    return sum(r.stage_s[stage] for r in rounds)


# ======================================================================
# desk-study
# ======================================================================

class DeskStudy:
    """Generate, pretrain, LoRA-fine-tune a CSI and a beamforming head, evaluate."""

    name = "desk-study"
    N_TRAIN = 64
    N_TEST = 20
    BATCH = 64          # TrainConfig's default; with N_TRAIN = 64 every step sees the whole set
    STEPS = 8           # per training stage
    LOSS_WINDOW = 3     # steps averaged at each end of a loss trace

    def __init__(self, seed: int, workdir: str, checks_: Checks):
        self.seed = seed
        self.checks = checks_
        self.scenario = config.desk_scenario()
        self.cfg = models.desk_model_config()
        self.bf_cfg = replace(self.cfg, head="bf", total_power=self.scenario.total_power)
        # Samples generated, training steps, test predictions (CSI and BF).
        self.ops_per_round = (self.N_TRAIN + self.N_TEST) + 3 * self.STEPS + 2 * self.N_TEST

    def run_round(self, index: int, rnd: Round) -> dict:
        cfg, scen = self.cfg, self.scenario
        s = round_seed(self.seed, index)
        with rnd.stage("generate"):
            _, train = dataset.build_dataset(scen, self.N_TRAIN, "train", cfg.t_p, cfg.t_f, seed=s)
            _, test = dataset.build_dataset(scen, self.N_TEST, "test", cfg.t_p, cfg.t_f, seed=s + 1)
        past, future = _stack(test, "past"), _stack(test, "future")
        out = {"future": future}

        tc = training.TrainConfig(batch=self.BATCH, epochs=1000, lr=1e-3, weight_decay=0.0,
                                  max_steps=self.STEPS, seed=s, freeze="none")
        with rnd.stage("pretrain"):
            pretrained, out["pretrain"] = training.pretrain_backbone(train, cfg, tc, seed=s)
        out["digest"] = checks.backbone_digest(pretrained)

        tc_cp = replace(tc, freeze="backbone")
        with rnd.stage("train_cp"):
            cp = training.build_finetune_model(cfg, pretrained, seed=s)
        pre_model = models.Model(replace(cfg, lora_rank=0), params=pretrained)
        out["warm_start"] = (cp.predict_batch(past), pre_model.predict_batch(past))
        with rnd.stage("train_cp"):
            out["LoRA-CP"] = training.finetune_cp(train, cp, tc_cp)

        with rnd.stage("train_bf"):
            bf = training.build_finetune_model(self.bf_cfg, pretrained, seed=s)
            out["LoRA-BF"] = training.finetune_bf(
                train, bf, replace(tc_cp, noise_power=scen.noise_power))
        out["models"] = {"LoRA-CP": cp, "LoRA-BF": bf}

        with rnd.stage("evaluate"):
            out["cp_pred"] = cp.predict_batch(past)
            out["nmse_db"] = evaluation.nmse_metric(list(out["cp_pred"]), list(future))
            w = out["w"] = bf.predict_batch(past)
            out["rates"] = [beamform.sum_rate(future[i, t], w[i, t], scen.noise_power)
                            for i in range(self.N_TEST) for t in range(cfg.t_f)]

        # Graph losses on a held batch (the test set), for the numpy comparison.
        x_norm, stats = models.preprocess(past)
        pred = cp.forward_graph(cp.params.leaves(), x_norm, stats)
        w_graph = bf.forward_graph(bf.params.leaves(), x_norm, stats)
        out["graph_nmse"] = (float(training.nmse_loss_graph(pred, future).data), pred.data)
        out["graph_bf"] = (float(training.bf_loss_graph(w_graph, future, scen.noise_power).data),
                           w_graph.data)
        return out

    def check(self, out: dict) -> None:
        ck, scen = self.checks, self.scenario
        n = self.LOSS_WINDOW
        for label in ("pretrain", "LoRA-CP", "LoRA-BF"):
            trace = np.asarray(out[label])
            ck.require(trace.size == self.STEPS and np.all(np.isfinite(trace)),
                       f"desk-study: {label} losses not finite or wrong step count")
            ck.require(trace[-n:].mean() < trace[:n].mean(),
                       f"desk-study: {label} loss did not fall "
                       f"({trace[:n].mean():.4f} -> {trace[-n:].mean():.4f})")
        for label, model in out["models"].items():
            ck.require(checks.backbone_digest(model.params) == out["digest"],
                       f"desk-study: {label} changed the frozen backbone")
        ck.require(np.array_equal(*out["warm_start"]),
                   "desk-study: warm-started LoRA model differs from the pretrained model")

        future = out["future"]
        own = checks.nmse_db(out["cp_pred"], future)
        ck.require(abs(out["nmse_db"] - own) <= 1e-9 * max(1.0, abs(own)),
                   "desk-study: test NMSE disagrees with the independent NMSE")
        w = out["w"]
        own = [checks.sum_rate(future[i, t], w[i, t], scen.noise_power)
               for i in range(w.shape[0]) for t in range(w.shape[1])]
        ck.require(checks.rel_close(out["rates"], own, 1e-9),
                   "desk-study: sum_rate disagrees with the SINR formula")
        slot_power = np.sum(np.abs(w) ** 2, axis=(2, 3))
        ck.require(checks.rel_close(slot_power, np.full_like(slot_power, scen.total_power), 1e-9),
                   "desk-study: beamforming head misses the power budget")

        graph, pred = out["graph_nmse"]
        own = float(np.mean(checks.nmse_linear(checks.real_to_complex(pred), future)))
        ck.require(abs(graph - own) <= 1e-9 * abs(own),
                   f"desk-study: graph NMSE {graph!r} != numpy NMSE {own!r}")
        graph, w_real = out["graph_bf"]
        wc = checks.real_to_complex(w_real)
        own = -float(np.mean([checks.sum_rate(future[i, t], wc[i, t], scen.noise_power)
                              for i in range(wc.shape[0]) for t in range(wc.shape[1])]))
        ck.require(abs(graph - own) <= 1e-9 * abs(own),
                   f"desk-study: graph BF loss {graph!r} != numpy sum rate {own!r}")

    def final_checks(self) -> None:
        """Finite-difference gradient check of a tiny model, CSI and BF losses."""
        rng = np.random.default_rng(round_seed(self.seed, 0, 99))
        tiny = models.desk_model_config(t_p=4, t_f=2, d_enc=16, d_llm=16, encoder_layers=1,
                                        backbone_layers=1, heads=2, lora_rank=2)
        shape = (1, tiny.t_p, tiny.num_devices, tiny.num_antennas)
        fshape = (1, tiny.t_f, tiny.num_devices, tiny.num_antennas)
        past = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        future = rng.standard_normal(fshape) + 1j * rng.standard_normal(fshape)
        x_norm, stats = models.preprocess(past)
        worst = 0.0
        for head in ("csi", "bf"):
            model = models.Model(replace(tiny, head=head), seed=round_seed(self.seed, 1, 99))
            for name in model.params.names():
                if name.startswith("lora.") and name.endswith(".b"):
                    # Non-zero B so gradients also reach the LoRA A factors.
                    model.params[name].data[...] = 0.1 * rng.standard_normal(
                        model.params[name].data.shape)

            def loss(leaves, m=model, head=head):
                pred = m.forward_graph(leaves, x_norm, stats)
                if head == "csi":
                    return training.nmse_loss_graph(pred, future)
                return training.bf_loss_graph(pred, future, 0.1)

            worst = max(worst, checks.finite_difference_error(
                loss, model.params, rng_seed=round_seed(self.seed, 2, 99)))
        self.checks.require(worst < 1e-4, f"desk-study: finite-difference gradient error {worst:.2e}")

    def stage_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        samples = {"generate": self.N_TRAIN + self.N_TEST, "pretrain": self.STEPS * self.BATCH,
                   "train_cp": self.STEPS * self.BATCH, "train_bf": self.STEPS * self.BATCH}
        return {f"{stage}_samples_per_s": (n * len(rounds) / _total(rounds, stage), "samples/s")
                for stage, n in samples.items()}


# ======================================================================
# full-scale-data
# ======================================================================

class FullScaleData:
    """``leocsi generate`` and ``leocsi eval`` at full scale, then MRT/ZF/WMMSE per test slot."""

    name = "full-scale-data"
    N_TRAIN = 10
    N_TEST = 20
    T_P, T_F = 16, 4
    REBUILD = 3         # test samples per round rebuilt from the channel model
    BASELINES = ("persistence", "ar1", "ar2")

    def __init__(self, seed: int, workdir: str, checks_: Checks):
        self.seed = seed
        self.workdir = workdir
        self.checks = checks_
        self.scenario = config.ScenarioConfig()
        # Samples generated, (sample, baseline) evaluations, beamformers computed.
        slots = self.N_TEST * self.T_F
        self.ops_per_round = (self.N_TRAIN + self.N_TEST + self.N_TEST * len(self.BASELINES)
                              + 3 * slots)

    @staticmethod
    def _cli(argv: list[str]) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"leocsi {' '.join(argv)} exited with {rc}")

    @staticmethod
    def _only_run_dir(root: str) -> str:
        (name,) = os.listdir(root)
        return os.path.join(root, name)

    def run_round(self, index: int, rnd: Round) -> dict:
        scen = self.scenario
        s = round_seed(self.seed, index)
        round_dir = os.path.join(self.workdir, f"round-{index}")
        shutil.rmtree(round_dir, ignore_errors=True)  # a traced run repeats round indices
        gen_root = os.path.join(round_dir, "generate")
        eval_root = os.path.join(round_dir, "eval")
        with rnd.stage("generate"):
            self._cli(["--seed", str(s), "--out", gen_root, "generate",
                       "--train-count", str(self.N_TRAIN), "--test-count", str(self.N_TEST)])
        run_dir = self._only_run_dir(gen_root)
        test_dir = os.path.join(run_dir, "test")

        argv = ["--seed", str(s), "--out", eval_root, "eval", "--dataset", test_dir]
        for name in self.BASELINES:
            argv += ["--baseline", name]
        with rnd.stage("eval"):
            self._cli(argv)

        p_t, sigma2 = scen.total_power, scen.noise_power
        with rnd.stage("beamform"):
            _, test = dataset.load_dataset(test_dir)
            slots = []
            for rec in test:
                outdated = rec.past.data[-1]
                for t in range(rec.future.num_slots):
                    h = rec.future.data[t]
                    w_mrt = beamform.mrt(outdated, p_t)
                    w_zf = beamform.zero_forcing(outdated, p_t)
                    w_wmmse, trace = beamform.wmmse(h, p_t, sigma2)
                    rates = [beamform.sum_rate(h, w, sigma2) for w in (w_mrt, w_zf, w_wmmse)]
                    slots.append({"outdated": outdated, "h": h, "mrt": w_mrt, "zf": w_zf,
                                  "wmmse": w_wmmse, "trace": trace, "rates": rates})

        with open(os.path.join(self._only_run_dir(eval_root), "eval.json"), encoding="utf-8") as fh:
            eval_doc = json.load(fh)
        _, train = dataset.load_dataset(os.path.join(run_dir, "train"))
        return {"seed": s, "index": index, "test": test, "train": train,
                "eval": eval_doc, "slots": slots}

    def check(self, out: dict) -> None:
        self._check_dataset(out)
        self._check_eval(out["eval"], out["test"])
        self._check_beamformers(out["slots"])

    def _check_dataset(self, out: dict) -> None:
        ck, scen, s = self.checks, self.scenario, out["seed"]
        test = out["test"]
        # Bit-equality against in-memory builds: sample i depends only on
        # (seed, i), so a short build must equal the head of the written split.
        for split, count in (("test", self.REBUILD), ("train", 2)):
            _, mem = dataset.build_dataset(scen, count, split, self.T_P, self.T_F, seed=s)
            same = all(np.array_equal(a.past.data, b.past.data)
                       and np.array_equal(a.future.data, b.future.data)
                       and np.array_equal(a.device_speed_mps, b.device_speed_mps)
                       for a, b in zip(mem, out[split]))
            ck.require(same, f"full-scale-data: written {split} split != in-memory build")

        past, future = _stack(test, "past"), _stack(test, "future")
        pick = np.random.default_rng(round_seed(self.seed, out["index"], 7)).choice(
            len(test), size=self.REBUILD, replace=False)
        slots = np.arange(self.T_P + self.T_F)
        nominal = 10.0 ** (dataset.DEFAULT_TEST_SNR_DB / 10.0)
        for i in pick:
            episode_seed = checks.seed_state(s, int(i), 1)
            clean = np.stack([
                checks.rician_channel(
                    channel.sample_device_params(scen, float(test[i].device_speed_mps[k]),
                                                 checks.seed_state(episode_seed, k)),
                    scen, slots)
                for k in range(scen.num_devices)], axis=1)  # [T, K, N]
            ck.require(checks.float32_match(future[i], clean[self.T_P:]),
                       f"full-scale-data: test future {i} != rebuilt clean channel")
            noise = past[i] - clean[:self.T_P]
            snr = np.mean(np.abs(clean[:self.T_P]) ** 2) / np.mean(np.abs(noise) ** 2)
            # The mean of M exponential |n|^2 draws has relative sd 1/sqrt(M).
            bound = 6.0 / math.sqrt(noise.size)
            ck.require(abs(nominal / snr - 1.0) <= bound,
                       f"full-scale-data: history SNR {10 * math.log10(snr):.3f} dB is not "
                       f"{dataset.DEFAULT_TEST_SNR_DB} dB within {bound:.3f}")

        # E||h_k(t)||^2 = kappa/(kappa+1) + 1/(kappa+1) = 1 for unit-norm steering
        # and unit-power gains; one value per (episode, device).
        gains = np.mean(np.sum(np.abs(future) ** 2, axis=3), axis=1).reshape(-1)
        ck.require(abs(gains.mean() - 1.0) <= checks.mean_bound(gains),
                   f"full-scale-data: mean |h|^2 = {gains.mean():.4f}, expected 1")

    def _check_eval(self, eval_doc: dict, test) -> None:
        past, future = _stack(test, "past"), _stack(test, "future")
        own = checks.nmse_db(np.repeat(past[:, -1:], self.T_F, axis=1), future)
        got = eval_doc["nmse_db"]["persistence"]
        self.checks.require(abs(got - own) <= 1e-9 * max(1.0, abs(own)),
                            f"full-scale-data: eval.json persistence {got!r} != {own!r}")
        self.checks.require(
            set(eval_doc["nmse_db"]) == set(self.BASELINES)
            and all(math.isfinite(v) for v in eval_doc["nmse_db"].values()),
            "full-scale-data: eval.json lacks a finite NMSE per baseline")

    def _check_beamformers(self, slots: list[dict]) -> None:
        ck, scen = self.checks, self.scenario
        p_t, sigma2 = scen.total_power, scen.noise_power
        power = leak = rate_err = 0.0
        trace_drop = vs_mrt = 0.0
        for sl in slots:
            ws = (sl["mrt"], sl["zf"], sl["wmmse"])
            power = max([power] + [abs(checks.power(w) / p_t - 1.0) for w in ws])
            leak = max(leak, checks.interference_leak(sl["outdated"], sl["zf"]))
            trace_drop = min(trace_drop, float(np.min(np.diff(sl["trace"]), initial=0.0)))
            own = [checks.sum_rate(sl["h"], w, sigma2) for w in ws]
            rate_err = max([rate_err] + [abs(a - b) / abs(b) for a, b in zip(sl["rates"], own)])
            vs_mrt = min(vs_mrt, own[2] - checks.sum_rate(sl["h"], checks.mrt(sl["h"], p_t), sigma2))
        ck.require(power <= 1e-9, f"full-scale-data: power budget off by {power:.2e}")
        ck.require(leak <= 1e-9, f"full-scale-data: ZF interference leak {leak:.2e}")
        ck.require(trace_drop >= -1e-9, f"full-scale-data: WMMSE rate fell by {-trace_drop:.2e}")
        ck.require(rate_err <= 1e-9, f"full-scale-data: sum_rate off by {rate_err:.2e}")
        ck.require(vs_mrt >= -1e-9, f"full-scale-data: WMMSE below MRT by {-vs_mrt:.2e}")

    def final_checks(self) -> None:
        pass

    def stage_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        n = len(rounds)
        return {
            "generate_samples_per_s": (
                n * (self.N_TRAIN + self.N_TEST) / _total(rounds, "generate"), "samples/s"),
            "eval_samples_per_s": (n * self.N_TEST / _total(rounds, "eval"), "samples/s"),
            "beamform_slots_per_s": (
                n * self.N_TEST * self.T_F / _total(rounds, "beamform"), "slots/s"),
        }


# ======================================================================
# online-predict
# ======================================================================

class OnlinePredict:
    """One closed-loop caller: single-sample predictions, AR rollouts, batched predictions."""

    name = "online-predict"
    N_TEST = 40
    AR_STEPS = 2

    def __init__(self, seed: int, workdir: str, checks_: Checks):
        self.seed = seed
        self.workdir = workdir
        self.checks = checks_
        # Single-sample calls (CSI, BF, rollout) and the two batched calls.
        self.ops_per_round = 3 * self.N_TEST + 2
        scen = config.desk_scenario()
        self.total_power = scen.total_power
        cfg = models.desk_model_config()
        configs = {
            "cp": cfg,
            "bf": replace(cfg, head="bf", total_power=scen.total_power),
            "ar": replace(cfg, t_f=1),
        }
        self.written = {}
        self.models = {}
        for i, (key, c) in enumerate(configs.items()):
            model = models.Model(c, seed=round_seed(seed, i, 5))
            path = os.path.join(workdir, f"model-{key}")
            model.save(path)
            self.written[key] = (model, path)
            self.models[key] = models.Model.load(path)
        _, self.test = dataset.build_dataset(scen, self.N_TEST, "test", cfg.t_p, cfg.t_f,
                                             seed=round_seed(seed, 0, 6))
        self.past = _stack(self.test, "past")

    def run_round(self, index: int, rnd: Round) -> dict:
        cp, bf, ar = self.models["cp"], self.models["bf"], self.models["ar"]
        order = np.random.default_rng(round_seed(self.seed, index, 8)).permutation(self.N_TEST)
        out = {"order": order, "cp": [], "bf": [], "rollouts": [], "backbone_calls": []}
        for i in order:
            past = self.test[i].past
            with rnd.stage("infer_cp", latency="infer_cp"):
                out["cp"].append(cp.predict(past))
            with rnd.stage("infer_bf", latency="infer_bf"):
                out["bf"].append(bf.predict(past))
            before = ar.backbone_calls
            with rnd.stage("infer_ar", latency="infer_ar"):
                out["rollouts"].append(ar.predict_autoregressive(past, self.AR_STEPS))
            out["backbone_calls"].append(ar.backbone_calls - before)
        with rnd.stage("infer_batch"):
            out["batch"] = {"cp": cp.predict_batch(self.past), "bf": bf.predict_batch(self.past)}
        past = self.test[order[0]].past
        out["one_slot"] = (ar.predict_autoregressive(past, 1), ar.predict(past))
        return out

    def check(self, out: dict) -> None:
        ck = self.checks
        for key in ("cp", "bf"):
            single = np.stack(out[key])
            rows = out["batch"][key][out["order"]]
            ck.require(np.all(np.isfinite(single)) and np.all(np.isfinite(rows)),
                       f"online-predict: non-finite {key} output")
            ck.require(checks.rel_close(single, rows, 1e-12),
                       f"online-predict: single {key} predict != its predict_batch row")
        for w in (np.stack(out["bf"]), out["batch"]["bf"]):
            slot_power = np.sum(np.abs(w) ** 2, axis=(2, 3))
            ck.require(checks.rel_close(slot_power, np.full_like(slot_power, self.total_power), 1e-9),
                       "online-predict: beamformer misses the power budget")
        ck.require(all(r.shape[0] == self.AR_STEPS and np.all(np.isfinite(r))
                       for r in out["rollouts"]),
                   "online-predict: non-finite or short autoregressive rollout")
        ck.require(all(c == self.AR_STEPS for c in out["backbone_calls"]),
                   f"online-predict: backbone calls per rollout {sorted(set(out['backbone_calls']))}"
                   f", expected {self.AR_STEPS}")
        ck.require(np.array_equal(*out["one_slot"]),
                   "online-predict: one-slot rollout != parallel prediction")

    def final_checks(self) -> None:
        """Checkpoint round trips give bit-identical predictions."""
        for key, (original, _) in self.written.items():
            again_path = os.path.join(self.workdir, f"model-{key}-again")
            self.models[key].save(again_path)
            again = models.Model.load(again_path)
            ref = original.predict_batch(self.past)
            same = all(np.array_equal(ref, m.predict_batch(self.past))
                       for m in (self.models[key], again))
            self.checks.require(same, f"online-predict: {key} checkpoint round trip changed outputs")

    def stage_metrics(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        lat = {k: [x for r in rounds for x in r.latencies_ms[k]]
               for k in ("infer_cp", "infer_bf", "infer_ar")}
        out = {"infer_batch_samples_per_s": (
            2 * self.N_TEST * len(rounds) / _total(rounds, "infer_batch"), "samples/s")}
        out["infer_cp_p50_ms"] = (float(np.median(lat["infer_cp"])), "ms")
        # A p99 needs at least ten calls beyond it.
        if len(lat["infer_cp"]) >= 1000:
            out["infer_cp_p99_ms"] = (float(np.percentile(lat["infer_cp"], 99)), "ms")
        out["infer_bf_p50_ms"] = (float(np.median(lat["infer_bf"])), "ms")
        out["infer_ar_p50_ms"] = (float(np.median(lat["infer_ar"])), "ms")
        return out


WORKLOADS = {w.name: w for w in (DeskStudy, FullScaleData, OnlinePredict)}
