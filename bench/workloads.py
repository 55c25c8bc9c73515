"""The benchmark's workloads: inputs made from the seed, set-up, one
operation, and the checks on its outputs.

Every workload is a single-process closed loop: one caller that waits for
each result before it starts the next. Operations call recflow through its
module attributes, so the traced run sees every layer boundary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import statistics
import time

import numpy as np

from recflow import cli
from recflow import corpus as cp
from recflow import counterfactual as cf
from recflow import kg as kgm
from recflow import pipeline as pl
from recflow import realization as rz
from recflow import recommender as rc
from recflow import synthetic as syn

clock = time.perf_counter


def world_files(world, directory):
    """The world in the CLI's file formats, as {file name: bytes}."""
    paths = syn.write_world(world, directory)
    out = {}
    for path in sorted(paths.values()):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def tail_percentile(values):
    """(p, value) for the highest of p99.9/p99/p90/p50 that has at least ten
    samples beyond it, or None when no such percentile exists."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return None


def timing_row(name, seconds, scale=1.0, unit="s"):
    """A report row for a list of timings: the median, the tail percentile
    and the sample count."""
    values = [v * scale for v in seconds]
    tail = tail_percentile(values)
    note = f"median of n={len(values)}; " + (
        f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail
        else "no percentile has 10 samples beyond it")
    return name, statistics.median(values), unit, note


class Workload:
    """One benchmark workload.

    ``setup(seed, workdir)`` returns the state the operations run against;
    ``op(state)`` performs one operation and returns its raw outputs;
    ``check(state, outputs)`` returns (attempted, failed) for them, and
    ``failures(state)`` how many count as failed when ``op`` raises.
    ``report(state, op_seconds)`` returns the workload's own report rows and
    its values of the shared end-to-end metrics. With ``setup_slices``,
    untraced runs also set up again after each operation.
    """

    name = ""
    setup_repeats = 5
    setup_slices = True

    def __init__(self, size="full"):
        self.size = self.SIZES[size]

    def inputs(self, seed):
        return syn.make_world(seed=seed, **self.size["world"])

    def input_bytes(self, seed, directory):
        return world_files(self.inputs(seed), directory)

    def failures(self, state):
        return 1


# -- protocol -----------------------------------------------------------------

class Protocol(Workload):
    """One seed of the criterion-9 protocol, built exactly as the acceptance
    suite's ``directional`` fixture builds it for one seed."""

    name = "protocol"
    SIZES = {
        "full": {
            "world": dict(items_per_cluster=28, actors_per_cluster=4,
                          directors_per_cluster=2, num_dialogues=500,
                          split=(3, 1, 6)),
            "rec": dict(d_e=32, num_bases=8),
            "pretrain": dict(steps=150, batch_size=64, lr=3e-3,
                             eval_every=50),
            "train": cf.TrainConfig(
                courses=8, rho=0.1, delta=0.9, alpha=5e-2, rollouts=4,
                edit_steps=2, k_edits=1, pairs_per_course=8,
                sims_per_pair=3, mix_ratio=0.7, rec_steps=30, rec_lr=1e-3,
                rec_batch=64, patience=3, temperature=1.2),
            "sim": pl.SimulatorConfig(
                d_model=32, n_layers=1, n_heads=2, ff_mult=2, min_support=5,
                pseudo_ratio=4, flm_epochs=2, flm_batch=16, flm_lr=2e-3,
                clf_steps=150),
        },
        "tiny": {
            "world": dict(num_clusters=2, items_per_cluster=6,
                          actors_per_cluster=4, directors_per_cluster=2,
                          num_dialogues=80, split=(5, 2, 3)),
            "rec": dict(d_e=8, num_bases=2),
            "pretrain": dict(steps=20, batch_size=16, lr=3e-3,
                             eval_every=10),
            "train": cf.TrainConfig(
                courses=2, alpha=5e-2, rollouts=2, edit_steps=1,
                pairs_per_course=2, sims_per_pair=1, mix_ratio=0.7,
                rec_steps=5, rec_batch=16, temperature=1.2),
            "sim": pl.SimulatorConfig(
                d_model=8, n_layers=1, n_heads=2, ff_mult=2, min_support=2,
                pseudo_ratio=1, flm_epochs=1, flm_batch=8, clf_steps=10),
        },
    }

    def setup(self, seed, workdir):
        return {"seed": seed, "world": self.inputs(seed), "recalls": None,
                "stages": []}

    def op(self, state):
        size, seed, world = self.size, state["seed"], state["world"]
        kg, train = world.kg, world.train
        stages = {}
        t0 = clock()
        hkg = world.hkg(train)
        train_samples = pl.samples_from_dialogues(train, kg)
        val_samples = pl.samples_from_dialogues(world.val, kg)
        test_samples = pl.samples_from_dialogues(world.test, kg)
        rec0 = rc.RecModel(hkg, seed=seed, **size["rec"])
        rc.pretrain_recommender(rec0, train_samples, val_samples, seed=seed,
                                **size["pretrain"])
        snapshot = rec0.store.values_dict()
        stages["pretrain"] = clock() - t0

        def fresh():
            m = rc.RecModel(hkg, seed=seed, **size["rec"])
            m.store.load_values(snapshot)
            return m

        tc = dataclasses.replace(size["train"], seed=seed)
        out = {}

        def arm(name, train_fn, *args):
            t = clock()
            model = fresh()
            log, _ = train_fn(model, *args, train_samples, val_samples, tc)
            out[name] = (rc.evaluate(model, test_samples).recall[10],
                         len(log))
            stages[name] = clock() - t

        arm("baseline", cf.train_baseline)
        bank = rz.build_template_bank(train, kg)
        pool = [ex for ex, _ in pl.corpus_flows(train, kg)]
        arm("eda", cf.train_eda, bank, hkg, pool)
        t = clock()
        sim = pl.build_simulator(hkg, train, rec0.entity_embeddings_array(),
                                 dataclasses.replace(size["sim"], seed=seed))
        stages["build_simulator"] = clock() - t
        pairs = pl.build_user_pairs(train, hkg)
        arm("augmented", cf.train_augmented, sim, pairs)
        state["stages"].append(stages)
        return out

    def check(self, state, outputs):
        """Each arm: recall in [0, 1], at least one course, and the same
        recall as the first run of this seed (the protocol is deterministic
        per seed)."""
        if state["recalls"] is None:
            state["recalls"] = {k: r for k, (r, _) in outputs.items()}
        failed = sum(not (0.0 <= recall <= 1.0 and courses >= 1
                          and recall == state["recalls"][arm])
                     for arm, (recall, courses) in outputs.items())
        return len(outputs), failed

    def failures(self, state):
        return 3  # the three arms

    def report(self, state, op_seconds):
        recalls = state["recalls"] or {}
        rows = [timing_row("protocol_s", op_seconds)]
        rows += [(f"recall10_{arm}", recalls.get(arm, 0.0), "fraction", "")
                 for arm in ("augmented", "baseline", "eda")]
        rows += [timing_row(f"stage.{stage}_s",
                            [s[stage] for s in state["stages"]])
                 for stage in ("pretrain", "baseline", "eda",
                               "build_simulator", "augmented")]
        return rows, {"ops_per_s": len(op_seconds) / sum(op_seconds),
                      "recall10": recalls.get("augmented", 0.0)}


# -- cli_train ----------------------------------------------------------------

README_DEMO_CONFIG = {"d_e": 32, "flm_d_model": 32, "flm_layers": 1,
                      "flm_heads": 2, "courses": 8, "rec_steps": 300}


class CliTrain(Workload):
    """``recflow train`` (in-process ``cli.main``) on the README demo world
    and demo config, from an empty output directory each time."""

    name = "cli_train"
    SIZES = {
        "full": {"world": {}, "config": README_DEMO_CONFIG},
        "tiny": {
            "world": dict(num_clusters=2, items_per_cluster=6,
                          actors_per_cluster=4, directors_per_cluster=2,
                          num_dialogues=60),
            "config": {"d_e": 8, "rgcn_bases": 2, "flm_d_model": 8,
                       "flm_layers": 1, "flm_heads": 2, "flm_ff_mult": 2,
                       "min_support": 2, "rec_steps": 20, "rec_batch": 16,
                       "flm_epochs": 1, "flm_batch": 8, "pseudo_ratio": 1,
                       "clf_steps": 10, "courses": 2, "rollouts": 2,
                       "edit_steps": 1, "pairs_per_course": 2,
                       "sims_per_pair": 1, "course_rec_steps": 5},
        },
    }
    REQUIRED_OUTPUTS = ("rec_final.ckpt", "train_log.jsonl",
                        "metrics_test.json")

    def setup(self, seed, workdir):
        world_dir = os.path.join(workdir, "world")
        paths = syn.write_world(self.inputs(seed), world_dir)
        config = {"kg_path": paths["kg"], "types_path": paths["types"],
                  "dialogues_path": paths["train"], "val_path": paths["val"],
                  "test_path": paths["test"], **self.size["config"]}
        config_path = os.path.join(workdir, "demo.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
        return {"workdir": workdir, "config": config_path, "runs": 0,
                "recall": None}

    def op(self, state):
        out_dir = os.path.join(state["workdir"], f"train-{state['runs']}")
        state["runs"] += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", state["config"],
                             "--out-dir", out_dir])
        return code, out_dir

    def check(self, state, outputs):
        """Exit code 0, the manifest lists the final checkpoint, the training
        log and the test metrics, and recall@10 is in [0, 1] and the same on
        every run of this seed."""
        code, out_dir = outputs
        try:
            ok = code == 0 and self._outputs_ok(state, out_dir)
        except (OSError, KeyError, ValueError):  # missing or malformed file
            ok = False
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return 1, int(not ok)

    def _outputs_ok(self, state, out_dir):
        with open(os.path.join(out_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            listed = set(json.load(fh)["outputs"])
        if not listed.issuperset(self.REQUIRED_OUTPUTS):
            return False
        with open(os.path.join(out_dir, "metrics_test.json"),
                  encoding="utf-8") as fh:
            recall = json.load(fh)["recall@10"]
        if state["recall"] is None:
            state["recall"] = recall
        return 0.0 <= recall <= 1.0 and recall == state["recall"]

    def report(self, state, op_seconds):
        recall = state["recall"] or 0.0
        return [timing_row("train_s", op_seconds),
                ("recall10_train", recall, "fraction", "")], \
            {"ops_per_s": len(op_seconds) / sum(op_seconds),
             "recall10": recall}


# -- simulate -----------------------------------------------------------------

class Simulate(Workload):
    """Sequential ``SimulatorBundle.simulate`` calls against a frozen
    simulator on a world with about 1,600 entities.

    One operation is a round: a sampled user pair is simulated once for each
    schema of the mined catalog, so every round has the same schema mix.
    Per-call latency is multimodal by schema length, and with the catalog's
    mix its median sits on a mode boundary; the per-dialogue latency of a
    round does not.
    """

    name = "simulate"
    setup_repeats = 3
    # Its set-up takes seconds and a round milliseconds.
    setup_slices = False
    SIZES = {
        "full": {
            # A 3/1/6 split keeps the graph at 2,800 nodes and gives the
            # set-up recall 1,200 test dialogues, which steadies it across
            # seeds.
            "world": dict(num_clusters=10, items_per_cluster=100,
                          actors_per_cluster=40, directors_per_cluster=16,
                          num_dialogues=2000, split=(3, 1, 6)),
            "rec": dict(d_e=32, num_bases=8),
            "pretrain": dict(steps=30, batch_size=256, lr=3e-2),
            "sim": pl.SimulatorConfig(
                d_model=32, n_layers=1, n_heads=2, ff_mult=2, min_support=5,
                pseudo_ratio=1, flm_epochs=1, flm_batch=16, flm_lr=2e-3,
                clf_steps=100),
            "warmup_rounds": 50,
        },
        "tiny": {
            "world": dict(num_clusters=2, items_per_cluster=6,
                          actors_per_cluster=4, directors_per_cluster=2,
                          num_dialogues=80),
            "rec": dict(d_e=8, num_bases=2),
            "pretrain": dict(steps=10, batch_size=16, lr=3e-3),
            "sim": pl.SimulatorConfig(
                d_model=8, n_layers=1, n_heads=2, ff_mult=2, min_support=2,
                pseudo_ratio=1, flm_epochs=1, flm_batch=8, clf_steps=10),
            "warmup_rounds": 2,
        },
    }

    def setup(self, seed, workdir):
        size = self.size
        world = self.inputs(seed)
        kg = world.kg
        hkg = world.hkg()
        rec = rc.RecModel(hkg, seed=seed, **size["rec"])
        train_samples = pl.samples_from_dialogues(world.train, kg)
        rc.pretrain_recommender(rec, train_samples, None, seed=seed,
                                **size["pretrain"])
        recall = rc.evaluate(rec, pl.samples_from_dialogues(world.test, kg)
                             ).recall[10]
        sim = pl.build_simulator(hkg, world.train,
                                 rec.entity_embeddings_array(),
                                 dataclasses.replace(size["sim"], seed=seed))
        state = {"sim": sim, "pairs": pl.build_user_pairs(world.train, hkg),
                 "rng": np.random.default_rng([seed, 1]), "rounds": 0,
                 "recall": recall, "call_seconds": []}
        for _ in range(size["warmup_rounds"]):
            self.op(state)
        state["call_seconds"].clear()
        return state

    def failures(self, state):
        return len(state["sim"].catalog)

    def op(self, state):
        sim, rng = state["sim"], state["rng"]
        pair = state["pairs"][int(rng.integers(len(state["pairs"])))]
        e_u = sim.prompt(pair.u_entities)
        e_v = sim.prompt(pair.v_entities)
        outputs = []
        for j, schema in enumerate(sim.catalog.schemas):
            t = clock()
            outputs.append(sim.simulate(
                e_u, e_v, rng, dialogue_id=f"sim-{state['rounds']}-{j}",
                user_pair=(pair.user_u, pair.user_v), schema=schema))
            state["call_seconds"].append(clock() - t)
        state["rounds"] += 1
        return outputs

    def check(self, state, outputs):
        """Criterion 4's checks per dialogue: every entity has its schema
        type, the flow passes ``kg.validate_flow``, and the realized dialogue
        round-trips through ``corpus.extract_flow``."""
        sim = state["sim"]
        kg = sim.hkg.base
        failed = 0
        for realized in outputs:
            flow, schema = realized.flow_entities, realized.schema
            try:
                flow2, schema2 = cp.extract_flow(realized.dialogue, kg)
            except (KeyError, ValueError):  # unknown entity or bad span
                failed += 1
                continue
            ok = (all(kg.type_name_of(e) == t for e, t in zip(flow, schema))
                  and kgm.validate_flow(sim.hkg, flow, schema,
                                        hop_limit=sim.flm.cfg.hop_limit)
                  and flow2.entities == list(flow)
                  and tuple(schema2) == tuple(schema))
            failed += not ok
        return len(outputs), failed

    def report(self, state, op_seconds):
        per_round = len(state["sim"].catalog)
        per_dialogue = [t / per_round for t in op_seconds]
        calls = state["call_seconds"]
        rate = len(op_seconds) * per_round / sum(op_seconds)
        rows = [("sim_dialogues_per_s", rate, "1/s",
                 f"{len(op_seconds) * per_round} dialogues"),
                timing_row("sim_latency_p50_ms", per_dialogue, 1e3, "ms"),
                ("sim_latency_p99_ms", float(np.percentile(calls, 99)) * 1e3,
                 "ms", f"per simulate call, n={len(calls)}"
                 + ("" if len(calls) >= 1000
                    else "; fewer than 10 samples beyond p99")),
                ("recall10_setup", state["recall"], "fraction", "")]
        return rows, {"ops_per_s": rate, "recall10": state["recall"]}


WORKLOADS = {w.name: w for w in (Protocol, CliTrain, Simulate)}
