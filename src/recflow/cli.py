"""Command-line entry point and pipeline orchestration.

Subcommands: ingest, mine-schemas, pretrain-rec, pretrain-flm, train,
simulate, evaluate, eda-baseline, sweep. Every run writes a resolved-config
snapshot and a manifest listing all produced files into the output
directory. The library's trainers and simulator take the same ``RunConfig``
that the command resolves, passed straight through. Exit codes: 0 success,
2 config error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import corpus as cp
from . import counterfactual as cf
from . import flm as flmm
from . import kg as kgm
from . import pipeline as pl
from . import realization as rz
from . import recommender as rc
from . import schema as sc
from .config import ConfigError, RunConfig

DATA_ERRORS = (pl.DataError, kgm.MissingType, kgm.MalformedRecord,
               kgm.UnknownEntity, kgm.EmptyInteractionList, kgm.UnknownType,
               cp.ParseError, cp.SpanOutOfBounds, flmm.VocabMiss,
               flmm.TypeMismatch, flmm.EmptyTypeClass,
               flmm.AllSchemasUnreachable, rz.NoCoveringSegmentation,
               rc.LabelNotItem, rc.EmptyTestSet, rc.EmptyTrainingSet,
               sc.EmptyCatalog, sc.IndexOutOfCatalog, OSError)
NUMERIC_ERRORS = (ad.NonFiniteGradient, ad.NonScalarLoss,
                  cf.NonFiniteUpdate, cf.PositionOutOfRange)


class OutputTracker:
    """Collects every file a command writes, for the manifest."""

    def __init__(self, out_dir, command):
        self.out_dir = out_dir
        self.command = command
        self.outputs = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name):
        full = os.path.join(self.out_dir, name)
        if name not in self.outputs:
            self.outputs.append(name)
        return full

    def write_text(self, name, text):
        full = self.path(name)
        with ad.atomic_write(full, "w", encoding="utf-8") as fh:
            fh.write(text)
        return full

    def write_jsonl(self, name, records):
        """One sorted-key JSON line per record; no records, an empty file."""
        return self.write_text(name, "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in records))

    def write_json(self, name, obj):
        return self.write_text(name, json.dumps(obj, indent=2,
                                                 sort_keys=True) + "\n")

    def finalize(self, cfg):
        self.write_text("config_resolved.json", cfg.to_json() + "\n")
        manifest = {"command": self.command,
                    "outputs": sorted(self.outputs + ["manifest.json"])}
        self.write_json("manifest.json", manifest)


@dataclass
class Workspace:
    kg: object
    hkg: object
    train: list
    val: list
    test: list


def _require(cfg, *names):
    for name in names:
        if not getattr(cfg, name):
            raise ConfigError(name, "path is required for this command")


def load_workspace(cfg, need_test=False):
    _require(cfg, "kg_path", "types_path", "dialogues_path")
    if need_test:
        _require(cfg, "test_path")
    kg = kgm.load_kg_files(cfg.kg_path, cfg.types_path)
    train = cp.load_dialogues_file(cfg.dialogues_path)
    val = cp.load_dialogues_file(cfg.val_path) if cfg.val_path else []
    test = cp.load_dialogues_file(cfg.test_path) if cfg.test_path else []
    hkg = kgm.attach_users(kg, cp.derive_interactions(train))
    return Workspace(kg=kg, hkg=hkg, train=train, val=val, test=test)


def build_rec(cfg, hkg):
    return rc.RecModel(hkg, d_e=cfg.d_e, num_layers=cfg.rgcn_layers,
                       num_bases=cfg.rgcn_bases, seed=cfg.seed)


def _pretrain_rec(cfg, ws, tracker):
    rec = build_rec(cfg, ws.hkg)
    train_samples = pl.samples_from_dialogues(ws.train, ws.kg)
    val_samples = pl.samples_from_dialogues(ws.val, ws.kg) if ws.val else None
    history = rc.pretrain_recommender(
        rec, train_samples, val_samples, steps=cfg.rec_steps,
        batch_size=cfg.rec_batch, lr=cfg.rec_lr, patience=cfg.patience,
        seed=cfg.seed)
    ad.save_checkpoint(tracker.path("rec.ckpt"), rec.store)
    tracker.write_json("rec_history.json", history)
    return rec


def _load_or_pretrain_rec(cfg, ws, tracker):
    path = os.path.join(cfg.out_dir, "rec.ckpt")
    if os.path.exists(path):
        rec = build_rec(cfg, ws.hkg)
        pl.read_checkpoint(path, rec.store)
        return rec
    return _pretrain_rec(cfg, ws, tracker)


def _build_simulator(cfg, ws, rec, tracker):
    sim = pl.build_simulator(ws.hkg, ws.train, rec.entity_embeddings_array(),
                             cfg)
    pl.save_simulator(sim, tracker.path)
    return sim


def _load_or_build_simulator(cfg, ws, rec, tracker):
    def saved(name):
        return os.path.join(cfg.out_dir, name)
    if all(os.path.exists(saved(n)) for n in pl.SIMULATOR_FILES):
        return pl.load_simulator(ws.hkg, ws.train, saved, cfg)
    return _build_simulator(cfg, ws, rec, tracker)


def _response_distinct(dialogues):
    """Distinct-2/3/4 over the recommender turns of ``dialogues``."""
    texts = [t.text for d in dialogues for t in d.turns
             if t.speaker == cp.RECOMMENDER]
    return {n: rc.distinct_n(texts, n) for n in (2, 3, 4)}


def _test_report(ws, rec, simulated):
    report = None
    if ws.test:
        test_samples = pl.samples_from_dialogues(ws.test, ws.kg)
        if test_samples:
            report = rc.evaluate(rec, test_samples)
    if report is not None and simulated:
        report.distinct = _response_distinct(r.dialogue for r in simulated)
    return report


# -- commands -----------------------------------------------------------------

def cmd_ingest(cfg):
    tracker = OutputTracker(cfg.out_dir, "ingest")
    ws = load_workspace(cfg)
    tracker.write_jsonl("flows.jsonl", (
        {"dialogue_id": d.dialogue_id,
         "entities": [ws.kg.entity_names[e] for e in ex.entities],
         "schema": list(ex.schema)}
        for ex, d in pl.corpus_flows(ws.train, ws.kg)))
    tracker.write_jsonl("templates.jsonl", (
        {"speaker": tpl.speaker, "text": tpl.text,
         "signature": list(tpl.signature), "dialogue_id": tpl.dialogue_id}
        for d in ws.train for tpl in cp.extract_templates(d, ws.kg)))
    tracker.write_json("interactions.json",
                       cp.derive_interactions(ws.train))
    stats = {"dialogues": len(ws.train),
             "utterances": sum(len(d.turns) for d in ws.train),
             "mentions": sum(len(t.mentions) for d in ws.train
                             for t in d.turns),
             "users": len(ws.hkg.users),
             "entities": ws.kg.num_entities,
             "triples": len(ws.kg.triples)}
    tracker.write_json("corpus_stats.json", stats)
    tracker.finalize(cfg)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_mine_schemas(cfg):
    tracker = OutputTracker(cfg.out_dir, "mine-schemas")
    ws = load_workspace(cfg)
    flows = pl.corpus_flows(ws.train, ws.kg, max_len=cfg.max_len)
    catalog = sc.mine_schemas([ex.schema for ex, _ in flows],
                              min_support=cfg.min_support,
                              max_len=cfg.max_len)
    tracker.write_text("catalog.json", catalog.to_json() + "\n")
    tracker.finalize(cfg)
    print(f"mined {len(catalog)} schemas from {len(flows)} flows")
    return 0


def cmd_pretrain_rec(cfg):
    tracker = OutputTracker(cfg.out_dir, "pretrain-rec")
    ws = load_workspace(cfg)
    rec = _pretrain_rec(cfg, ws, tracker)
    report = _test_report(ws, rec, [])
    if report is not None:
        tracker.write_text("metrics_test.json", report.to_json() + "\n")
        print(report.format_table("pretrained"))
    tracker.finalize(cfg)
    return 0


def cmd_pretrain_flm(cfg):
    tracker = OutputTracker(cfg.out_dir, "pretrain-flm")
    ws = load_workspace(cfg)
    rec = _load_or_pretrain_rec(cfg, ws, tracker)
    sim = _build_simulator(cfg, ws, rec, tracker)
    tracker.write_json("flm_history.json", sim.pretrain_history)
    tracker.finalize(cfg)
    print(f"pre-trained flow model on {len(ws.train)} dialogues; "
          f"catalog size {len(sim.catalog)}")
    return 0


def _run_training(cfg, arm):
    tracker = OutputTracker(cfg.out_dir, arm)
    ws = load_workspace(cfg)
    rec = _load_or_pretrain_rec(cfg, ws, tracker)
    real_train = pl.samples_from_dialogues(ws.train, ws.kg)
    val_samples = pl.samples_from_dialogues(ws.val, ws.kg) if ws.val else None
    if arm == "train":
        sim = _load_or_build_simulator(cfg, ws, rec, tracker)
        pairs = pl.build_user_pairs(ws.train, ws.hkg)
        log, simulated = cf.train_augmented(rec, sim, pairs, real_train,
                                            val_samples, cfg)
        final_name = "rec_final.ckpt"
    else:
        bank = rz.build_template_bank(ws.train, ws.kg)
        flow_pool = [ex for ex, _ in pl.corpus_flows(ws.train, ws.kg,
                                                     max_len=cfg.max_len)]
        log, simulated = cf.train_eda(rec, bank, ws.hkg, flow_pool,
                                      real_train, val_samples, cfg)
        final_name = "rec_eda.ckpt"
    ad.save_checkpoint(tracker.path(final_name), rec.store)
    tracker.write_jsonl("train_log.jsonl", log)
    tracker.write_jsonl("simulated.jsonl",
                        (r.dialogue.to_record() for r in simulated))
    report = _test_report(ws, rec, simulated)
    if report is not None:
        tracker.write_text("metrics_test.json", report.to_json() + "\n")
        print(report.format_table(arm))
    tracker.finalize(cfg)
    return 0


def cmd_train(cfg):
    return _run_training(cfg, "train")


def cmd_eda_baseline(cfg):
    return _run_training(cfg, "eda-baseline")


def cmd_simulate(cfg):
    tracker = OutputTracker(cfg.out_dir, "simulate")
    ws = load_workspace(cfg)
    rec = _load_or_pretrain_rec(cfg, ws, tracker)
    sim = _load_or_build_simulator(cfg, ws, rec, tracker)
    pairs = pl.build_user_pairs(ws.train, ws.hkg)
    if not pairs:
        raise pl.DataError("no user pairs with interactions to simulate")
    rng = np.random.default_rng(cfg.seed)
    realized, requests = [], []
    for i in range(cfg.n_simulate):
        pair = pairs[int(rng.integers(len(pairs)))]
        e_u = sim.prompt(pair.u_entities)
        e_v = sim.prompt(pair.v_entities)
        out = sim.simulate(e_u, e_v, rng, dialogue_id=f"sim-{i:05d}",
                           temperature=cfg.temperature,
                           user_pair=(pair.user_u, pair.user_v))
        realized.append(out)
        requests.append({
            "request": {"user_u": pair.user_u, "user_v": pair.user_v,
                        "schema": list(out.schema),
                        "temperature": cfg.temperature},
            "response": {"flow": [ws.kg.entity_names[e]
                                  for e in out.flow_entities],
                         "dialogue": out.dialogue.to_record()}})
    tracker.write_jsonl("simulated.jsonl",
                        (r.dialogue.to_record() for r in realized))
    tracker.write_jsonl("simulate_log.jsonl", requests)
    tracker.finalize(cfg)
    print(f"simulated {len(realized)} dialogues")
    return 0


def cmd_evaluate(cfg, checkpoint=None, responses=None):
    tracker = OutputTracker(cfg.out_dir, "evaluate")
    ws = load_workspace(cfg, need_test=True)
    rec = build_rec(cfg, ws.hkg)
    ckpt = checkpoint
    if ckpt is None:
        for name in ("rec_final.ckpt", "rec.ckpt"):
            candidate = os.path.join(cfg.out_dir, name)
            if os.path.exists(candidate):
                ckpt = candidate
                break
    if ckpt is None:
        raise pl.DataError("no recommender checkpoint found to evaluate")
    pl.read_checkpoint(ckpt, rec.store)
    test_samples = pl.samples_from_dialogues(ws.test, ws.kg)
    report = rc.evaluate(rec, test_samples)
    if responses:
        report.distinct = _response_distinct(cp.load_dialogues_file(responses))
    tracker.write_text("metrics_test.json", report.to_json() + "\n")
    tracker.finalize(cfg)
    print(report.format_table(os.path.basename(ckpt)))
    return 0


def cmd_sweep(cfg):
    tracker = OutputTracker(cfg.out_dir, "sweep")
    ws = load_workspace(cfg)
    rec0 = _load_or_pretrain_rec(cfg, ws, tracker)
    snapshot = rec0.store.values_dict()
    sim = _load_or_build_simulator(cfg, ws, rec0, tracker)
    pairs = pl.build_user_pairs(ws.train, ws.hkg)
    real_train = pl.samples_from_dialogues(ws.train, ws.kg)
    val_samples = pl.samples_from_dialogues(ws.val, ws.kg) if ws.val else None
    test_samples = (pl.samples_from_dialogues(ws.test, ws.kg)
                    if ws.test else None)
    rows = []
    for rho in cfg.sweep_rho:
        for delta in cfg.sweep_delta:
            for mix in cfg.sweep_mix:
                rec = build_rec(cfg, ws.hkg)
                rec.store.load_values(snapshot)
                point = dataclasses.replace(cfg, rho=rho, delta=delta,
                                            mix_ratio=mix)
                log, _ = cf.train_augmented(rec, sim, pairs, real_train,
                                            val_samples, point)
                row = {"rho": rho, "delta": delta, "mix_ratio": mix,
                       "courses_run": len(log)}
                eval_samples = test_samples or val_samples
                if eval_samples:
                    report = rc.evaluate(rec, eval_samples)
                    row["recall@10"] = report.recall[10]
                    row["recall@50"] = report.recall[50]
                rows.append(row)
    tracker.write_json("sweep.json", rows)
    tracker.finalize(cfg)
    print(f"swept {len(rows)} configurations")
    return 0


HANDLERS = {
    "ingest": cmd_ingest,
    "mine-schemas": cmd_mine_schemas,
    "pretrain-rec": cmd_pretrain_rec,
    "pretrain-flm": cmd_pretrain_flm,
    "train": cmd_train,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "eda-baseline": cmd_eda_baseline,
    "sweep": cmd_sweep,
}


# -- argument parsing -----------------------------------------------------------

def _parse_override(pair):
    if "=" not in pair:
        raise ConfigError(pair, "override must look like key=value")
    key, raw = pair.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="recflow",
        description="Counterfactual dialogue simulation and augmentation "
                    "for conversational recommenders.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON config file (flags override fields)")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides",
                       help="override any config field")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "evaluate":
            p.add_argument("--checkpoint", default=None)
            p.add_argument("--responses", default=None,
                           help="corpus JSONL for distinct-n diversity")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        overrides = dict(_parse_override(p) for p in args.overrides)
        if args.out_dir is not None:
            overrides["out_dir"] = args.out_dir
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = RunConfig.load(args.config, overrides)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, checkpoint=args.checkpoint,
                                responses=args.responses)
        return HANDLERS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NUMERIC_ERRORS as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
