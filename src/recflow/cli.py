"""Command-line entry point and pipeline orchestration.

Subcommands: ingest, mine-schemas, pretrain-rec, pretrain-flm, train,
simulate, evaluate, eda-baseline, sweep. ``main`` frames every run: it
resolves the config, creates the output directory, loads the workspace,
calls the command's handler from ``HANDLERS`` and then writes
``config_resolved.json`` and a ``manifest.json`` listing every file the
command wrote. A command that needs the pre-trained recommender or the
simulator reuses the output directory's saved files when all of them exist
and builds them otherwise; ``pretrain-rec`` and ``pretrain-flm`` always
rebuild theirs. The library's trainers and simulator take the same
``RunConfig`` that the command resolves, passed straight through. The exit
code follows the category of the error (``errors.py``): 0 success,
2 ``ConfigError``, 3 ``DataError`` or ``OSError``, 4 ``NumericError``.
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
from . import kg as kgm
from . import pipeline as pl
from . import recommender as rc
from . import schema as sc
from .config import RunConfig
from .errors import ConfigError, DataError, NumericError


class OutputTracker:
    """Collects every file a command writes, for the manifest."""

    def __init__(self, out_dir, command):
        self.out_dir = out_dir
        self.command = command
        self.outputs = []
        self.inputs = []
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
        if self.inputs:
            manifest["inputs"] = sorted(self.inputs)
        self.write_json("manifest.json", manifest)


@dataclass
class Workspace:
    kg: object
    hkg: object
    train: list
    val_samples: list
    test_samples: list


def _require(cfg, *names):
    for name in names:
        if not getattr(cfg, name):
            raise ConfigError(name, "path is required for this command")


def load_workspace(cfg, need_test):
    """Read every data file ``cfg`` names and resolve the validation and
    test splits to recommender samples (an empty list when a split is not
    configured), so a bad record in any split fails before any output."""
    _require(cfg, "kg_path", "types_path", "dialogues_path")
    if need_test:
        _require(cfg, "test_path")
    kg = kgm.load_kg_files(cfg.kg_path, cfg.types_path)
    train = cp.load_dialogues_file(cfg.dialogues_path)
    val = cp.load_dialogues_file(cfg.val_path) if cfg.val_path else []
    test = cp.load_dialogues_file(cfg.test_path) if cfg.test_path else []
    val_samples = pl.samples_from_dialogues(val, kg)
    test_samples = pl.samples_from_dialogues(test, kg)
    hkg = kgm.attach_users(kg, cp.derive_interactions(train))
    return Workspace(kg=kg, hkg=hkg, train=train, val_samples=val_samples,
                     test_samples=test_samples)


def build_rec(cfg, hkg):
    return rc.RecModel(hkg, d_e=cfg.d_e, num_layers=cfg.rgcn_layers,
                       num_bases=cfg.rgcn_bases, seed=cfg.seed)


def _pretrained_rec(cfg, ws, out, rebuild):
    """The pre-trained recommender: read from the output directory's
    ``rec.ckpt`` when it exists and ``rebuild`` is false, else pre-trained
    and saved there with its history."""
    rec = build_rec(cfg, ws.hkg)
    path = os.path.join(cfg.out_dir, "rec.ckpt")
    if not rebuild and os.path.exists(path):
        pl.read_checkpoint(path, rec.store)
        return rec
    train_samples = pl.samples_from_dialogues(ws.train, ws.kg)
    history = rc.pretrain_recommender(
        rec, train_samples, ws.val_samples, steps=cfg.rec_steps,
        batch_size=cfg.rec_batch, lr=cfg.rec_lr, patience=cfg.patience,
        seed=cfg.seed)
    ad.save_checkpoint(out.path("rec.ckpt"), rec.store)
    out.write_json("rec_history.json", history)
    return rec


def _simulator(cfg, ws, rec, out, rebuild):
    """The simulator: loaded from the output directory when all of
    ``pl.SIMULATOR_FILES`` exist and ``rebuild`` is false, else built on
    ``rec``'s entity embeddings and saved there."""
    def saved(name):
        return os.path.join(cfg.out_dir, name)
    if not rebuild and all(os.path.exists(saved(n))
                           for n in pl.SIMULATOR_FILES):
        return pl.load_simulator(ws.hkg, ws.train, saved, cfg)
    sim = pl.build_simulator(ws.hkg, ws.train, rec.entity_embeddings_array(),
                             cfg)
    pl.save_simulator(sim, out.path)
    return sim


def _response_distinct(dialogues):
    """Distinct-2/3/4 over the recommender turns of ``dialogues``."""
    texts = [t.text for d in dialogues for t in d.turns
             if t.speaker == cp.RECOMMENDER]
    return {n: rc.distinct_n(texts, n) for n in (2, 3, 4)}


def _write_test_report(ws, rec, simulated, out, name):
    if not ws.test_samples:
        return
    report = rc.evaluate(rec, ws.test_samples)
    if simulated:
        report.distinct = _response_distinct(r.dialogue for r in simulated)
    out.write_text("metrics_test.json", report.to_json() + "\n")
    print(report.format_table(name))


# -- commands -----------------------------------------------------------------

def cmd_ingest(cfg, ws, out, args):
    out.write_jsonl("flows.jsonl", (
        {"dialogue_id": d.dialogue_id,
         "entities": [ws.kg.entity_names[e] for e in ex.entities],
         "schema": list(ex.schema)}
        for ex, d in pl.corpus_flows(ws.train, ws.kg)))
    out.write_jsonl("templates.jsonl", (
        {"speaker": tpl.speaker, "text": tpl.text,
         "signature": list(tpl.signature), "dialogue_id": tpl.dialogue_id}
        for d in ws.train for tpl in cp.extract_templates(d, ws.kg)))
    out.write_json("interactions.json", cp.derive_interactions(ws.train))
    stats = {"dialogues": len(ws.train),
             "utterances": sum(len(d.turns) for d in ws.train),
             "mentions": sum(len(t.mentions) for d in ws.train
                             for t in d.turns),
             "users": len(ws.hkg.users),
             "entities": ws.kg.num_entities,
             "triples": len(ws.kg.triples)}
    out.write_json("corpus_stats.json", stats)
    print(json.dumps(stats, sort_keys=True))


def cmd_mine_schemas(cfg, ws, out, args):
    flows = pl.corpus_flows(ws.train, ws.kg, max_len=cfg.max_len)
    catalog = sc.mine_schemas([ex.schema for ex, _ in flows],
                              min_support=cfg.min_support,
                              max_len=cfg.max_len)
    out.write_text("catalog.json", catalog.to_json() + "\n")
    print(f"mined {len(catalog)} schemas from {len(flows)} flows")


def cmd_pretrain_rec(cfg, ws, out, args):
    rec = _pretrained_rec(cfg, ws, out, rebuild=True)
    _write_test_report(ws, rec, [], out, "pretrained")


def cmd_pretrain_flm(cfg, ws, out, args):
    rec = _pretrained_rec(cfg, ws, out, rebuild=False)
    sim = _simulator(cfg, ws, rec, out, rebuild=True)
    out.write_json("flm_history.json", sim.pretrain_history)
    print(f"pre-trained flow model on {len(ws.train)} dialogues; "
          f"catalog size {len(sim.catalog)}")


def _run_training(cfg, ws, out, arm, final_name):
    """Train the pre-trained recommender in place as ``arm``."""
    rec = _pretrained_rec(cfg, ws, out, rebuild=False)
    sim = (_simulator(cfg, ws, rec, out, rebuild=False)
           if arm == "augmented" else None)
    log, simulated = cf.train_arm(arm, rec, ws.train, ws.val_samples, cfg,
                                  sim)
    ad.save_checkpoint(out.path(final_name), rec.store)
    out.write_jsonl("train_log.jsonl", log)
    out.write_jsonl("simulated.jsonl",
                    (r.dialogue.to_record() for r in simulated))
    _write_test_report(ws, rec, simulated, out, out.command)


def cmd_train(cfg, ws, out, args):
    _run_training(cfg, ws, out, "augmented", "rec_final.ckpt")


def cmd_eda_baseline(cfg, ws, out, args):
    _run_training(cfg, ws, out, "eda", "rec_eda.ckpt")


def cmd_simulate(cfg, ws, out, args):
    rec = _pretrained_rec(cfg, ws, out, rebuild=False)
    sim = _simulator(cfg, ws, rec, out, rebuild=False)
    pairs = pl.build_user_pairs(ws.train, ws.hkg)
    if not pairs:
        raise DataError("no user pairs with interactions to simulate")
    rng = np.random.default_rng(cfg.seed)
    realized, requests = [], []
    for i in range(cfg.n_simulate):
        pair = pairs[int(rng.integers(len(pairs)))]
        e_u = sim.prompt(pair.u_entities)
        e_v = sim.prompt(pair.v_entities)
        r = sim.simulate(e_u, e_v, rng, dialogue_id=f"sim-{i:05d}",
                         temperature=cfg.temperature,
                         user_pair=(pair.user_u, pair.user_v))
        realized.append(r)
        requests.append({
            "request": {"user_u": pair.user_u, "user_v": pair.user_v,
                        "schema": list(r.schema),
                        "temperature": cfg.temperature},
            "response": {"flow": [ws.kg.entity_names[e]
                                  for e in r.flow_entities],
                         "dialogue": r.dialogue.to_record()}})
    out.write_jsonl("simulated.jsonl",
                    (r.dialogue.to_record() for r in realized))
    out.write_jsonl("simulate_log.jsonl", requests)
    print(f"simulated {len(realized)} dialogues")


def _default_checkpoint(out_dir):
    """The checkpoint ``evaluate`` scores without ``--checkpoint``: the first
    of ``rec_final.ckpt``, ``rec_eda.ckpt`` and ``rec.ckpt`` that the
    directory's manifest names as an output (or, after an ``evaluate``, as
    its input), else the first that exists; a bad manifest is a DataError."""
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        manifest = {"outputs": []}
    except ValueError as err:  # not JSON, or not UTF-8
        raise DataError(f"cannot read {path}: {err}") from None
    lists = ([manifest.get("outputs"), manifest.get("inputs", [])]
             if isinstance(manifest, dict) else [None])
    if not all(isinstance(v, list) and all(isinstance(n, str) for n in v)
               for v in lists):
        raise DataError(f"{path} is not a manifest of file-name lists")
    named = set().union(*lists)
    order = ("rec_final.ckpt", "rec_eda.ckpt", "rec.ckpt")
    for name in [n for n in order if n in named] + list(order):
        ckpt = os.path.join(out_dir, name)
        if os.path.exists(ckpt):
            return ckpt
    return None


def cmd_evaluate(cfg, ws, out, args):
    rec = build_rec(cfg, ws.hkg)
    ckpt = (_default_checkpoint(cfg.out_dir) if args.checkpoint is None
            else args.checkpoint)
    if ckpt is None:
        raise DataError("no recommender checkpoint found to evaluate")
    pl.read_checkpoint(ckpt, rec.store)
    out.inputs.append(os.path.relpath(ckpt, cfg.out_dir))
    report = rc.evaluate(rec, ws.test_samples)
    if args.responses:
        report.distinct = _response_distinct(
            cp.load_dialogues_file(args.responses))
    out.write_text("metrics_test.json", report.to_json() + "\n")
    print(report.format_table(os.path.basename(ckpt)))


def cmd_sweep(cfg, ws, out, args):
    rec0 = _pretrained_rec(cfg, ws, out, rebuild=False)
    sim = _simulator(cfg, ws, rec0, out, rebuild=False)
    eval_samples = ws.test_samples or ws.val_samples
    rows = []
    for rho in cfg.sweep_rho:
        for delta in cfg.sweep_delta:
            for mix in cfg.sweep_mix:
                rec = rec0.copy()
                point = dataclasses.replace(cfg, rho=rho, delta=delta,
                                            mix_ratio=mix)
                log, _ = cf.train_arm("augmented", rec, ws.train,
                                      ws.val_samples, point, sim)
                row = {"rho": rho, "delta": delta, "mix_ratio": mix,
                       "courses_run": len(log)}
                if eval_samples:
                    report = rc.evaluate(rec, eval_samples)
                    row["recall@10"] = report.recall[10]
                    row["recall@50"] = report.recall[50]
                rows.append(row)
    out.write_json("sweep.json", rows)
    print(f"swept {len(rows)} configurations")


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
        out = OutputTracker(cfg.out_dir, args.command)
        ws = load_workspace(cfg, need_test=args.command == "evaluate")
        HANDLERS[args.command](cfg, ws, out, args)
        out.finalize(cfg)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
