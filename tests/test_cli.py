import json
import os
import shutil
import struct

import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import cli
from recflow import corpus as cp
from recflow import pipeline as pl
from recflow import synthetic as syn
from recflow.config import ConfigError, RunConfig
from recflow.errors import DataError, NumericError


@pytest.fixture(scope="session")
def world_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("world")
    world = syn.make_world(seed=5, num_clusters=2, items_per_cluster=6,
                           actors_per_cluster=4, directors_per_cluster=2,
                           num_dialogues=60)
    return syn.write_world(world, str(root))


def fast_config(world_files, out_dir, **extra):
    cfg = {
        "kg_path": world_files["kg"],
        "types_path": world_files["types"],
        "dialogues_path": world_files["train"],
        "val_path": world_files["val"],
        "test_path": world_files["test"],
        "out_dir": str(out_dir),
        "d_e": 16, "rgcn_bases": 4,
        "flm_d_model": 16, "flm_layers": 1, "flm_heads": 2, "flm_ff_mult": 2,
        "min_support": 2, "rec_steps": 120, "rec_batch": 32,
        "flm_epochs": 1, "flm_batch": 8, "pseudo_ratio": 1, "clf_steps": 50,
        "courses": 2, "rollouts": 2, "edit_steps": 1, "pairs_per_course": 2,
        "sims_per_pair": 1, "course_rec_steps": 10, "n_simulate": 5,
        "sweep_rho": [0.1], "sweep_delta": [0.9], "sweep_mix": [1.0],
        "seed": 11,
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"not_a_real_field": 1})


def test_config_validates_ranges():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"delta": 1.5})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"rollouts": 0})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"precision": "f16"})
    # bools are ints in Python but never a valid number here; NaN compares
    # false with every bound, so it must fail the check rather than pass it
    for bad in ({"d_e": True}, {"rollouts": True}, {"temperature": True},
                {"mix_ratio": False}, {"delta": "x"},
                {"mix_ratio": float("nan")}, {"rho": float("nan")},
                {"out_dir": 5}, {"out_dir": ""}, {"connectivity_mask": 5},
                {"connectivity_mask": "false"}, {"sweep_rho": 5},
                {"sweep_rho": []}, {"sweep_rho": [0.1, -1.0]},
                {"sweep_rho": [True]}, {"sweep_delta": [0.9, 1.5]},
                {"sweep_delta": [0.0]}, {"sweep_mix": [float("nan")]},
                {"sweep_mix": "1.0"}, {"sweep_mix": [[1.0]]}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(bad)
    assert RunConfig.from_dict({"sweep_rho": [0, 1e-3], "sweep_delta": [1],
                                "connectivity_mask": False})


def test_cli_bad_sweep_list_exits_2_before_training(tmp_path, world_files):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["sweep", "--config", cfg_path,
                     "--set", "sweep_rho=5"]) == 2
    assert not out.exists()


def test_cli_unknown_key_exits_2(tmp_path, world_files):
    cfg_path = write_config(tmp_path,
                            fast_config(world_files, tmp_path / "out"))
    # precision, use_baseline and workers are removed fields: a stale config
    # fails like a typo
    for override in ("bogus_key=1", "precision=f32", "use_baseline=true",
                     "workers=2"):
        code = cli.main(["mine-schemas", "--config", cfg_path,
                         "--set", override])
        assert code == 2, override


def test_cli_malformed_config_exits_2(tmp_path, world_files):
    text = json.dumps(fast_config(world_files, tmp_path / "out"))
    cut = tmp_path / "cut.json"
    cut.write_text(text[:len(text) // 2])
    assert cli.main(["mine-schemas", "--config", str(cut)]) == 2


def test_cli_missing_file_exits_3(tmp_path, world_files):
    cfg = fast_config(world_files, tmp_path / "out",
                      kg_path=str(tmp_path / "missing.tsv"))
    code = cli.main(["mine-schemas", "--config",
                     write_config(tmp_path, cfg)])
    assert code == 3


@pytest.mark.parametrize("name", ["a_directory", "missing.json"])
def test_cli_unopenable_config_file_exits_2(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    code = cli.main(["train", "--config", str(tmp_path / name)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_empty_out_dir_exits_2(tmp_path, world_files, capsys):
    cfg_path = write_config(tmp_path,
                            fast_config(world_files, tmp_path / "out"))
    assert cli.main(["ingest", "--config", cfg_path, "--out-dir", ""]) == 2
    assert capsys.readouterr().err == (
        "config error: config field 'out_dir': must name a directory, "
        "got ''\n")


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("seed", "planted"), 2, "config error: "),
    (DataError("planted"), 3, "data error: "),
    (OSError("planted"), 3, "data error: "),
    (NumericError("planted"), 4, "numeric error: "),
], ids=["config", "data", "os", "numeric"])
def test_each_error_category_exits_with_its_code(tmp_path, world_files,
                                                 monkeypatch, capsys, error,
                                                 code, prefix):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "load_workspace", fail)
    cfg_path = write_config(tmp_path,
                            fast_config(world_files, tmp_path / "out"))
    assert cli.main(["ingest", "--config", cfg_path]) == code
    assert capsys.readouterr().err == f"{prefix}{error}\n"


def test_cli_directory_as_dialogues_exits_3(tmp_path, world_files):
    cfg = fast_config(world_files, tmp_path / "out",
                      dialogues_path=str(tmp_path))
    code = cli.main(["mine-schemas", "--config",
                     write_config(tmp_path, cfg)])
    assert code == 3


def test_cli_file_as_out_dir_exits_3(tmp_path, world_files):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfg_path = write_config(tmp_path, fast_config(world_files, taken))
    assert cli.main(["mine-schemas", "--config", cfg_path]) == 3
    assert taken.read_text() == "not a directory\n"


def write_dialogues_keeping(tmp_path, world_files, speaker, split="train"):
    """The ``split`` dialogues with only ``speaker``'s turns kept (none when
    ``speaker`` is None)."""
    lines = []
    if speaker is not None:
        for d in cp.load_dialogues_file(world_files[split]):
            record = d.to_record()
            record["turns"] = [t for t in record["turns"]
                               if t["speaker"] == speaker]
            lines.append(json.dumps(record))
    path = tmp_path / f"{split}_filtered.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


@pytest.mark.parametrize("command, speaker", [
    ("pretrain-rec", None),
    ("train", None),
    ("pretrain-rec", cp.SEEKER),
    ("train", cp.SEEKER),
    ("train", cp.RECOMMENDER),
    ("sweep", cp.RECOMMENDER),
])
def test_empty_training_inputs_exit_3(tmp_path, world_files, command,
                                      speaker):
    # no recommender turns leaves no training samples; no seeker turns
    # leaves no user pairs to edit
    cfg = fast_config(world_files, tmp_path / "out",
                      dialogues_path=write_dialogues_keeping(
                          tmp_path, world_files, speaker))
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 3


def test_mine_schemas_single_flow_fixture(tmp_path, world_files):
    # one-dialogue corpus -> catalog with exactly its schema
    d = cp.load_dialogues_file(world_files["train"])[0]
    solo = tmp_path / "solo.jsonl"
    cp.save_dialogues(solo, [d])
    cfg = fast_config(world_files, tmp_path / "out",
                      dialogues_path=str(solo), min_support=1)
    assert cli.main(["mine-schemas", "--config",
                     write_config(tmp_path, cfg)]) == 0
    with open(tmp_path / "out" / "catalog.json") as fh:
        catalog = json.load(fh)
    assert len(catalog) == 1
    assert catalog[0]["support"] == 1


def test_ingest_writes_expected_artifacts(tmp_path, world_files):
    cfg = fast_config(world_files, tmp_path / "out")
    assert cli.main(["ingest", "--config", write_config(tmp_path, cfg)]) == 0
    out = tmp_path / "out"
    for name in ("flows.jsonl", "templates.jsonl", "interactions.json",
                 "corpus_stats.json", "manifest.json",
                 "config_resolved.json"):
        assert (out / name).exists(), name
    manifest = read_manifest(out)
    assert manifest["command"] == "ingest"


def _set_mention(key, value):
    def damage(rec):
        rec["turns"][0]["mentions"][0][key] = value
    return damage


def _drop_mention_key(key):
    def damage(rec):
        del rec["turns"][0]["mentions"][0][key]
    return damage


@pytest.mark.parametrize("damage", [
    lambda rec: rec.update(turns="x"),
    lambda rec: rec.update(turns=[5]),
    lambda rec: rec["turns"][0].update(mentions="x"),
    lambda rec: rec["turns"][0].update(mentions=[5]),
    _drop_mention_key("start"),
    _drop_mention_key("entity"),
    _set_mention("start", "x"),
    _set_mention("start", 1.5),
    _set_mention("start", True),
    _set_mention("start", "22"),
    _set_mention("entity", 7),
    lambda rec: rec.update(seeker_id=["u"]),
    lambda rec: rec.update(dialogue_id=None),
    lambda rec: rec.update(dialogue_id=1),
], ids=["turns-str", "turn-int", "mentions-str", "mention-int",
        "no-start", "no-entity", "start-str", "start-float", "start-bool",
        "start-digits", "entity-int", "seeker-id-list", "id-null", "id-int"])
def test_ingest_malformed_dialogue_record_exits_3(tmp_path, world_files,
                                                  capsys, damage):
    with open(world_files["train"], encoding="utf-8") as fh:
        rec = json.loads(fh.readline())
    damage(rec)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    cfg = fast_config(world_files, tmp_path / "out", dialogues_path=str(path))
    assert cli.main(["ingest", "--config", write_config(tmp_path, cfg)]) == 3
    assert "data error: unparseable dialogue record 0: " in (
        capsys.readouterr().err)


def test_ingest_repeated_dialogue_id_exits_3(tmp_path, world_files, capsys):
    # two dialogues with one id would share their per-role users
    with open(world_files["train"], encoding="utf-8") as fh:
        line = json.dumps({**json.loads(fh.readline()), "dialogue_id": "1"})
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n" + line + "\n")
    cfg = fast_config(world_files, tmp_path / "out", dialogues_path=str(path))
    assert cli.main(["ingest", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == (
        'data error: unparseable dialogue record 1: dialogue_id "1" is not a '
        "string that no earlier record uses\n")


def test_ingest_bad_speaker_names_record_and_turn_once(tmp_path, world_files,
                                                       capsys):
    with open(world_files["train"], encoding="utf-8") as fh:
        lines = [fh.readline() for _ in range(2)]
    rec = json.loads(lines[1])
    rec["turns"][1]["speaker"] = 5
    path = tmp_path / "bad.jsonl"
    path.write_text(lines[0] + json.dumps(rec) + "\n")
    cfg = fast_config(world_files, tmp_path / "out", dialogues_path=str(path))
    assert cli.main(["ingest", "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == (
        "data error: unparseable dialogue record 1: turn 1: bad speaker 5\n")


@pytest.mark.parametrize("key, field", [("kg", "kg_path"),
                                        ("types", "types_path"),
                                        ("train", "dialogues_path")])
def test_ingest_non_utf8_input_exits_3(tmp_path, world_files, capsys, key,
                                       field):
    with open(world_files[key], "rb") as fh:
        first, rest = fh.readline(), fh.read()
    path = tmp_path / os.path.basename(world_files[key])
    path.write_bytes(first + b"\xff" + rest)
    cfg = fast_config(world_files, tmp_path / "out", **{field: str(path)})
    assert cli.main(["ingest", "--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert err == (f"data error: malformed record at line 2: {path} is not "
                   "valid UTF-8\n")


@pytest.mark.parametrize("command, split", [
    ("train", "test"), ("train", "val"), ("pretrain-rec", "test"),
    ("ingest", "test")])
def test_bad_entity_in_a_split_exits_3_before_training(tmp_path, world_files,
                                                      capsys, command,
                                                      split):
    # a held-out dialogue mentions a name that kg.tsv lacks; every split is
    # resolved when the workspace loads, so nothing is trained or written
    zorro = {"dialogue_id": "zorro", "turns": [
        {"speaker": "seeker", "text": "I loved Zorro.",
         "mentions": [{"entity": "Zorro", "start": 8, "end": 13}]}]}
    path = tmp_path / f"{split}.jsonl"
    with open(world_files[split], encoding="utf-8") as fh:
        path.write_text(fh.read() + json.dumps(zorro) + "\n")
    out = tmp_path / "out"
    cfg = fast_config(world_files, out, rec_steps=1,
                      **{f"{split}_path": str(path)})
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err == (
        "data error: entity 'Zorro' is not in the knowledge graph\n")
    for name in ("rec.ckpt", "flm.ckpt", "manifest.json"):
        assert not (out / name).exists(), name


def test_test_split_without_samples_skips_report_and_fails_evaluate(
        tmp_path, world_files, capsys):
    # test dialogues with no recommender turns yield no samples: train
    # skips the test report, and evaluate has nothing to score
    out = tmp_path / "out"
    cfg = fast_config(world_files, out, courses=0,
                      test_path=write_dialogues_keeping(
                          tmp_path, world_files, cp.SEEKER, split="test"))
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["train", "--config", cfg_path]) == 0
    assert (out / "rec_final.ckpt").exists()
    assert not (out / "metrics_test.json").exists()
    capsys.readouterr()
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == "data error: no test samples\n"


def test_manifest_lists_every_output_no_orphans(tmp_path, world_files):
    cfg = fast_config(world_files, tmp_path / "out")
    assert cli.main(["ingest", "--config", write_config(tmp_path, cfg)]) == 0
    out = str(tmp_path / "out")
    manifest = read_manifest(out)
    listed = set(manifest["outputs"]) | {"config_resolved.json"}
    on_disk = set(os.listdir(out))
    assert on_disk == listed | {"manifest.json"} | (listed & on_disk)
    assert on_disk <= listed | {"manifest.json"}


@pytest.fixture(scope="module")
def zero_course_out(tmp_path_factory, world_files):
    """The output directory of one ``train`` with no courses."""
    root = tmp_path_factory.mktemp("zero_courses")
    cfg = fast_config(world_files, root / "out", courses=0)
    assert cli.main(["train", "--config", write_config(root, cfg)]) == 0
    return root / "out"


def test_train_zero_courses_keeps_pretrained_checkpoint(zero_course_out):
    out = zero_course_out
    base = (out / "rec.ckpt").read_bytes()
    final = (out / "rec_final.ckpt").read_bytes()
    assert base == final
    manifest = read_manifest(out)
    assert "rec.ckpt" in manifest["outputs"]
    assert "rec_final.ckpt" in manifest["outputs"]


def test_train_zero_courses_writes_empty_jsonl_files(zero_course_out):
    # no records is an empty file, not a lone newline that json.loads
    # rejects as a line
    for name in ("train_log.jsonl", "simulated.jsonl"):
        assert (zero_course_out / name).read_text() == "", name


def test_train_pipeline_and_artifacts(tmp_path, world_files):
    out = tmp_path / "out"
    cfg = fast_config(world_files, out)
    assert cli.main(["train", "--config", write_config(tmp_path, cfg)]) == 0
    for name in ("rec.ckpt", "flm.ckpt", "clf.ckpt", "catalog.json",
                 "rec_final.ckpt", "train_log.jsonl", "simulated.jsonl",
                 "metrics_test.json"):
        assert (out / name).exists(), name
    log = [json.loads(line)
           for line in (out / "train_log.jsonl").read_text().splitlines()]
    assert len(log) == 2
    assert {"course", "lambda", "mean_reward", "edit_norm",
            "val_recall@10", "val_recall@50"} <= set(log[0])
    simulated = cp.load_dialogues_file(out / "simulated.jsonl")
    assert len(simulated) == 4  # courses * pairs_per_course * sims_per_pair


def test_simulate_emits_corpus_format(tmp_path, world_files):
    out = tmp_path / "out"
    cfg = fast_config(world_files, out)
    assert cli.main(["simulate", "--config",
                     write_config(tmp_path, cfg)]) == 0
    sims = cp.load_dialogues_file(out / "simulated.jsonl")
    assert len(sims) == 5
    log_lines = (out / "simulate_log.jsonl").read_text().splitlines()
    first = json.loads(log_lines[0])
    assert "request" in first and "response" in first
    assert first["response"]["dialogue"]["dialogue_id"] == "sim-00000"


def test_evaluate_uses_checkpoint_and_prints_table(tmp_path, world_files,
                                                   capsys):
    out = tmp_path / "out"
    cfg = fast_config(world_files, out)
    assert cli.main(["pretrain-rec", "--config",
                     write_config(tmp_path, cfg)]) == 0
    assert cli.main(["evaluate", "--config",
                     write_config(tmp_path, cfg)]) == 0
    captured = capsys.readouterr().out
    assert "Recall@10" in captured
    with open(out / "metrics_test.json") as fh:
        metrics = json.load(fh)
    assert 0.0 <= metrics["recall@10"] <= 1.0
    assert metrics["recall@10"] <= metrics["recall@50"]


def test_evaluate_without_checkpoint_exits_3(tmp_path, world_files):
    cfg = fast_config(world_files, tmp_path / "empty")
    assert cli.main(["evaluate", "--config",
                     write_config(tmp_path, cfg)]) == 3


def test_eda_baseline_runs(tmp_path, world_files):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["eda-baseline", "--config", cfg_path]) == 0
    assert (out / "rec_eda.ckpt").exists()
    # evaluate then scores rec_eda.ckpt, not the pre-trained rec.ckpt
    trained = json.loads((out / "metrics_test.json").read_text())
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    scored = json.loads((out / "metrics_test.json").read_text())
    ranking = [k for k in trained if "@" in k]
    assert len(ranking) == 6
    assert {k: scored[k] for k in ranking} == {k: trained[k] for k in ranking}


def test_evaluate_scores_the_checkpoint_the_manifest_names(tmp_path,
                                                           world_files):
    # train leaves rec_final.ckpt behind, but eda-baseline wrote the
    # directory last, so evaluate scores its rec_eda.ckpt, and names it in
    # its own manifest for the next evaluate
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["train", "--config", cfg_path]) == 0
    assert cli.main(["eda-baseline", "--config", cfg_path]) == 0
    trained = json.loads((out / "metrics_test.json").read_text())
    ranking = [k for k in trained if "@" in k]
    for _ in range(2):
        assert cli.main(["evaluate", "--config", cfg_path]) == 0
        scored = json.loads((out / "metrics_test.json").read_text())
        assert {k: scored[k] for k in ranking} == {k: trained[k]
                                                   for k in ranking}
        assert read_manifest(out)["inputs"] == ["rec_eda.ckpt"]
    # with no manifest, the fixed order holds
    (out / "manifest.json").unlink()
    assert cli.main(["evaluate", "--config", cfg_path]) == 0
    assert read_manifest(out)["inputs"] == ["rec_final.ckpt"]


@pytest.mark.parametrize("raw,says", [
    (b"{not json", "cannot read"),
    (b"[1,", "cannot read"),
    (b'{"outputs": ["rec\xff.ckpt"]}', "cannot read"),
    (b'["rec.ckpt"]', "is not a manifest"),
    (b"null", "is not a manifest"),
    (b'{"outputs": 5}', "is not a manifest"),
    (b'{"outputs": "rec.ckpt"}', "is not a manifest"),
    (b'{"outputs": [["rec.ckpt"]]}', "is not a manifest"),
    (b'{"outputs": [], "inputs": {}}', "is not a manifest"),
    (b'{"command": "train"}', "is not a manifest"),
], ids=["bad-json", "truncated", "not-utf8", "list", "null", "number",
        "string", "nested", "inputs-object", "no-outputs"])
def test_evaluate_with_a_corrupt_manifest_exits_3(tmp_path, world_files,
                                                  capsys, raw, says):
    # the manifest decides which checkpoint is scored, so one that cannot
    # be read stops evaluate before it scores or writes anything
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_bytes(raw)
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["evaluate", "--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert f"{out / 'manifest.json'}" in err and says in err
    assert (out / "manifest.json").read_bytes() == raw
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_sweep_writes_grid_results(tmp_path, world_files):
    out = tmp_path / "out"
    cfg = fast_config(world_files, out, courses=1)
    assert cli.main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
    with open(out / "sweep.json") as fh:
        rows = json.load(fh)
    assert len(rows) == 1
    assert rows[0]["rho"] == 0.1 and "recall@10" in rows[0]


def test_failed_write_keeps_earlier_output_and_leaves_no_temp_file(tmp_path):
    out = tmp_path / "out"
    tracker = cli.OutputTracker(str(out), "test")
    tracker.write_text("log.txt", "first\n")
    with pytest.raises(UnicodeEncodeError):
        tracker.write_text("log.txt", "second \ud800\n")
    assert (out / "log.txt").read_text() == "first\n"
    assert os.listdir(out) == ["log.txt"]
    assert tracker.outputs == ["log.txt"]


def test_flag_overrides_config_field(tmp_path, world_files):
    out = tmp_path / "out"
    cfg = fast_config(world_files, out, min_support=999)
    code = cli.main(["mine-schemas", "--config", write_config(tmp_path, cfg),
                     "--set", "min_support=2"])
    assert code == 0
    with open(out / "config_resolved.json") as fh:
        resolved = json.load(fh)
    assert resolved["min_support"] == 2
    with open(out / "catalog.json") as fh:
        assert len(json.load(fh)) > 0


def test_evaluate_loads_f32_checkpoint(tmp_path, world_files):
    # earlier versions could store parameters in 32-bit
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path,
                            fast_config(world_files, out, rec_steps=20))
    assert cli.main(["pretrain-rec", "--config", cfg_path]) == 0
    values = ad.load_checkpoint(out / "rec.ckpt")
    ad.save_checkpoint(out / "rec.ckpt",
                       {k: v.astype(np.float32) for k, v in values.items()})
    assert all(v.dtype == np.float32
               for v in ad.load_checkpoint(out / "rec.ckpt").values())
    assert cli.main(["evaluate", "--config", cfg_path]) == 0


def test_evaluate_checkpoint_with_an_unknown_dtype_tag_exits_3(tmp_path,
                                                              world_files):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path,
                            fast_config(world_files, out, rec_steps=20))
    assert cli.main(["pretrain-rec", "--config", cfg_path]) == 0
    blob = bytearray((out / "rec.ckpt").read_bytes())
    (name_len,) = struct.unpack_from("<I", blob, 8)
    blob[12 + name_len] = 7  # the first entry's dtype tag
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    assert cli.main(["evaluate", "--config", cfg_path,
                     "--checkpoint", str(bad)]) == 3


@pytest.mark.parametrize("command, override, truncate", [
    ("evaluate", "d_e=16", False),
    ("pretrain-flm", "d_e=16", False),
    ("evaluate", None, True),
    ("train", None, True),
    # a second R-GCN layer the one-layer checkpoint has no values for
    ("evaluate", "rgcn_layers=2", False),
    ("train", "rgcn_layers=2", False),
])
def test_unloadable_rec_checkpoint_exits_3(tmp_path, world_files, command,
                                           override, truncate):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out, d_e=8,
                                                  rec_steps=20))
    assert cli.main(["pretrain-rec", "--config", cfg_path]) == 0
    if truncate:
        blob = (out / "rec.ckpt").read_bytes()
        (out / "rec.ckpt").write_bytes(blob[:len(blob) // 2])
    argv = [command, "--config", cfg_path]
    if override:
        argv += ["--set", override]
    assert cli.main(argv) == 3


def test_simulate_reuses_saved_simulator(tmp_path, world_files, monkeypatch):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["pretrain-flm", "--config", cfg_path]) == 0

    def no_rebuild(*args, **kwargs):
        raise AssertionError("simulator rebuilt instead of loaded")

    monkeypatch.setattr(pl, "build_simulator", no_rebuild)
    assert cli.main(["simulate", "--config", cfg_path]) == 0
    assert len(cp.load_dialogues_file(out / "simulated.jsonl")) == 5
    # loaded files are inputs of this run, not outputs
    outputs = read_manifest(out)["outputs"]
    assert not set(pl.SIMULATOR_FILES) & set(outputs)


def test_simulate_after_remined_catalog_exits_3(tmp_path, world_files):
    # mine-schemas rewrites the simulator's catalog.json with fewer schemas
    # than the saved classifier was trained on
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["pretrain-flm", "--config", cfg_path]) == 0
    assert cli.main(["mine-schemas", "--config", cfg_path,
                     "--set", "min_support=12"]) == 0
    assert cli.main(["simulate", "--config", cfg_path]) == 3


@pytest.mark.parametrize("name", ["flm.ckpt", "sim_emb.ckpt"])
def test_simulate_with_truncated_simulator_file_exits_3(tmp_path,
                                                        world_files, name):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["pretrain-flm", "--config", cfg_path]) == 0
    blob = (out / name).read_bytes()
    (out / name).write_bytes(blob[:len(blob) // 2])
    assert cli.main(["simulate", "--config", cfg_path]) == 3


def _cut_in_half(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


def _old_clf_of_half_the_width(path):
    # the names of a classifier checkpoint from before it ran on ffn, with
    # the shapes of one for half the config's d_e
    values = ad.load_checkpoint(path)
    half = values["schema_clf.ff1"].shape[0] // 2
    num_schemas = values["schema_clf.ff2_b"].shape[1]
    ad.save_checkpoint(path, {"schema_clf.w1": np.zeros((half, half)),
                              "schema_clf.b1": np.zeros((1, half)),
                              "schema_clf.w2": np.zeros((num_schemas, half)),
                              "schema_clf.b2": np.zeros((1, num_schemas))})


@pytest.mark.parametrize("name, damage, says", [
    ("catalog.json", _cut_in_half, "Unterminated string"),
    ("catalog.json", lambda p: p.write_text('[{"support": 3}]'),
     "catalog.json entry 0 is not an object"),
    ("catalog.json", lambda p: p.write_text('{"x": 1}'),
     "catalog.json is not a list"),
    # the recommender's checkpoint holds no entity_emb table
    ("sim_emb.ckpt",
     lambda p: p.write_bytes((p.parent / "rec.ckpt").read_bytes()),
     "holds no entity_emb table"),
    ("sim_emb.ckpt",
     lambda p: ad.save_checkpoint(p, {"entity_emb": np.zeros(16)}),
     "holds no entity_emb table"),
    ("clf.ckpt", _old_clf_of_half_the_width,
     "clf.ckpt: shape mismatch for 'schema_clf.ff1'"),
], ids=["truncated", "no-types", "not-a-list", "no-entity-emb",
        "1d-entity-emb", "old-clf-misshaped"])
def test_simulate_with_corrupt_simulator_file_exits_3(tmp_path, world_files,
                                                      capsys, name, damage,
                                                      says):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["pretrain-flm", "--config", cfg_path]) == 0
    damage(out / name)
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg_path]) == 3
    # the message carries the error's text, never an exception's repr
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and says in err, err
    assert "Error(" not in err, err


@pytest.fixture(scope="module")
def flm_out(tmp_path_factory, world_files):
    """An output directory after ``pretrain-flm``: a saved simulator."""
    out = tmp_path_factory.mktemp("flm") / "out"
    cfg_path = write_config(out.parent, fast_config(world_files, out))
    assert cli.main(["pretrain-flm", "--config", cfg_path]) == 0
    return out


@pytest.mark.parametrize("damage", [
    lambda e: e.update(types="item"),
    lambda e: e.update(types=["item", 5]),
    lambda e: e.update(support=True),
    lambda e: e.update(support=1.7),
    lambda e: e.update(support="3"),
    lambda e: e.clear(),
], ids=["types-str", "types-int", "support-bool", "support-float",
        "support-str", "empty-object"])
def test_simulate_with_a_malformed_catalog_entry_exits_3(tmp_path,
                                                         world_files,
                                                         flm_out, capsys,
                                                         damage):
    out = tmp_path / "out"
    shutil.copytree(flm_out, out)
    entries = json.loads((out / "catalog.json").read_text())
    assert len(entries) > 1
    damage(entries[1])
    (out / "catalog.json").write_text(json.dumps(entries))
    cfg_path = write_config(tmp_path, fast_config(world_files, out))
    assert cli.main(["simulate", "--config", cfg_path]) == 3
    assert capsys.readouterr().err == (
        'data error: catalog.json entry 1 is not an object with a list of '
        'strings as "types" and an integer "support"\n')
