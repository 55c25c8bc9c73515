import dataclasses

import numpy as np
import pytest

from recflow import autodiff as ad
from recflow import flm as flmm
from recflow import pipeline as pl


def test_saved_simulator_reloads_bit_for_bit(mini, tmp_path):
    def path(name):
        return str(tmp_path / name)

    pl.save_simulator(mini.sim, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        pl.SIMULATOR_FILES)
    loaded = pl.load_simulator(mini.hkg, mini.world.train, path,
                               mini.sim_cfg)
    assert loaded.catalog.schemas == mini.sim.catalog.schemas
    assert loaded.flm.cfg == mini.sim.flm.cfg
    for pair in mini.pairs[:4]:
        outs = []
        for sim in (mini.sim, loaded):
            e_u, e_v = sim.prompt(pair.u_entities), sim.prompt(pair.v_entities)
            rng = np.random.default_rng(17)
            out = sim.simulate(e_u, e_v, rng, user_pair=(pair.user_u,
                                                         pair.user_v))
            outs.append((e_u.data.tobytes(), e_v.data.tobytes(),
                         out.schema, out.flow_entities,
                         out.dialogue.to_record()))
        assert outs[0] == outs[1]


def test_failed_catalog_write_keeps_earlier_catalog(mini, tmp_path):
    def path(name):
        return str(tmp_path / name)

    pl.save_simulator(mini.sim, path)
    before = (tmp_path / "catalog.json").read_bytes()

    class Unwritable:
        def to_json(self):
            return "[\ud800]"

    broken = dataclasses.replace(mini.sim, catalog=Unwritable())
    with pytest.raises(UnicodeEncodeError):
        pl.save_simulator(broken, path)
    assert (tmp_path / "catalog.json").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        pl.SIMULATOR_FILES)


def test_build_simulator_records_no_tape_for_classifier_prompts(mini,
                                                                monkeypatch):
    real_user_prompt = flmm.user_prompt
    returned = []

    def recording(*args, **kwargs):
        out = real_user_prompt(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(flmm, "user_prompt", recording)
    cfg = dataclasses.replace(mini.sim_cfg, pseudo_ratio=0, flm_epochs=1,
                              clf_steps=1)
    pl.build_simulator(mini.hkg, mini.world.train,
                       mini.fresh_rec().entity_embeddings_array(), cfg)
    assert returned
    assert all(isinstance(t, ad.Tensor) for t in returned)
    assert not any(t.requires_grad for t in returned)


def test_simulator_prompt_is_untaped_and_equals_the_taped_prompt(mini):
    for pair in mini.pairs[:4]:
        for ids in (pair.u_entities, pair.v_entities):
            prompt = mini.sim.prompt(ids)
            taped = flmm.user_prompt(mini.sim.flm, ids, mini.sim.entity_emb)
            assert prompt._parents == () and not prompt.requires_grad
            assert prompt.data.tobytes() == taped.data.tobytes()
