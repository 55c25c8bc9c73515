"""Counterfactual preference edits, adversarial REINFORCE optimization with
a curriculum schedule, and the random-edit (EDA) baseline augmenter.

Edits add a learned disturbance vector to one interacted-entity embedding per
augmentation; each user pair carries k such instances. The edited entity rows
pool into the simulator's prompt through ``flm.user_prompt``, the encoder
that builds every other simulator prompt. The edit parameters climb the
recommender's loss through the score-function estimator

    theta_E <- theta_E + alpha * (sum_t L(C_t) grad log pi(C_t) - 2 lambda theta_E),

with lambda annealed as rho * delta^course. Within a course the edit phase
never writes recommender parameters and the recommender phase never writes
edit parameters. The trainers read the run's ``config.RunConfig``; a course
fine-tunes the recommender for ``course_rec_steps`` steps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import flm as flmm
from . import pipeline as pl
from . import realization as rz
from . import recommender as rc
from .config import RunConfig

logger = logging.getLogger(__name__)


class PositionOutOfRange(IndexError):
    def __init__(self, position, size):
        super().__init__(f"edit position {position} outside 0..{size - 1}")
        self.position = position


class NonFiniteUpdate(FloatingPointError):
    pass


@dataclass
class CurriculumSchedule:
    rho: float
    delta: float


def curriculum_lambda(schedule, k):
    """Regularization weight for course k: exactly rho * delta**k."""
    if k < 0:
        raise ValueError("course index must be >= 0")
    return schedule.rho * schedule.delta ** k


def select_edit_targets(n_entities, k, rng):
    """min(k, n) distinct positions, uniform without replacement."""
    if k < 1:
        raise ValueError("k must be >= 1")
    take = min(k, n_entities)
    return sorted(int(p) for p in rng.choice(n_entities, size=take,
                                             replace=False))


def apply_edit(entity_matrix, positions, delta):
    """Add delta rows at the given positions; other rows are untouched."""
    entity_matrix = ad.as_tensor(entity_matrix)
    n = entity_matrix.shape[0]
    delta = ad.as_tensor(delta)
    scatter = np.zeros((n, delta.shape[0]))
    for i, pos in enumerate(positions):
        if not (0 <= pos < n):
            raise PositionOutOfRange(pos, n)
        scatter[pos, i] = 1.0
    return entity_matrix + ad.Tensor(scatter) @ delta


@dataclass
class PairEditState:
    """Per-course transient edit parameters for one user pair.

    Instance i edits position positions_u[i] of the seeker and
    positions_v[i] of the recommender, each with its own delta row.
    """

    pair: object
    positions_u: list
    positions_v: list
    store: ad.ParamStore

    @property
    def k(self):
        return len(self.positions_u)

    def edit_norm(self):
        return float(np.sqrt(
            np.sum(self.store["delta_u"].data ** 2)
            + np.sum(self.store["delta_v"].data ** 2)))


def make_edit_state(pair, k_edits, d_e, rng):
    pu = select_edit_targets(len(pair.u_entities), k_edits, rng)
    pv = select_edit_targets(len(pair.v_entities), k_edits, rng)
    k = min(len(pu), len(pv))
    store = ad.ParamStore()
    store.add("delta_u", np.zeros((k, d_e)))
    store.add("delta_v", np.zeros((k, d_e)))
    return PairEditState(pair=pair, positions_u=pu[:k], positions_v=pv[:k],
                         store=store)


def edited_prompts(state, instance, sim):
    """(e_u, e_v) preference tensors for one augmentation instance: each
    side's entity rows, edited by the instance's delta row at its position
    and pooled by ``flm.user_prompt``, with the gradient path flowing back
    into the delta rows."""
    prompts = []
    for ids, positions, name in (
            (state.pair.u_entities, state.positions_u, "delta_u"),
            (state.pair.v_entities, state.positions_v, "delta_v")):
        table = apply_edit(sim.entity_emb[np.asarray(ids, dtype=np.intp)],
                           [positions[instance]],
                           ad.rows(state.store[name], [instance]))
        prompts.append(flmm.user_prompt(sim.flm, range(len(ids)), table))
    return tuple(prompts)


def default_reward_fn(rec_model, kg):
    """Mean recommendation loss over a realized dialogue's samples; dialogues
    with no item recommendation score 0 (and are logged). The recommender's
    table is computed on the first call and reused: keep it frozen."""
    table = None

    def reward(realized):
        nonlocal table
        if table is None:
            with ad.no_grad():
                table = rec_model.entity_embeddings()
        samples = rz.to_rec_samples(realized, kg)
        if not samples:
            logger.info("rollout %s produced no recommendation samples",
                        realized.dialogue.dialogue_id)
            return 0.0
        with ad.no_grad():
            return rc.rec_loss(rec_model, samples, table=table).item()

    return reward


def reinforce_step(state, sim, rec_model, lam, alpha, rollouts, rng,
                   temperature=1.0, reward_fn=None):
    """One score-function ascent step on the pair's disturbance vectors.

    The simulator and recommender are read, never written. Returns the
    rollout statistics including the raw gradient estimate.
    """
    kg = sim.hkg.base
    if reward_fn is None:
        reward_fn = default_reward_fn(rec_model, kg)
    objective = None
    all_rewards = []
    # the simulator is fixed: the tape records, and backward differentiates,
    # only the prompt path to the edit deltas
    with ad.frozen(sim.flm.store, sim.clf_store):
        for i in range(state.k):
            e_u, e_v = edited_prompts(state, i, sim)
            schema = sim.predict_schema(e_u.data, e_v.data)
            flows = flmm.generate_flows_batch(sim.flm, e_u.data, e_v.data,
                                              schema, rng, rollouts,
                                              temperature=temperature)
            rewards = []
            for t, flow in enumerate(flows):
                realized = rz.realize(flow, schema, sim.bank, kg, rng,
                                      dialogue_id=f"rollout-{i}-{t}")
                rewards.append(reward_fn(realized))
            all_rewards.extend(rewards)
            logps = flmm.flow_log_probs_batch(sim.flm, e_u, e_v, schema,
                                              flows)
            term = ad.tensor_sum(logps * ad.Tensor(rewards))
            objective = term if objective is None else objective + term
        grads = ad.backward(objective, state.store)
    for name in ("delta_u", "delta_v"):
        p = state.store[name]
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        updated = p.data + alpha * (g - 2.0 * lam * p.data)
        if not np.all(np.isfinite(updated)):
            raise NonFiniteUpdate(name)
        p.data = updated
    return {"mean_reward": float(np.mean(all_rewards)),
            "edit_norm": state.edit_norm(),
            "gradient": grads}


# -- EDA baseline ops ---------------------------------------------------------

EDA_OP_MIX = (0.25, 0.25, 0.25, 0.25)


def eda_replace(flow, schema, kg, rng):
    pos = int(rng.integers(len(flow)))
    pool = kg.entities_of_type(schema[pos])
    flow = list(flow)
    flow[pos] = pool[int(rng.integers(len(pool)))]
    return flow, tuple(schema)


def eda_insert(flow, schema, kg, rng):
    eid = int(rng.integers(kg.num_entities))
    pos = int(rng.integers(len(flow) + 1))
    flow = list(flow)
    schema = list(schema)
    flow.insert(pos, eid)
    schema.insert(pos, kg.type_name_of(eid))
    return flow, tuple(schema)


def eda_swap(flow, schema, i, j):
    flow = list(flow)
    schema = list(schema)
    flow[i], flow[j] = flow[j], flow[i]
    schema[i], schema[j] = schema[j], schema[i]
    return flow, tuple(schema)


def eda_delete(flow, schema, pos):
    flow = list(flow)
    schema = list(schema)
    del flow[pos]
    del schema[pos]
    return flow, tuple(schema)


def eda_augment(flow, schema, kg, rng):
    """Apply one random edit op, drawn by ``EDA_OP_MIX`` (replace, insert,
    swap, delete); the flow and schema stay aligned."""
    if not flow:
        raise ValueError("flow must be non-empty")
    op = int(rng.choice(4, p=EDA_OP_MIX))
    if op == 0:
        return eda_replace(flow, schema, kg, rng)
    if op == 1:
        return eda_insert(flow, schema, kg, rng)
    if op == 2:
        i, j = (int(rng.integers(len(flow))) for _ in range(2))
        return eda_swap(flow, schema, i, j)
    return eda_delete(flow, schema, int(rng.integers(len(flow))))


# -- training loops -----------------------------------------------------------

def TrainConfig(**fields):
    """A ``RunConfig`` built from the field names of the former training
    config, which called ``course_rec_steps`` ``rec_steps``. The benchmark's
    workloads are its only caller."""
    return RunConfig(**{"course_rec_steps" if k == "rec_steps" else k: v
                        for k, v in fields.items()})


def curriculum_train(rec_model, real_train, val_samples, cfg, course_fn):
    """Shared course loop: ``course_fn(course, lam, rng)`` supplies that
    course's augmented dialogues/samples, then the recommender fine-tunes
    (``recommender.train_steps``) on the simulated + real mix. Early-stops
    on validation Recall at the largest cutoff and restores the best
    checkpoint (``recommender.EarlyStopping``).

    Returns (log entries, all simulated dialogues).
    """
    rng = np.random.default_rng(cfg.seed)
    sched = CurriculumSchedule(cfg.rho, cfg.delta)
    log, simulated = [], []
    stopper = rc.EarlyStopping(rec_model.store, cfg.patience)
    for course in range(cfg.courses):
        lam = curriculum_lambda(sched, course)
        dialogues, sim_samples, stats = course_fn(course, lam, rng)
        simulated.extend(dialogues)
        if sim_samples and cfg.mix_ratio > 0:
            n_real = min(int(round(len(sim_samples) / cfg.mix_ratio)),
                         len(real_train))
            ridx = rng.choice(len(real_train), size=n_real, replace=False)
            pool = list(sim_samples) + [real_train[i] for i in ridx]
        elif sim_samples:
            pool = list(sim_samples)
        else:
            pool = list(real_train)
        rc.train_steps(rec_model, pool, cfg.course_rec_steps, cfg.rec_batch,
                       cfg.rec_lr, rng)
        entry = {"course": course, "lambda": lam,
                 "n_simulated": len(dialogues), **stats}
        if val_samples:
            report = rc.evaluate(rec_model, val_samples)
            for k in rc.KS:
                entry[f"val_recall@{k}"] = report.recall[k]
        log.append(entry)
        if val_samples and stopper.update(report.recall[max(rc.KS)]):
            break
    stopper.restore()
    return log, simulated


def train_augmented(rec_model, sim, pairs, real_train, val_samples, cfg):
    """The adversarial curriculum loop over counterfactual edits.

    Per course: re-initialize edits for a fresh pair sample, run REINFORCE
    steps against the frozen simulator and current recommender, simulate
    dialogues from the edited preferences, then fine-tune the recommender on
    the simulated + real mix.
    """
    if not pairs:
        raise pl.DataError("need at least one user pair")
    d_e = sim.entity_emb.shape[1]

    def course_fn(course, lam, rng):
        rec_before = rec_model.store.checksum()
        reward_fn = default_reward_fn(rec_model, sim.hkg.base)
        dialogues, rewards, norms = [], [], []
        chosen = rng.choice(len(pairs),
                            size=min(cfg.pairs_per_course, len(pairs)),
                            replace=False)
        for pi in chosen:
            pair = pairs[int(pi)]
            state = make_edit_state(pair, cfg.k_edits, d_e, rng)
            stats = None
            for _ in range(cfg.edit_steps):
                stats = reinforce_step(
                    state, sim, rec_model, lam, cfg.alpha, cfg.rollouts, rng,
                    temperature=cfg.temperature, reward_fn=reward_fn)
            rewards.append(stats["mean_reward"])
            norms.append(stats["edit_norm"])
            for j in range(cfg.sims_per_pair):
                with ad.no_grad():
                    e_u, e_v = edited_prompts(state, j % state.k, sim)
                realized = sim.simulate(
                    e_u, e_v, rng,
                    dialogue_id=f"sim-c{course}-p{int(pi)}-{j}",
                    temperature=cfg.temperature,
                    user_pair=(pair.user_u, pair.user_v))
                dialogues.append(realized)
        assert rec_model.store.checksum() == rec_before, \
            "edit phase must not write recommender parameters"
        samples = pl.samples_from_dialogues(dialogues, sim.hkg.base)
        return dialogues, samples, {
            "mean_reward": float(np.mean(rewards)) if rewards else 0.0,
            "edit_norm": float(np.mean(norms)) if norms else 0.0}

    return curriculum_train(rec_model, real_train, val_samples, cfg,
                            course_fn)


def train_eda(rec_model, bank, hkg, flow_pool, real_train, val_samples, cfg):
    """Random-edit augmentation arm: same course loop and mixing, but
    augmented dialogues come from single random edits of real flows."""
    if not flow_pool:
        raise pl.DataError("need at least one real flow to augment")
    kg = hkg.base

    def course_fn(course, lam, rng):
        dialogues = []
        count = cfg.pairs_per_course * cfg.sims_per_pair
        for j in range(count):
            ex = flow_pool[int(rng.integers(len(flow_pool)))]
            flow, schema = eda_augment(ex.entities, ex.schema, kg, rng)
            if not flow:
                continue
            dialogues.append(rz.realize(flow, schema, bank, kg, rng,
                                        dialogue_id=f"eda-c{course}-{j}"))
        samples = pl.samples_from_dialogues(dialogues, kg)
        return dialogues, samples, {}

    return curriculum_train(rec_model, real_train, val_samples, cfg,
                            course_fn)


def train_baseline(rec_model, real_train, val_samples, cfg):
    """No-augmentation arm: identical course loop on real data only."""

    def course_fn(course, lam, rng):
        return [], [], {}

    return curriculum_train(rec_model, real_train, val_samples, cfg,
                            course_fn)
