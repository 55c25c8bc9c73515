"""Entity representations over the heterogeneous graph and the attentive
user-preference encoder.

The relational graph encoder is an R-GCN (Schlichtkrull et al., 2018) in
its basis-decomposition formulation: per layer, node n receives mean-normalized messages per relation plus a
self-connection,

    h'_n = tanh( sum_r sum_{m in N_r(n)} (1/c_{n,r}) W_r h_m + W_self h_n ),

with W_r = sum_b a_{r,b} V_b. A layer aggregates, then transforms: one
segment sum (``HeterogeneousKG.rgcn_plan``) lays each node's R mean neighbor
vectors side by side in an (n, R*d) matrix, and one matmul with the stacked
weight [W_0; ...; W_{R-1}] of shape (R*d, d) applies every relation. A
relation under which a node has no neighbors adds a zero block. The whole
layer is one tape node (``autodiff.rgcn_layer``).

``rgcn_forward`` computes either the whole table or only the rows asked
for. A recommender training step asks for the item rows and its batch's
context rows: each layer computes only the rows that the layer above reads
(those within the remaining in-hops), from sub-plans cut out of the graph's
plan without sorting. The values and gradients are those of the full
table; the segment sums add the same terms in the same order, and only the
BLAS reductions over fewer rows may round differently. Evaluation, the
simulator's frozen table and the REINFORCE reward table use the whole
table.

User preference is the attention-weighted combination of the user's
interacted-entity embeddings (the KBRD user encoder),

    alpha = softmax(b^T tanh(W_a E_u^T)),   e_u = E_u^T alpha,

and ``autodiff.attention_pool`` is its only implementation: it pools a
batch of ragged id lists as one padded, masked block (an empty list pools
to zero). ``IdLists`` packs such lists as arrays once and pads any subset
of them with a few numpy operations. The recommender pools its packed
dialogue contexts directly (``RecModel.item_logits``); ``pool_entities``
pools lists or an ``IdLists`` for flow-LM pre-training and, through
``flm.user_prompts`` and ``flm.user_prompt``, for the schema classifier's
training pairs, ``SimulatorBundle.prompt`` and the counterfactual edits
(``counterfactual.edited_prompts``).
"""

from __future__ import annotations

import itertools

import numpy as np

from . import autodiff as ad


def init_rgcn_params(store, hkg, d_e, rng, num_layers=1, num_bases=8,
                     prefix="rgcn"):
    """Register the node table and per-layer relational weights."""
    num_rel = len(hkg.rgcn_relations())
    if num_bases > num_rel:
        raise ValueError(f"num_bases {num_bases} exceeds relation count {num_rel}")
    store.add(f"{prefix}.node_emb",
              ad.xavier_uniform((hkg.num_nodes, d_e), rng))
    for layer in range(num_layers):
        store.add(f"{prefix}.l{layer}.bases",
                  ad.xavier_uniform((num_bases, d_e, d_e), rng))
        store.add(f"{prefix}.l{layer}.coeffs",
                  ad.xavier_uniform((num_rel, num_bases), rng))
        store.add(f"{prefix}.l{layer}.w_self",
                  ad.xavier_uniform((d_e, d_e), rng))
    return store


def rgcn_forward(hkg, store, num_layers=1, prefix="rgcn", rows=None):
    """Return the R-GCN embeddings of the node ids ``rows``, which must be
    strictly increasing, or the (num_nodes, d_e) table when ``rows`` is
    None.

    Differentiable w.r.t. the node table and all layer weights in ``store``.
    A row set computes only the rows it needs, layer by layer
    (``HeterogeneousKG.rgcn_layer_plans``).
    """
    h = store[f"{prefix}.node_emb"]
    if rows is None:
        layers = [(hkg.rgcn_plan(), None)] * num_layers
    else:
        rows = np.asarray(rows, dtype=np.intp)
        if not (rows[1:] > rows[:-1]).all():
            raise ValueError("rows must be strictly increasing node ids")
        layers = hkg.rgcn_layer_plans(rows, num_layers)
        if not layers:
            h = ad.rows(h, rows)
    for layer, (plan, keep) in enumerate(layers):
        h = ad.rgcn_layer(h, plan, keep,
                          *(store[f"{prefix}.l{layer}.{w}"]
                            for w in ("bases", "coeffs", "w_self")))
    return h


def init_attention_params(store, d_e, rng, prefix="attn"):
    store.add(f"{prefix}.w", ad.xavier_uniform((d_e, d_e), rng))
    store.add(f"{prefix}.b", ad.xavier_uniform((d_e, 1), rng))
    return store


class IdLists:
    """Ragged id lists packed as arrays: list i is
    ``ids[starts[i]:starts[i] + lens[i]]``."""

    __slots__ = ("ids", "lens", "starts")

    def __init__(self, ids, lens, starts=None):
        self.ids, self.lens = ids, lens
        self.starts = np.cumsum(lens) - lens if starts is None else starts

    @classmethod
    def pack(cls, id_lists):
        lens = np.array([len(c) for c in id_lists], dtype=np.intp)
        return cls(np.fromiter(itertools.chain.from_iterable(id_lists),
                               np.intp, int(lens.sum())), lens)

    def __len__(self):
        return len(self.lens)

    def take(self, idx):
        """The lists at positions ``idx`` (repeats allowed), in that order."""
        lens = self.lens[idx]
        starts = np.cumsum(lens) - lens
        at = np.arange(int(lens.sum())) + np.repeat(self.starts[idx] - starts,
                                                    lens)
        return IdLists(self.ids[at], lens, starts)

    def padded(self, ids=None):
        """The (len, max(max(lens), 1)) matrix whose row i holds list i
        (or the same positions of ``ids``, an array shaped like
        ``self.ids``), then zeros."""
        real = (np.arange(max(int(self.lens.max(initial=0)), 1))
                < self.lens[:, None])
        out = np.zeros(real.shape, dtype=np.intp)
        out[real] = self.ids if ids is None else ids
        return out


def pool_entities(table, id_lists, w_attn, b_attn):
    """Attention-pool the rows of ``table`` (a Tensor, or a frozen ndarray)
    named by each id list into (B, d_e), as one padded block
    (``autodiff.attention_pool``); an empty list gives a zero row.
    ``id_lists`` is a list of id lists or an ``IdLists``."""
    if not isinstance(id_lists, IdLists):
        id_lists = IdLists.pack(id_lists)
    return ad.attention_pool(table, id_lists.padded(), id_lists.lens, w_attn,
                             b_attn)
