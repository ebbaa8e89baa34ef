"""A complete GPT-style autoregressive transformer in NumPy.

This is the language-model substrate for the reproduction: pre-LN decoder
blocks (GPT-2 architecture — learned positions, GELU MLP, tied LM head)
with

* full-sequence training forward/backward (handwritten backprop, used by
  :mod:`repro.model.trainer`),
* KV-cached incremental decoding (the generation phase the paper targets),
* a **pluggable attention backend** for the generation-phase evaluation:
  every attention instance (query against the cached K/V) can be routed
  through exact attention, Token-Picker pruned attention, or any baseline
  implementing :class:`AttentionBackend`.

Weights are float64; shapes come from :class:`repro.model.config.ModelConfig`
(tiny configurations — the full-scale zoo entries are analytic only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.model.config import ModelConfig
from repro.model.layers import (
    cross_entropy_backward,
    cross_entropy_forward,
    gelu_backward,
    gelu_forward,
    init_layernorm,
    init_linear,
    layernorm_backward,
    layernorm_forward,
    linear_backward,
    linear_forward,
    softmax_backward,
    softmax_forward,
)
from repro.utils.rng import make_rng

#: An attention backend maps one generation-phase attention instance
#: ``(layer_index, q (H, dh), keys (H, t, dh), values (H, t, dh),
#: bias (H, t) or None)`` to the per-head context vectors ``(H, dh)``.
#: ``bias`` is a *known* additive score term (ALiBi distance bias); it
#: travels with the query, never from DRAM, so pruning estimators fold it
#: into their score bounds directly.  Backends may record statistics on
#: themselves (see repro.model.attention).
AttentionBackend = Callable[
    [int, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]], np.ndarray
]


def alibi_slopes(n_heads: int) -> np.ndarray:
    """Per-head ALiBi slopes ``2^(-8(h+1)/H)`` (Press et al., 2022)."""
    if n_heads < 1:
        raise ValueError("n_heads must be >= 1")
    return np.array([2.0 ** (-8.0 * (h + 1) / n_heads) for h in range(n_heads)])


@dataclass
class KVCache:
    """Per-layer cached key/value tensors for incremental decoding.

    Layout: ``keys[layer]`` is (H, t, dh).  Appending is O(t) amortised via
    over-allocation; `view()` returns the live slice.
    """

    n_layers: int
    n_heads: int
    head_dim: int
    capacity: int

    def __post_init__(self) -> None:
        self._k = np.zeros((self.n_layers, self.n_heads, self.capacity, self.head_dim))
        self._v = np.zeros_like(self._k)
        self.length = 0

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append one position's per-head K/V at the current length."""
        if self.length >= self.capacity:
            raise ValueError("KV cache capacity exceeded")
        self._k[layer, :, self.length] = k
        self._v[layer, :, self.length] = v

    def advance(self) -> None:
        """Commit the position appended to every layer."""
        self.length += 1

    def keys(self, layer: int, length: Optional[int] = None) -> np.ndarray:
        """Live K slice (H, length, dh); default is the committed length."""
        n = self.length if length is None else length
        return self._k[layer, :, :n]

    def values(self, layer: int, length: Optional[int] = None) -> np.ndarray:
        """Live V slice (H, length, dh); default is the committed length."""
        n = self.length if length is None else length
        return self._v[layer, :, :n]


class TinyGPT:
    """GPT-2-architecture LM with handwritten backprop and KV caching."""

    def __init__(self, config: ModelConfig, seed: int = 0) -> None:
        if config.max_context < 2:
            raise ValueError("max_context must be >= 2")
        self.config = config
        rng = make_rng(seed)
        d, v, c = config.d_model, config.vocab_size, config.max_context
        f = config.ffn_hidden
        p: Dict[str, np.ndarray] = {}
        p["wte"] = rng.normal(0.0, 0.02, size=(v, d))
        if config.position_scheme == "learned":
            p["wpe"] = rng.normal(0.0, 0.01, size=(c, d))
        self.alibi = (
            alibi_slopes(config.n_heads)
            if config.position_scheme == "alibi"
            else None
        )
        # residual-branch projections scaled down with depth (GPT-2 trick)
        resid_scale = 0.02 / math.sqrt(2 * config.n_layers)
        for i in range(config.n_layers):
            p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"] = init_layernorm(d)
            p[f"l{i}.attn.wqkv"], p[f"l{i}.attn.bqkv"] = init_linear(rng, d, 3 * d)
            p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"] = init_linear(
                rng, d, d, scale=resid_scale
            )
            p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"] = init_layernorm(d)
            p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"] = init_linear(rng, d, f)
            p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"] = init_linear(
                rng, f, d, scale=resid_scale
            )
        p["lnf.g"], p["lnf.b"] = init_layernorm(d)
        self.params = p

    # --- helpers ----------------------------------------------------------------

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(..., T, d) -> (..., H, T, dh)."""
        h, dh = self.config.n_heads, self.config.head_dim
        return x.reshape(x.shape[:-1] + (h, dh)).swapaxes(-3, -2)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(..., H, T, dh) -> (..., T, d)."""
        x = x.swapaxes(-3, -2)
        return x.reshape(x.shape[:-2] + (self.config.d_model,))

    def _check_tokens(self, tokens: np.ndarray) -> np.ndarray:
        tokens = np.asarray(tokens)
        if tokens.min(initial=0) < 0 or tokens.max(initial=0) >= self.config.vocab_size:
            raise ValueError("token id out of range")
        return tokens

    # --- training forward/backward ---------------------------------------------
    def forward(self, tokens: np.ndarray) -> Tuple[np.ndarray, list]:
        """Full teacher-forced forward over (B, T) tokens.

        Returns ``(logits (B, T, V), cache)`` where the cache carries every
        intermediate needed by :meth:`backward`.
        """
        tokens = self._check_tokens(tokens)
        if tokens.ndim != 2:
            raise ValueError(f"tokens must be (B, T), got {tokens.shape}")
        b, t = tokens.shape
        if t > self.config.max_context:
            raise ValueError(f"sequence length {t} exceeds context {self.config.max_context}")
        p = self.params
        dh = self.config.head_dim
        x = p["wte"][tokens]
        if self.alibi is None:
            x = x + p["wpe"][:t]
        mask = np.triu(np.full((t, t), -np.inf), k=1)
        if self.alibi is not None:
            dist = np.arange(t)[:, None] - np.arange(t)[None, :]  # (T, T)
            mask = mask[None, :, :] - self.alibi[:, None, None] * np.maximum(dist, 0)

        layer_caches = []
        for i in range(self.config.n_layers):
            a, ln1_cache = layernorm_forward(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
            qkv, qkv_cache = linear_forward(a, p[f"l{i}.attn.wqkv"], p[f"l{i}.attn.bqkv"])
            q, k, v = np.split(qkv, 3, axis=-1)
            q, k, v = self._split_heads(q), self._split_heads(k), self._split_heads(v)
            scores = q @ k.swapaxes(-1, -2) / math.sqrt(dh) + mask
            probs, probs_cache = softmax_forward(scores)
            ctx = probs @ v
            merged = self._merge_heads(ctx)
            attn_out, wo_cache = linear_forward(merged, p[f"l{i}.attn.wo"], p[f"l{i}.attn.bo"])
            x = x + attn_out

            f_in, ln2_cache = layernorm_forward(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
            h1, w1_cache = linear_forward(f_in, p[f"l{i}.ffn.w1"], p[f"l{i}.ffn.b1"])
            g, gelu_cache = gelu_forward(h1)
            h2, w2_cache = linear_forward(g, p[f"l{i}.ffn.w2"], p[f"l{i}.ffn.b2"])
            x = x + h2
            layer_caches.append(
                (ln1_cache, qkv_cache, q, k, v, probs_cache, wo_cache,
                 ln2_cache, w1_cache, gelu_cache, w2_cache)
            )

        h_final, lnf_cache = layernorm_forward(x, p["lnf.g"], p["lnf.b"])
        logits = h_final @ p["wte"].T
        cache = [tokens, layer_caches, lnf_cache, h_final]
        return logits, cache

    def loss(self, tokens: np.ndarray) -> float:
        """Mean next-token NLL of a (B, T) batch (targets are shifts)."""
        logits, _ = self.forward(tokens)
        loss, _ = cross_entropy_forward(logits[:, :-1], np.asarray(tokens)[:, 1:])
        return loss

    def loss_and_grads(self, tokens: np.ndarray):
        """Training objective and exact gradients for every parameter."""
        tokens = np.asarray(tokens)
        logits, cache = self.forward(tokens)
        loss, ce_cache = cross_entropy_forward(logits[:, :-1], tokens[:, 1:])
        dlogits_shift = cross_entropy_backward(ce_cache)
        dlogits = np.zeros_like(logits)
        dlogits[:, :-1] = dlogits_shift
        grads = self.backward(dlogits, cache)
        return loss, grads

    def backward(self, dlogits: np.ndarray, cache) -> Dict[str, np.ndarray]:
        """Backpropagate ``dlogits`` through the whole network."""
        tokens, layer_caches, lnf_cache, h_final = cache
        p = self.params
        dh_dim = self.config.head_dim
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}

        flat_h = h_final.reshape(-1, h_final.shape[-1])
        flat_dlogits = dlogits.reshape(-1, dlogits.shape[-1])
        grads["wte"] += flat_dlogits.T @ flat_h  # tied head
        dhf = dlogits @ p["wte"]
        dx, dg, db = layernorm_backward(dhf, lnf_cache)
        grads["lnf.g"] += dg
        grads["lnf.b"] += db

        for i in reversed(range(self.config.n_layers)):
            (ln1_cache, qkv_cache, q, k, v, probs, wo_cache,
             ln2_cache, w1_cache, gelu_cache, w2_cache) = layer_caches[i]

            # FFN branch
            dh2 = dx
            dg_ffn, dw2, db2 = linear_backward(dh2, w2_cache)
            grads[f"l{i}.ffn.w2"] += dw2
            grads[f"l{i}.ffn.b2"] += db2
            dh1 = gelu_backward(dg_ffn, gelu_cache)
            df_in, dw1, db1 = linear_backward(dh1, w1_cache)
            grads[f"l{i}.ffn.w1"] += dw1
            grads[f"l{i}.ffn.b1"] += db1
            dx_ln2, dg2, db2_ln = layernorm_backward(df_in, ln2_cache)
            grads[f"l{i}.ln2.g"] += dg2
            grads[f"l{i}.ln2.b"] += db2_ln
            dx = dx + dx_ln2

            # attention branch
            dattn_out = dx
            dmerged, dwo, dbo = linear_backward(dattn_out, wo_cache)
            grads[f"l{i}.attn.wo"] += dwo
            grads[f"l{i}.attn.bo"] += dbo
            dctx = self._split_heads(dmerged)
            dprobs = dctx @ v.swapaxes(-1, -2)
            dv = probs.swapaxes(-1, -2) @ dctx
            dscores = softmax_backward(dprobs, probs)
            dq = dscores @ k / math.sqrt(dh_dim)
            dk = dscores.swapaxes(-1, -2) @ q / math.sqrt(dh_dim)
            dqkv = np.concatenate(
                [self._merge_heads(dq), self._merge_heads(dk), self._merge_heads(dv)],
                axis=-1,
            )
            da, dwqkv, dbqkv = linear_backward(dqkv, qkv_cache)
            grads[f"l{i}.attn.wqkv"] += dwqkv
            grads[f"l{i}.attn.bqkv"] += dbqkv
            dx_ln1, dg1, db1_ln = layernorm_backward(da, ln1_cache)
            grads[f"l{i}.ln1.g"] += dg1
            grads[f"l{i}.ln1.b"] += db1_ln
            dx = dx + dx_ln1

        # embeddings
        b, t = tokens.shape
        np.add.at(grads["wte"], tokens.reshape(-1), dx.reshape(-1, dx.shape[-1]))
        if "wpe" in grads:
            grads["wpe"][:t] += dx.sum(axis=0)
        return grads

    # --- generation-phase execution ----------------------------------------------
    def exact_backend(
        self,
        layer: int,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        bias: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Reference attention backend: exact softmax per head."""
        dh = self.config.head_dim
        scores = np.einsum("htd,hd->ht", keys, q) / math.sqrt(dh)
        if bias is not None:
            scores = scores + bias
        m = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - m)
        probs = e / e.sum(axis=1, keepdims=True)
        return np.einsum("ht,htd->hd", probs, values)

    def position_bias(self, pos: int) -> Optional[np.ndarray]:
        """Known additive score bias for a query at ``pos`` (ALiBi), or None."""
        if self.alibi is None:
            return None
        dist = pos - np.arange(pos + 1)
        return -self.alibi[:, None] * dist[None, :]

    def decode_step(
        self,
        token: int,
        cache: KVCache,
        backend: Optional[AttentionBackend] = None,
    ) -> np.ndarray:
        """Process one token through the network using cached K/V.

        Appends this position's K/V to the cache and returns the logits for
        the *next* token.  ``backend`` defaults to exact attention; pruned
        backends see exactly the (q, K, V) instance the hardware would.
        """
        if cache.length >= self.config.max_context:
            raise ValueError("context length exceeded")
        backend = backend or self.exact_backend
        p = self.params
        pos = cache.length
        x = p["wte"][int(token)].copy()  # (d,)
        if self.alibi is None:
            x = x + p["wpe"][pos]
        bias = self.position_bias(pos)

        for i in range(self.config.n_layers):
            a, _ = layernorm_forward(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
            qkv = a @ p[f"l{i}.attn.wqkv"] + p[f"l{i}.attn.bqkv"]
            q, k, v = np.split(qkv, 3)
            h, dh = self.config.n_heads, self.config.head_dim
            q = q.reshape(h, dh)
            cache.append(i, k.reshape(h, dh), v.reshape(h, dh))
            keys = cache.keys(i, pos + 1)
            values = cache.values(i, pos + 1)
            ctx = backend(i, q, keys, values, bias)  # (h, dh)
            x = x + ctx.reshape(-1) @ p[f"l{i}.attn.wo"] + p[f"l{i}.attn.bo"]

            f_in, _ = layernorm_forward(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
            g, _ = gelu_forward(f_in @ p[f"l{i}.ffn.w1"] + p[f"l{i}.ffn.b1"])
            x = x + g @ p[f"l{i}.ffn.w2"] + p[f"l{i}.ffn.b2"]

        cache.advance()
        h_final, _ = layernorm_forward(x, p["lnf.g"], p["lnf.b"])
        return h_final @ p["wte"].T

    def new_cache(self, capacity: Optional[int] = None) -> KVCache:
        return KVCache(
            n_layers=self.config.n_layers,
            n_heads=self.config.n_heads,
            head_dim=self.config.head_dim,
            capacity=capacity or self.config.max_context,
        )

    def sequence_logits(
        self,
        tokens: np.ndarray,
        backend: Optional[AttentionBackend] = None,
    ) -> np.ndarray:
        """Teacher-forced logits of a 1-D sequence via incremental decoding.

        Every position runs through :meth:`decode_step`, so the attention
        backend (pruned or exact) shapes all downstream activations exactly
        as it would during real generation.  With the default backend this
        matches :meth:`forward` (tested).
        """
        tokens = np.asarray(tokens)
        if tokens.ndim != 1:
            raise ValueError("sequence_logits expects a 1-D token array")
        cache = self.new_cache(len(tokens))
        out = np.empty((len(tokens), self.config.vocab_size))
        for pos, token in enumerate(tokens):
            out[pos] = self.decode_step(int(token), cache, backend)
        return out

    def generate(
        self,
        prompt: np.ndarray,
        n_new: int,
        backend: Optional[AttentionBackend] = None,
        temperature: float = 0.0,
        seed: int = 0,
    ) -> np.ndarray:
        """Autoregressive generation (greedy by default).

        The prompt phase uses exact attention (as in the paper — pruning
        applies to the generation phase); ``backend`` takes over for the
        generated positions.
        """
        prompt = np.asarray(prompt)
        if prompt.ndim != 1 or len(prompt) == 0:
            raise ValueError("prompt must be a non-empty 1-D token array")
        total = len(prompt) + n_new
        if total > self.config.max_context:
            raise ValueError("prompt + n_new exceeds max context")
        rng = make_rng(seed)
        cache = self.new_cache(total)
        logits = None
        for token in prompt:
            logits = self.decode_step(int(token), cache)  # prompt: exact
        out = list(prompt)
        for _ in range(n_new):
            if temperature <= 0.0:
                nxt = int(np.argmax(logits))
            else:
                z = logits / temperature
                z = z - z.max()
                probs = np.exp(z) / np.exp(z).sum()
                nxt = int(rng.choice(self.config.vocab_size, p=probs))
            out.append(nxt)
            if len(out) < total:
                logits = self.decode_step(nxt, cache, backend)
        return np.asarray(out)
