"""Two-tier KV token store layered over the packed arena.

The serving engine's :class:`~repro.serving.kv_pool.KVCachePool` is the
**hot tier** — the fast DRAM the accelerator streams during decode.
:class:`TieredKVStore` adds a byte-exact **cold tier** beneath it plus
explicit promote/demote token movement, all charged to a
:class:`~repro.hw.dram.TieredDRAMModel` ledger:

* A **demoted** token's exact encoded bytes (frozen-scale chunk digits +
  quantize-dequantized V row) move to a cold extent; only its
  **estimator sketch** — the first ``sketch_chunks`` MSB chunk digits the
  breadth schedule's early rounds read — remains functionally reachable,
  modelled as streamed from the slow tier.  Its remaining chunk digits
  and its V row are zeroed in the arena: the kernel cannot read them.
* Bit-exactness is structural, not statistical: breadth-round ``b``
  decisions depend only on the first ``b`` chunk digits (exact for every
  token, demoted or not — a pruned token's frozen denominator
  contribution is the bound it died with), so a demoted token the kernel
  prunes within the sketch rounds is pruned with exactly the untiered
  bits.  A demoted token that *outlives* its sketch is **promoted on
  demand** — its exact bytes restored from the cold tier — and the
  engine re-runs the kernel for that sequence, which then computes on
  exact data end to end.  Outputs are therefore bit-identical to the
  untiered engine (property tested).
* Demotion is driven by :mod:`repro.kvstore.policy` — certified
  per-token retained-probability-mass by default, with LRU and recency
  baselines — plus a fast-tier residency budget the store enforces by
  demoting the lowest-ranked eligible tokens.

Preemption composes with the tiers: a swapped-out victim's already-
demoted rows are *already in the cold tier*, so the swap only moves the
hot remainder (:meth:`TieredKVStore.on_swap_out`) — the cheaper the
sequence's retained mass says it is, the less it costs to evict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import QuantConfig
from repro.hw.dram import TieredDRAMModel
from repro.kvstore.policy import (
    DemotionPolicy,
    TokenTierView,
    make_demotion_policy,
)
from repro.obs.trace import NULL_TRACER
from repro.serving.kv_pool import KVCachePool, SwappedSequence


@dataclass(frozen=True)
class TierConfig:
    """Tiering policy knobs the serving engine threads through.

    ``hot_budget_tokens``: fast-tier residency target in token rows
    (0 = unbounded; the policy's unconditional rule still applies).
    ``hot_tail``: trailing positions never demoted — must cover the
    pruning config's ``prompt_guard`` (guarded tokens always survive, so
    demoting them would thrash promote/demote every step).
    ``mass_decay``: EMA decay of the per-token retained-mass signal.
    """

    policy: str = "mass"
    hot_budget_tokens: int = 0
    hot_tail: int = 16
    mass_threshold: float = 1e-3
    mass_decay: float = 0.8
    min_seen: int = 2
    #: steps a token must go *without outliving the sketch* before it is
    #: demotable — the anti-thrash gate: a token whose sketch bounds are
    #: not tight enough to prune it would be promoted right back
    survive_idle_steps: int = 2
    #: MSB chunk digits a demoted token keeps reachable (its estimator
    #: sketch).  None = all but the last chunk — the paper's mean K fetch
    #: is ~2 of 3 chunks (K reduction 1.45x), so the last chunk plus the
    #: whole V row is exactly the payload a low-mass token rarely needs.
    sketch_chunks: Optional[int] = None
    lru_idle_steps: int = 8
    recency_window: int = 64

    def __post_init__(self) -> None:
        if self.hot_budget_tokens < 0:
            raise ValueError("hot_budget_tokens must be >= 0")
        if self.hot_tail < 1:
            raise ValueError("hot_tail must be >= 1")
        if self.survive_idle_steps < 1:
            raise ValueError("survive_idle_steps must be >= 1")
        if not 0.0 <= self.mass_decay < 1.0:
            raise ValueError("mass_decay must be in [0, 1)")
        if self.sketch_chunks is not None and self.sketch_chunks < 1:
            raise ValueError("sketch_chunks must be >= 1 (round 1 always runs)")

    def make_policy(self) -> DemotionPolicy:
        return make_demotion_policy(
            self.policy,
            mass_threshold=self.mass_threshold,
            min_seen=self.min_seen,
            lru_idle_steps=self.lru_idle_steps,
            recency_window=self.recency_window,
        )


class _SeqTierState:
    """Per-sequence tier map + policy signals + cold row storage."""

    __slots__ = (
        "length", "demoted", "cold_have", "mass", "last_kept",
        "last_survived", "seen", "cold_k", "cold_v", "swapped_out",
    )

    def __init__(self) -> None:
        self.length = 0
        self.demoted = np.zeros(0, dtype=bool)
        self.cold_have = np.zeros(0, dtype=bool)
        self.mass = np.zeros(0)
        self.last_kept = np.zeros(0, dtype=np.int64)
        self.last_survived = np.zeros(0, dtype=np.int64)
        self.seen = np.zeros(0, dtype=np.int64)
        self.cold_k: Optional[np.ndarray] = None
        self.cold_v: Optional[np.ndarray] = None
        self.swapped_out = False

    def grow(self, n: int, step: int) -> None:
        new_len = self.length + n
        if new_len > self.demoted.shape[0]:
            cap = max(new_len, 2 * self.demoted.shape[0], 16)

            def widen(arr, fill, dtype):
                out = np.full(cap, fill, dtype=dtype)
                out[: self.length] = arr[: self.length]
                return out

            self.demoted = widen(self.demoted, False, bool)
            self.cold_have = widen(self.cold_have, False, bool)
            self.mass = widen(self.mass, 1.0, np.float64)
            self.last_kept = widen(self.last_kept, step, np.int64)
            self.last_survived = widen(self.last_survived, step, np.int64)
            self.seen = widen(self.seen, 0, np.int64)
        sl = slice(self.length, new_len)
        self.demoted[sl] = False
        self.cold_have[sl] = False
        self.mass[sl] = 1.0
        self.last_kept[sl] = step
        self.last_survived[sl] = step
        self.seen[sl] = 0
        self.length = new_len

    def ensure_cold(self, k_heads: int, n_heads: int, head_dim: int, k_dtype):
        need = self.length
        if self.cold_k is None or self.cold_k.shape[0] < need:
            cap = max(need, 16, 0 if self.cold_k is None else 2 * self.cold_k.shape[0])
            cold_k = np.zeros((cap, k_heads, head_dim), dtype=k_dtype)
            cold_v = np.zeros((cap, n_heads, head_dim))
            if self.cold_k is not None:
                cold_k[: self.cold_k.shape[0]] = self.cold_k
                cold_v[: self.cold_v.shape[0]] = self.cold_v
            self.cold_k, self.cold_v = cold_k, cold_v


class TieredKVStore:
    """Hot/cold token tiers over one :class:`KVCachePool` arena."""

    def __init__(
        self,
        pool: KVCachePool,
        quant: QuantConfig,
        config: Optional[TierConfig] = None,
        dram: Optional[TieredDRAMModel] = None,
        prompt_guard: int = 0,
        tracer=None,
        trace_label: str = "engine",
    ) -> None:
        self.pool = pool
        self.quant = quant
        self.config = config or TierConfig()
        if self.config.hot_tail < prompt_guard:
            raise ValueError(
                f"hot_tail ({self.config.hot_tail}) must cover prompt_guard "
                f"({prompt_guard}): guarded tokens always survive round 1"
            )
        self.dram = dram if dram is not None else TieredDRAMModel()
        self.sketch_chunks = (
            self.config.sketch_chunks
            if self.config.sketch_chunks is not None
            else max(quant.n_chunks - 1, 1)
        )
        if self.sketch_chunks > quant.n_chunks:
            raise ValueError(
                f"sketch_chunks ({self.sketch_chunks}) cannot exceed "
                f"n_chunks ({quant.n_chunks})"
            )
        self.policy = self.config.make_policy()
        # tier movement marks land on the owning engine's trace track
        # (falsy NULL_TRACER when the engine is untraced or none given)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_label = trace_label
        self._seqs: Dict[int, _SeqTierState] = {}
        # movement accounting
        self.demotions_total = 0
        self.promotions_total = 0
        self.rerun_steps_total = 0
        self.swap_rows_skipped_total = 0  # already-cold rows a swap avoided

    # ------------------------------------------------------------ byte model
    @property
    def _n_heads(self) -> int:
        return self.pool.n_heads

    @property
    def k_row_bits(self) -> int:
        """Modelled bits of one token's packed K row (all chunks)."""
        return self._n_heads * self.pool.head_dim * self.quant.total_bits

    @property
    def sketch_row_bits(self) -> int:
        """Bits of one token's estimator sketch (first MSB chunk digits)."""
        return (
            self._n_heads * self.pool.head_dim
            * self.quant.chunk_bits * self.sketch_chunks
        )

    @property
    def v_row_bits(self) -> int:
        return self._n_heads * self.pool.head_dim * self.quant.total_bits

    @property
    def row_bits(self) -> int:
        """Modelled bits of one resident token (K digits + V)."""
        return self.k_row_bits + self.v_row_bits

    @property
    def raw_row_bits(self) -> int:
        """Wire bits of one raw prompt token (K + V in transport format)."""
        return self.row_bits

    @staticmethod
    def _bytes(bits: int) -> int:
        return -(-int(bits) // 8)

    # -------------------------------------------------------------- lifecycle
    def register(self, seq_id: int) -> None:
        if seq_id in self._seqs:
            raise ValueError(f"sequence {seq_id} already tiered")
        self._seqs[seq_id] = _SeqTierState()

    def free(self, seq_id: int) -> None:
        self._seqs.pop(seq_id, None)

    def note_append(self, seq_id: int, n: int, step: int) -> None:
        """New tokens enter hot: extend the tier map and charge the
        fast-tier encode write."""
        state = self._state(seq_id)
        state.grow(n, step)
        self.dram.fast_write(self._bytes(n * self.row_bits))

    def charge_prefill_ingest(self, n_tokens: int, hit_tokens: int) -> None:
        """Prompt ingestion: missed tokens are written into the cold tier
        from outside; hit tokens are already resident (read only).

        Called once per prompt *chunk* under chunked prefill (with that
        chunk's share of the prefix-cache hit,
        :meth:`repro.kvstore.radix.PrefixHandle.hits_in`), so the ledger
        charges ingest in the step it actually happens — the per-chunk
        charges sum exactly to the monolithic charge."""
        if not 0 <= hit_tokens <= n_tokens:
            raise ValueError("hit_tokens must be in [0, n_tokens]")
        self.dram.slow_write(
            self._bytes((n_tokens - hit_tokens) * self.raw_row_bits)
        )
        self.dram.slow_read(self._bytes(hit_tokens * self.raw_row_bits))

    # --------------------------------------------------------------- queries
    def tracks(self, seq_id: int) -> bool:
        return seq_id in self._seqs

    def demoted_mask(self, seq_id: int) -> np.ndarray:
        state = self._state(seq_id)
        return state.demoted[: state.length]

    def demoted_count(self, seq_id: int) -> int:
        return int(self.demoted_mask(seq_id).sum())

    def hot_tokens(self, seq_id: int) -> int:
        state = self._state(seq_id)
        return state.length - int(state.demoted[: state.length].sum())

    @property
    def total_hot_tokens(self) -> int:
        """Fast-tier resident token rows across in-arena sequences."""
        return sum(
            s.length - int(s.demoted[: s.length].sum())
            for s in self._seqs.values()
            if not s.swapped_out
        )

    @property
    def total_demoted_tokens(self) -> int:
        return sum(
            int(s.demoted[: s.length].sum())
            for s in self._seqs.values()
            if not s.swapped_out
        )

    @property
    def total_cold_tokens(self) -> int:
        """Tokens with a cold-tier copy (demoted, or demoted-then-promoted
        rows whose immutable cold copy stays valid)."""
        return sum(
            int(s.cold_have[: s.length].sum()) for s in self._seqs.values()
        )

    # ------------------------------------------------------- demote / promote
    def _arena_rows(self, seq_id: int, positions: np.ndarray):
        offset, length = self.pool.segment(seq_id)
        if positions.size and positions.max() >= length:
            raise ValueError("position outside the sequence")
        rows = offset + positions
        return rows

    def demote(self, seq_id: int, positions) -> int:
        """Move tokens' exact bytes to the cold tier; keep the round-1
        sketch. Returns the number of tokens newly demoted."""
        state = self._state(seq_id)
        if state.swapped_out:
            raise ValueError(f"sequence {seq_id} is swapped out of the arena")
        positions = np.unique(np.asarray(positions, dtype=np.int64))
        if positions.size == 0:
            return 0
        if positions.min() < 0 or positions.max() >= state.length:
            raise ValueError("demotion position outside the sequence")
        if positions.max() >= state.length - self.config.hot_tail:
            raise ValueError(
                f"cannot demote inside the hot tail (last "
                f"{self.config.hot_tail} tokens)"
            )
        positions = positions[~state.demoted[positions]]
        if positions.size == 0:
            return 0
        rows = self._arena_rows(seq_id, positions)
        fresh = positions[~state.cold_have[positions]]
        if fresh.size:
            state.ensure_cold(
                self.pool.k_heads,
                self.pool.n_heads,
                self.pool.head_dim,
                self.pool.k_dtype,
            )
            fresh_rows = self._arena_rows(seq_id, fresh)
            # row accessors instead of raw arena indexing: a head-sharded
            # composite pool gathers full-width rows across its slices
            k_fresh, v_fresh = self.pool.read_rows(fresh_rows)
            state.cold_k[fresh] = k_fresh
            state.cold_v[fresh] = v_fresh
            state.cold_have[fresh] = True
            # encoded rows are immutable once written (frozen scales,
            # append-only arena), so this copy never goes stale
            moved = self._bytes(fresh.size * self.row_bits)
            self.dram.fast_read(moved)
            self.dram.slow_write(moved)
        # the kernel may no longer read the demoted bytes: zero every
        # chunk digit past the estimator sketch, and the whole V row
        self._scrub_rows(rows)
        state.demoted[positions] = True
        self.demotions_total += int(positions.size)
        return int(positions.size)

    def _scrub_rows(self, rows: np.ndarray) -> None:
        n_chunks = self.quant.n_chunks
        k_rows, v_rows = self.pool.read_rows(rows)
        if self.sketch_chunks < n_chunks:
            k_rows = k_rows.reshape(
                rows.size, self._n_heads, n_chunks, self.pool.head_dim
            )
            k_rows[:, :, self.sketch_chunks:, :] = 0.0
            k_rows = k_rows.reshape(
                rows.size, self.pool.k_heads, self.pool.head_dim
            )
        v_rows[:] = 0.0
        self.pool.write_rows(rows, k_rows, v_rows)

    def promote(self, seq_id: int, positions) -> int:
        """Restore tokens' exact encoded bytes into the arena."""
        state = self._state(seq_id)
        positions = np.unique(np.asarray(positions, dtype=np.int64))
        positions = positions[state.demoted[positions]]
        if positions.size == 0:
            return 0
        if not state.cold_have[positions].all():  # pragma: no cover - invariant
            raise RuntimeError("demoted token has no cold copy")
        if not state.swapped_out:
            rows = self._arena_rows(seq_id, positions)
            self.pool.write_rows(
                rows, state.cold_k[positions], state.cold_v[positions]
            )
        moved = self._bytes(positions.size * self.row_bits)
        self.dram.slow_read(moved)
        self.dram.fast_write(moved)
        state.demoted[positions] = False
        self.promotions_total += int(positions.size)
        if self.tracer:
            self.tracer.instant(
                self.trace_label,
                "tiers",
                "tier_promote",
                cat="tier",
                args={"seq_id": seq_id, "count": int(positions.size)},
            )
        return int(positions.size)

    def tokens_needing_promotion(self, seq_id: int, result) -> np.ndarray:
        """Demoted positions whose pruning decision needs exact bytes.

        Outliving the sketch is the trigger: ``kept`` on any head, or
        more chunks than the sketch fetched on any head.  Everything else
        was pruned within the sketch rounds from exact digits —
        bit-identical to the untiered kernel without touching the cold
        tier.
        """
        state = self._state(seq_id)
        t = state.length
        demoted = state.demoted[:t]
        if not demoted.any():
            return np.zeros(0, dtype=np.int64)
        survived = result.kept.any(axis=0) | (
            result.chunks_fetched > self.sketch_chunks
        ).any(axis=0)
        return np.flatnonzero(demoted & survived[:t])

    # ------------------------------------------------------------ observation
    def observe_step(self, seq_id: int, result, step: int) -> Tuple[int, int]:
        """Fold one decode step's kernel result into the policy signals
        and charge the fetch-path traffic by tier.

        Returns this sequence's ``(fast_bits, slow_bits)`` fetched — the
        split :meth:`repro.hw.serving.ServingSimulator.price` streams on
        the two tiers under ``two_tier=True``.
        """
        state = self._state(seq_id)
        t = state.length
        kept = result.kept[:, :t]
        probs = result.probs[:, :t]
        # certified per-token mass this step: exact probability for kept
        # tokens, the Eq. 5 upper bound p'' for pruned ones (capped at 1)
        bounds = np.exp(
            np.clip(
                result.scores[:, :t] - result.log_denominators[:, None],
                -700.0,
                0.0,
            )
        )
        p_tok = np.where(kept, probs, bounds).mean(axis=0)
        decay = self.config.mass_decay
        # the no-evidence prior is 1.0 (retain); the first real
        # observation replaces it outright, later ones blend in
        first = state.seen[:t] == 0
        state.mass[:t] = np.where(
            first, p_tok, decay * state.mass[:t] + (1.0 - decay) * p_tok
        )
        state.seen[:t] += 1
        kept_any = kept.any(axis=0)
        state.last_kept[:t][kept_any] = step
        # outliving the sketch is what predicts whether demotion would
        # hold: such a token's exact bytes would be promoted right back
        survived = kept_any | (
            result.chunks_fetched[:, :t] > self.sketch_chunks
        ).any(axis=0)
        state.last_survived[:t][survived] = step
        # fetch-path traffic split: demoted tokens were (post-promotion)
        # all pruned within their sketch — every chunk they fetched
        # streamed from the slow tier; every other fetched bit (hot
        # tokens' chunks, kept tokens' V) streams from the fast tier
        d = self.pool.head_dim
        dem = state.demoted[:t]
        slow_chunks = int(result.chunks_fetched[:, :t][:, dem].sum())
        slow_bits = slow_chunks * d * self.quant.chunk_bits
        k_bits = int(result.chunks_fetched.sum()) * d * self.quant.chunk_bits
        v_bits = int(kept.sum()) * d * self.quant.total_bits
        fast_bits = k_bits - slow_bits + v_bits
        self.dram.fast_read(self._bytes(fast_bits))
        self.dram.slow_read(self._bytes(slow_bits))
        return fast_bits, slow_bits

    # ---------------------------------------------------------------- policy
    def run_policy(self, step: int) -> int:
        """Demote per the policy rule, then enforce the hot budget.

        Returns tokens demoted this call.  Only in-arena sequences
        participate (a swapped-out sequence's rows are already cold).
        """
        demoted = 0
        ranked: list = []
        for seq_id, state in self._seqs.items():
            if state.swapped_out:
                continue
            t = state.length
            view = TokenTierView(
                seq_id=seq_id,
                length=t,
                mass=state.mass,
                last_kept=state.last_kept,
                last_survived=state.last_survived,
                seen=state.seen,
            )
            head = max(t - self.config.hot_tail, 0)
            idle = (
                step - state.last_survived[:head]
                >= self.config.survive_idle_steps
            )
            eligible = np.flatnonzero(~state.demoted[:head] & idle)
            if eligible.size == 0:
                continue
            now = self.policy.demote_now(view, step, eligible)
            if now.size:
                demoted += self.demote(seq_id, now)
                eligible = eligible[~np.isin(eligible, now)]
            if eligible.size and self.config.hot_budget_tokens:
                scores = self.policy.rank(view, step)[eligible]
                ranked.extend(
                    (float(s), seq_id, int(p))
                    for s, p in zip(scores, eligible)
                )
        budget = self.config.hot_budget_tokens
        if budget and self.total_hot_tokens > budget and ranked:
            ranked.sort()
            over = self.total_hot_tokens - budget
            by_seq: Dict[int, list] = {}
            for _, seq_id, pos in ranked[:over]:
                by_seq.setdefault(seq_id, []).append(pos)
            for seq_id, positions in by_seq.items():
                demoted += self.demote(seq_id, positions)
        if demoted and self.tracer:
            self.tracer.instant(
                self.trace_label,
                "tiers",
                "tier_demote",
                cat="tier",
                args={"step": step, "count": demoted},
            )
        return demoted

    # ------------------------------------------------------------ preemption
    def on_swap_out(self, seq_id: int, swapped: SwappedSequence) -> SwappedSequence:
        """Patch a preemption swap so it is byte-exact and cheap.

        The arena copy of a demoted row is sketch-only (later chunks and V
        zeroed); restore those rows from their cold copies so the swapped
        segments stay byte-exact.  Only the *hot* rows are charged as new
        cold-tier writes — the demoted rows already live there, which is
        what makes a mostly-demoted victim nearly free to preempt.
        """
        state = self._state(seq_id)
        t = state.length
        if swapped.length != t:
            raise ValueError(
                f"swap length {swapped.length} != tiered length {t}"
            )
        demoted = np.flatnonzero(state.demoted[:t])
        if demoted.size:
            swapped.k_rows[demoted] = state.cold_k[demoted]
            swapped.v_rows[demoted] = state.cold_v[demoted]
        hot = t - demoted.size
        self.dram.fast_read(self._bytes(hot * self.row_bits))
        self.dram.slow_write(self._bytes(hot * self.row_bits))
        self.swap_rows_skipped_total += int(demoted.size)
        state.swapped_out = True
        return swapped

    def on_swap_in(self, seq_id: int) -> None:
        """Re-establish the tier map after a resume swap-in.

        The pool restored every row byte-exactly; re-zero the demoted
        rows' non-sketch bytes (they stay cold) and charge only the hot
        rows' move back into the fast tier.
        """
        state = self._state(seq_id)
        state.swapped_out = False
        t = state.length
        demoted = np.flatnonzero(state.demoted[:t])
        if demoted.size:
            self._scrub_rows(self._arena_rows(seq_id, demoted))
        hot = t - demoted.size
        self.dram.slow_read(self._bytes(hot * self.row_bits))
        self.dram.fast_write(self._bytes(hot * self.row_bits))

    # -------------------------------------------------------------- reporting
    def snapshot(self) -> dict:
        return {
            "policy": self.policy.name,
            "sketch_chunks": self.sketch_chunks,
            "hot_tokens": self.total_hot_tokens,
            "demoted_tokens": self.total_demoted_tokens,
            "cold_copy_tokens": self.total_cold_tokens,
            "demotions": self.demotions_total,
            "promotions": self.promotions_total,
            "rerun_steps": self.rerun_steps_total,
            "swap_rows_skipped": self.swap_rows_skipped_total,
            "dram": self.dram.snapshot(),
        }

    def _state(self, seq_id: int) -> _SeqTierState:
        try:
            return self._seqs[seq_id]
        except KeyError:
            raise KeyError(f"untracked sequence {seq_id}") from None
