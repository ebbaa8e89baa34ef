"""Two-tier KV token store: a per-token tier map over the packed arena.

The serving engine's :class:`~repro.serving.kv_pool.KVCachePool` is the
**hot tier** — the fast DRAM the accelerator streams during decode.
:class:`TieredKVStore` models a **cold tier** beneath it: per token, a
``demoted`` flag (only the estimator sketch is modelled as reachable)
and a ``cold_have`` flag (a slow-tier copy exists), plus the policy
signals that choose what to demote.  Every movement is a charge on a
:class:`~repro.hw.dram.TieredDRAMModel` ledger; the host arena keeps
every row's exact encoded bytes, so no byte moves on the host.

* A **demoted** token keeps only its **estimator sketch** — the first
  ``sketch_chunks`` MSB chunk digits the breadth schedule's early rounds
  read — modelled as streamed from the slow tier.  Its first demotion
  charges the one slow-tier write of its row: encoded rows are immutable
  (frozen scales, append-only arena), so a row is written to the slow
  tier at most once, however often it is demoted, promoted or swapped.
* Bit-exactness is a theorem, not a mechanism: breadth-round ``b``
  decisions depend only on the first ``b`` chunk digits of every token
  (a pruned token's frozen denominator contribution is the bound it died
  with), so whether a demoted token dies within the sketch rounds does
  not depend on its later digits.  One that *outlives* its sketch is
  **promoted on demand**, charged as a slow-to-fast move of its row; the
  step's one exact kernel pass already computed what the promoted bytes
  give.  Outputs are therefore bit-identical to the untiered engine
  (property tested, with the theorem itself tested on the kernel).
* Demotion is driven by :mod:`repro.kvstore.policy` — certified
  per-token retained-probability-mass by default, with LRU and recency
  baselines — plus a fast-tier residency budget the store enforces by
  demoting the lowest-ranked eligible tokens.

Preemption composes with the tiers: a swapped-out victim's rows that
already have a slow-tier copy cost nothing more to evict, so the swap
charges only the rest (:meth:`TieredKVStore.on_swap_out`) — the cheaper
the sequence's retained mass says it is, the less it costs to evict.

The serving engine reaches the store at its arena events — a prompt
chunk (:meth:`~TieredKVStore.note_prompt_chunk`), the step's decode rows
(:meth:`~TieredKVStore.note_decode`), a swap, an exit — and once per
step after the kernel (:meth:`~TieredKVStore.after_kernel`: promotions,
policy signals and the per-tier traffic split), then runs the demotion
policy (:meth:`~TieredKVStore.run_policy`) after retirement.  A sequence
enters the tier map the first time the engine names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

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
    """Per-sequence tier map + policy signals."""

    __slots__ = (
        "length", "demoted", "cold_have", "mass", "last_kept",
        "last_survived", "seen", "swapped_out",
    )

    def __init__(self) -> None:
        self.length = 0
        self.demoted = np.zeros(0, dtype=bool)
        self.cold_have = np.zeros(0, dtype=bool)
        self.mass = np.zeros(0)
        self.last_kept = np.zeros(0, dtype=np.int64)
        self.last_survived = np.zeros(0, dtype=np.int64)
        self.seen = np.zeros(0, dtype=np.int64)
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


def _distinct_positions(state: _SeqTierState, positions, what: str) -> np.ndarray:
    """``positions`` sorted and deduplicated, checked against
    ``[0, state.length)``.  A sort and a neighbour compare rather than
    ``np.unique``, whose first call imports ``numpy.ma``."""
    positions = np.sort(np.asarray(positions, dtype=np.int64).ravel())
    if positions.size == 0:
        return positions
    if positions[0] < 0 or positions[-1] >= state.length:
        raise ValueError(f"{what} position outside the sequence")
    distinct = np.ones(positions.size, dtype=bool)
    distinct[1:] = positions[1:] != positions[:-1]
    return positions[distinct]


class TieredKVStore:
    """A per-token hot/cold tier map, and its DRAM ledger, over one
    :class:`KVCachePool` arena.

    The serving engine's per-step seam is :meth:`after_kernel`: it folds
    the step's kernel results in (promotions, then the policy signals)
    and hands back what the engine's accounting needs, the per-tier
    traffic split and the demoted masks; :meth:`run_policy` demotes once
    the step's finished sequences have left."""

    def __init__(
        self,
        pool: KVCachePool,
        config: Optional[TierConfig] = None,
        prompt_guard: int = 0,
        tracer=None,
        trace_label: str = "engine",
    ) -> None:
        self.pool = pool
        quant = self.quant = pool.quant
        self.config = config or TierConfig()
        if self.config.hot_tail < prompt_guard:
            raise ValueError(
                f"hot_tail ({self.config.hot_tail}) must cover prompt_guard "
                f"({prompt_guard}): guarded tokens always survive round 1"
            )
        self.dram = TieredDRAMModel()
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
        self.swap_rows_skipped_total = 0  # already-cold rows a swap avoided

    # ------------------------------------------------------------ byte model
    @property
    def row_bits(self) -> int:
        """Modelled bits of one token row, resident or in transport: the
        pool's :attr:`~repro.serving.kv_pool.KVCachePool.row_bits`."""
        return self.pool.row_bits

    @staticmethod
    def _bytes(bits: int) -> int:
        return -(-int(bits) // 8)

    def _write_cold(self, rows: int) -> None:
        """Charge ``rows`` token rows' move fast -> slow."""
        moved = self._bytes(rows * self.row_bits)
        self.dram.fast_read(moved)
        self.dram.slow_write(moved)

    def _read_cold(self, rows: int) -> None:
        """Charge ``rows`` token rows' move slow -> fast."""
        moved = self._bytes(rows * self.row_bits)
        self.dram.slow_read(moved)
        self.dram.fast_write(moved)

    # -------------------------------------------------------------- lifecycle
    def free(self, seq_id: int) -> None:
        self._seqs.pop(seq_id, None)

    def note_append(self, seq_id: int, n: int, step: int) -> None:
        """New tokens enter hot: extend the tier map and charge the
        fast-tier encode write."""
        state = self._state(seq_id)
        state.grow(n, step)
        self.dram.fast_write(self._bytes(n * self.row_bits))

    def note_decode(self, seq_ids, step: int) -> None:
        """One decoded token per sequence enters hot: :meth:`note_append`
        of one row for each of ``seq_ids``."""
        for seq_id in seq_ids:
            self._state(seq_id).grow(1, step)
        self.dram.fast_write(len(seq_ids) * self._bytes(self.row_bits))

    def note_prompt_chunk(
        self, seq_id: int, n: int, hit_tokens: int, step: int
    ) -> None:
        """A prompt chunk of ``n`` tokens enters hot (:meth:`note_append`)
        after its ingest: missed tokens are written into the cold tier
        from outside; hit tokens are already resident (read only).

        Called once per prompt *chunk* under chunked prefill (with that
        chunk's share of the prefix-cache hit,
        :meth:`repro.kvstore.radix.PrefixHandle.hits_in`), so the ledger
        charges ingest in the step it actually happens — the per-chunk
        charges sum exactly to the monolithic charge."""
        if not 0 <= hit_tokens <= n:
            raise ValueError("hit_tokens must be in [0, n]")
        self.note_append(seq_id, n, step)
        self.dram.slow_write(self._bytes((n - hit_tokens) * self.row_bits))
        self.dram.slow_read(self._bytes(hit_tokens * self.row_bits))

    # --------------------------------------------------------------- queries
    def demoted_mask(self, seq_id: int) -> np.ndarray:
        state = self._state(seq_id)
        return state.demoted[: state.length]

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
        """Tokens with a modelled slow-tier copy: demoted, promoted back
        after a demotion, or swapped out once (the copy of an immutable
        row stays valid)."""
        return sum(
            int(s.cold_have[: s.length].sum()) for s in self._seqs.values()
        )

    # ------------------------------------------------------- demote / promote
    def demote(self, seq_id: int, positions) -> int:
        """Mark tokens cold; only their estimator sketch stays reachable.
        Charges the slow-tier write of rows without a copy yet.  Returns
        the number of tokens newly demoted."""
        state = self._state(seq_id)
        if state.swapped_out:
            raise ValueError(f"sequence {seq_id} is swapped out of the arena")
        positions = _distinct_positions(state, positions, "demotion")
        if positions.size == 0:
            return 0
        if positions[-1] >= state.length - self.config.hot_tail:
            raise ValueError(
                f"cannot demote inside the hot tail (last "
                f"{self.config.hot_tail} tokens)"
            )
        positions = positions[~state.demoted[positions]]
        if positions.size == 0:
            return 0
        self._write_cold(int((~state.cold_have[positions]).sum()))
        state.cold_have[positions] = True
        state.demoted[positions] = True
        self.demotions_total += int(positions.size)
        return int(positions.size)

    def promote(self, seq_id: int, positions) -> int:
        """Mark demoted tokens hot again, charged as a slow -> fast move."""
        state = self._state(seq_id)
        positions = _distinct_positions(state, positions, "promotion")
        positions = positions[state.demoted[positions]]
        if positions.size == 0:
            return 0
        self._read_cold(positions.size)
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
        """Demoted positions whose pruning decision read past the sketch.

        Outliving the sketch is the trigger: ``kept`` on any head, or
        more chunks than the sketch fetched on any head.  Everything else
        was pruned within the sketch rounds, which read only sketch
        digits — the same decision without the cold tier's bytes.
        """
        state = self._state(seq_id)
        t = state.length
        demoted = state.demoted[:t]
        if not demoted.any():
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(demoted & self._survived(result, t))

    def _survived(self, result, t: int) -> np.ndarray:
        """(t,) tokens kept on any head, or fetched past the sketch on
        any head, this step; the result spans the ``t`` tokens."""
        survived = (result.chunks_fetched > self.sketch_chunks).any(axis=0)
        survived[result.kept_pairs[0] % t] = True
        return survived

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
        kept_index, kept_probs = result.kept_pairs
        # certified per-token mass this step: exact probability for kept
        # tokens, the Eq. 5 upper bound p'' for pruned ones (capped at 1)
        mass = result.pruned_bounds()
        mass.reshape(-1)[kept_index] = kept_probs
        p_tok = mass.mean(axis=0)
        decay = self.config.mass_decay
        # the no-evidence prior is 1.0 (retain); the first real
        # observation replaces it outright, later ones blend in
        first = state.seen[:t] == 0
        state.mass[:t] = np.where(
            first, p_tok, decay * state.mass[:t] + (1.0 - decay) * p_tok
        )
        state.seen[:t] += 1
        state.last_kept[:t][kept_index % t] = step
        # outliving the sketch is what predicts whether demotion would
        # hold: such a token's exact bytes would be promoted right back
        state.last_survived[:t][self._survived(result, t)] = step
        # fetch-path traffic split: demoted tokens are (after this step's
        # promotions) all pruned within their sketch — every chunk they
        # fetched streamed from the slow tier; every other fetched bit
        # (hot tokens' chunks, kept tokens' V) streams from the fast tier
        d = self.pool.head_dim
        dem = state.demoted[:t]
        slow_chunks = int(result.chunks_fetched[:, dem].sum())
        slow_bits = slow_chunks * d * self.quant.chunk_bits
        k_bits = int(result.chunks_per_head.sum()) * d * self.quant.chunk_bits
        v_bits = int(result.kept_per_head.sum()) * d * self.quant.total_bits
        fast_bits = k_bits - slow_bits + v_bits
        self.dram.fast_read(self._bytes(fast_bits))
        self.dram.slow_read(self._bytes(slow_bits))
        return fast_bits, slow_bits

    def after_kernel(
        self, seq_ids, results, step: int
    ) -> Tuple[List[Tuple[int, int]], int, List[np.ndarray]]:
        """The step's tier work after its one kernel pass, per sequence in
        order: on-demand promotion, then :meth:`observe_step`.

        The pass read exact digits for every token.  A demoted token it
        pruned within the sketch rounds read only sketch digits, so the
        cold tier's bytes could not change its decision; a demoted token
        that *outlived* the sketch is promoted (charged as a slow -> fast
        move), and the pass already holds what its exact bytes give.

        Returns each sequence's ``(fast_bits, slow_bits)``, the number of
        tokens promoted, and each sequence's demoted mask after the
        promotions (every demoted token then died within the sketch
        rounds, so accounting may drop its mass bound).
        """
        bits: List[Tuple[int, int]] = []
        masks: List[np.ndarray] = []
        promoted = 0
        for seq_id, result in zip(seq_ids, results):
            need = self.tokens_needing_promotion(seq_id, result)
            if need.size:
                promoted += self.promote(seq_id, need)
            bits.append(self.observe_step(seq_id, result, step))
            masks.append(self.demoted_mask(seq_id))
        return bits, promoted, masks

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
    def on_swap_out(self, seq_id: int, swapped: SwappedSequence) -> None:
        """Charge a preemption swap of the sequence's rows to the slow tier.

        Only rows without a slow-tier copy are written; every swapped
        row has one afterwards.  That is what makes a mostly-demoted
        victim nearly free to preempt, and a row demoted after the
        resume free to demote.
        """
        state = self._state(seq_id)
        t = state.length
        if swapped.length != t:
            raise ValueError(
                f"swap length {swapped.length} != tiered length {t}"
            )
        fresh = int((~state.cold_have[:t]).sum())
        self._write_cold(fresh)
        self.swap_rows_skipped_total += t - fresh
        state.cold_have[:t] = True
        state.swapped_out = True

    def on_swap_in(self, seq_id: int) -> None:
        """Charge a resume: the hot rows move back into the fast tier;
        demoted rows stay cold."""
        state = self._state(seq_id)
        state.swapped_out = False
        self._read_cold(self.hot_tokens(seq_id))

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
            "swap_rows_skipped": self.swap_rows_skipped_total,
            "dram": self.dram.snapshot(),
        }

    def _state(self, seq_id: int) -> _SeqTierState:
        """The sequence's tier map, empty the first time it is named."""
        state = self._seqs.get(seq_id)
        if state is None:
            state = self._seqs[seq_id] = _SeqTierState()
        return state
