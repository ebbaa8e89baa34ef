"""Fault injection, failover recovery, and cancellation accounting.

The properties this file pins:

* **Bit identity under faults** — completed-request outputs (lifetime
  pruning traffic + generated token counts) under *random* seeded fault
  schedules are exactly those of a fault-free run: re-prefill replays
  from the request seed, swap-resume continues from a byte-exact host
  copy, and neither path is allowed to perturb a single bit.
* **Exact release on cancellation** — cancelling requests in any phase
  (queued, mid-prefill, decoding, preempted) returns the arena, the
  tier store and the radix prefix refcounts exactly to baseline; a
  leaked :class:`~repro.kvstore.radix.PrefixHandle` refcount shows up
  here as a non-evictable extent.
* **Router health bookkeeping** — kills/revives move replicas through
  live → dead → live, summaries report the states distinctly, and
  drained/dead replicas no longer skew fleet occupancy means.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterRouter,
    FaultEvent,
    FaultInjector,
    fault_schedule,
)
from repro.core import TokenPickerConfig
from repro.kvstore.radix import RadixKVCache
from repro.kvstore.tiers import TierConfig
from repro.serving import RequestState, ServingEngine, synthetic_request
from repro.workloads import failover_trace

N_HEADS, HEAD_DIM = 2, 8


def _router(n_replicas=3, seed=11, **kw) -> ClusterRouter:
    kw.setdefault("max_batch_size", 2)
    kw.setdefault("capacity_tokens", 256)
    return ClusterRouter(n_replicas, seed=seed, **kw)


def _trace(n=8, seed=5, max_new=12):
    return failover_trace(
        np.random.default_rng(seed),
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        n_requests=n,
        arrivals_per_step=1,
        prompt_tokens=10,
        max_new_tokens=max_new,
        prompt_jitter=6,
        new_token_jitter=6,
    )


def _traffic(outputs):
    return {
        key: (
            done.stats.counter.k_bits,
            done.stats.counter.v_bits,
            done.stats.generated_tokens,
        )
        for key, done in outputs.items()
    }


class TestFaultSchedule:
    def test_deterministic(self):
        a = fault_schedule(3, 4, n_kills=3)
        b = fault_schedule(3, 4, n_kills=3)
        assert a == b
        c = fault_schedule(4, 4, n_kills=3)
        assert a != c

    def test_never_two_dead_at_once(self):
        for seed in range(12):
            dead = set()
            for ev in fault_schedule(seed, 2, n_kills=4, revive_after=5):
                if ev.action == "kill":
                    assert ev.replica not in dead
                    dead.add(ev.replica)
                    assert len(dead) < 2
                elif ev.action == "revive":
                    dead.discard(ev.replica)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(step=0, action="explode", replica=0)
        with pytest.raises(ValueError):
            fault_schedule(0, 1)


class TestKillRevive:
    def test_kill_excludes_from_routing(self):
        router = _router()
        router.kill_replica(1)
        assert router.replica_status(1) == "dead"
        assert 1 not in router.routable()
        rng = np.random.default_rng(0)
        for _ in range(6):
            rid, _ = router.submit(
                synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 4)
            )
            assert rid != 1

    def test_cannot_kill_last_routable(self):
        router = _router(n_replicas=2)
        router.kill_replica(0)
        with pytest.raises(RuntimeError):
            router.kill_replica(1)
        # the refused kill must roll back cleanly
        assert router.replica_status(1) == "live"

    def test_double_kill_and_bad_revive_raise(self):
        router = _router()
        router.kill_replica(0)
        with pytest.raises(ValueError):
            router.kill_replica(0)
        with pytest.raises(ValueError):
            router.revive_replica(1)  # not dead

    def test_revive_is_fresh_but_keeps_history(self):
        router = _router(n_replicas=2)
        rng = np.random.default_rng(1)
        for _ in range(4):
            router.submit(synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 3))
        router.run_until_drained()
        completed_before = router.summary()["requests_completed"]
        assert completed_before == 4
        victim = 0 if any(rid == 0 for rid, _ in router.completed) else 1
        router.kill_replica(victim)
        router.revive_replica(victim)
        assert router.replica_status(victim) == "live"
        assert router.replicas[victim].step_index == 0
        # completions served before the kill survive the replica swap
        assert router.summary()["requests_completed"] == completed_before
        assert len(router.completed) == 4

    def test_summary_reports_states(self):
        router = _router(n_replicas=3)
        router.drain(1)
        router.kill_replica(2)
        summary = router.summary()
        assert summary["replicas_live"] == 1
        assert summary["replicas_draining"] == 1
        assert summary["replicas_dead"] == 1
        states = {r["replica"]: r["status"] for r in summary["per_replica"]}
        assert states == {0: "live", 1: "draining", 2: "dead"}


class TestFailoverHarvest:
    def test_harvest_releases_everything(self):
        engine = ServingEngine(
            max_batch_size=2, capacity_tokens=256, seed=3
        )
        rng = np.random.default_rng(2)
        for _ in range(4):
            engine.submit(synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 8))
        for _ in range(3):
            engine.step()
        harvest = engine.harvest_for_failover()
        assert len(harvest) == 4
        assert engine.pool.blocks_in_use == 0
        assert engine.n_active == 0 and engine.n_pending == 0
        # queued first (never admitted), then the lost arena residents
        assert [rec.seq_id >= 0 for rec in harvest] == [False] * 2 + [True] * 2
        for rec in harvest:
            assert rec.swapped is None
            assert rec.request.state == RequestState.QUEUED

    def test_swap_resume_is_bit_identical(self):
        """A preempted sequence killed with its replica resumes
        byte-exactly on a survivor via export/adopt."""
        def run(interrupt: bool):
            router = _router(n_replicas=2, seed=9)
            rng = np.random.default_rng(4)
            requests = [
                synthetic_request(rng, N_HEADS, 12, HEAD_DIM, 10)
                for _ in range(2)
            ]
            inj = FaultInjector(router, [])
            for i, request in enumerate(requests):
                inj.submit(request, key=i)
            for _ in range(4):
                inj.step()
            if interrupt:
                # preempt whatever replica 0 is decoding, then kill it:
                # the harvest carries the swapped host copy
                engine = router.replicas[0]
                for sid in list(engine._active):
                    engine.preempt(sid)
                inj._apply(FaultEvent(step=0, action="kill", replica=0))
            while router.busy or inj._retry:
                inj.step()
            return inj

        clean = run(False)
        faulted = run(True)
        assert faulted.stats.kills == 1
        assert faulted.stats.swap_resumes >= 1
        assert set(clean.outputs) == set(faulted.outputs)
        assert _traffic(clean.outputs) == _traffic(faulted.outputs)

    def test_adoption_into_tiered_engine_falls_back_to_reprefill(self):
        donor = ServingEngine(max_batch_size=2, capacity_tokens=256, seed=1)
        rng = np.random.default_rng(5)
        donor.submit(synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 8))
        for _ in range(3):
            donor.step()
        donor.preempt(next(iter(donor._active)))
        [export] = donor.harvest_for_failover()
        assert export.swapped is not None
        tiered = ServingEngine(
            max_batch_size=2,
            capacity_tokens=256,
            seed=1,
            kv_tiering=TierConfig(hot_budget_tokens=64),
        )
        with pytest.raises(ValueError):
            tiered.adopt_preempted(export)

    def test_adoption_refuses_work_the_pool_can_never_hold(self):
        """Adoption applies submit's lifetime-footprint check: a 464-token
        sequence swapped out of a big engine cannot land in a 256-token
        pool (it would stay preempted forever), and the refusal leaves
        the small engine untouched."""
        donor = ServingEngine(max_batch_size=2, capacity_tokens=4096, seed=1)
        rng = np.random.default_rng(5)
        request = synthetic_request(rng, N_HEADS, 64, HEAD_DIM, 400)
        request_id = donor.submit(request)
        donor.step()
        donor.preempt(next(iter(donor._active)))
        export = donor.export_preempted(request_id)
        small = ServingEngine(max_batch_size=2, capacity_tokens=256, seed=1)
        with pytest.raises(ValueError, match="the pool holds"):
            small.adopt_preempted(export)
        assert small.n_preempted == 0 and small.adopted_total == 0
        assert small.pool is None and request.request_id == request_id
        with pytest.raises(ValueError, match="the pool holds"):
            small.submit(request)


class TestFaultInjectorBitIdentity:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        n_kills=st.integers(min_value=1, max_value=3),
    )
    def test_random_fault_schedules_are_bit_identical(self, seed, n_kills):
        """Hypothesis sweep: any valid seeded fault schedule yields
        completed outputs bit-identical to the fault-free run."""
        def run(schedule):
            inj = FaultInjector(_router(seed=13), schedule)
            inj.run_trace(_trace(n=6, seed=seed % 97, max_new=8))
            return inj

        schedule = fault_schedule(
            seed, 3, n_kills=n_kills, revive_after=4
        )
        clean = run([])
        faulted = run(schedule)
        assert set(clean.outputs) == set(range(6))
        assert set(faulted.outputs) == set(range(6))
        assert _traffic(clean.outputs) == _traffic(faulted.outputs)

    def test_backoff_caps(self):
        inj = FaultInjector(
            _router(), [], retry_base_steps=1, retry_cap_steps=8
        )
        assert [inj._backoff(a) for a in (1, 2, 3, 4, 5, 6)] == [
            1, 2, 4, 8, 8, 8,
        ]
        with pytest.raises(ValueError):
            FaultInjector(_router(), [], retry_base_steps=0)


class TestCancellation:
    def _engine(self, **kw):
        kw.setdefault("max_batch_size", 4)
        kw.setdefault("capacity_tokens", 1024)
        kw.setdefault("seed", 3)
        return ServingEngine(**kw)

    def test_cancel_queued_active_preempted(self):
        engine = self._engine(max_batch_size=2)
        rng = np.random.default_rng(6)
        ids = [
            engine.submit(synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 12))
            for _ in range(4)
        ]
        for _ in range(2):
            engine.step()
        # ids[0]/ids[1] decoding, ids[2]/ids[3] queued
        engine.preempt(next(iter(engine._active)))
        for rid in ids:
            done = engine.cancel(rid)
            assert done.state == RequestState.CANCELLED
        assert engine.cancelled_total == 4
        assert engine.pool.blocks_in_use == 0
        assert engine.n_active == engine.n_pending == engine.n_preempted == 0
        with pytest.raises(KeyError):
            engine.cancel(ids[0])  # already terminal
        with pytest.raises(KeyError):
            engine.cancel(999)

    def test_cancellation_storm_returns_to_baseline(self):
        """Cancel 50% of a chunked-prefill storm mid-prefill: pool and
        tier accounting must return exactly to baseline."""
        engine = self._engine(
            max_batch_size=8,
            capacity_tokens=2048,
            prefill_budget_tokens=16,
            kv_tiering=TierConfig(hot_budget_tokens=64, hot_tail=4),
        )
        rng = np.random.default_rng(7)
        ids = [
            engine.submit(synthetic_request(rng, N_HEADS, 48, HEAD_DIM, 6))
            for _ in range(8)
        ]
        engine.step()  # some sequences are now mid-prefill
        assert engine.n_prefilling > 0
        for rid in ids[::2]:
            done = engine.cancel(rid)
            assert done.state == RequestState.CANCELLED
        engine.run_until_drained()
        assert engine.pool.blocks_in_use == 0
        assert engine.tiers.total_hot_tokens == 0
        assert engine.tiers.total_cold_tokens == 0
        assert len(engine.completed) == 4
        assert engine.cancelled_total == 4

    def test_cancel_mid_prefill_releases_prefix_refcounts(self):
        """Regression: a request cancelled mid-prefill must release its
        radix PrefixHandle — a leak keeps the extent referenced and the
        cache can never evict it."""
        cache = RadixKVCache()
        engine = self._engine(
            max_batch_size=4,
            capacity_tokens=2048,
            prefill_budget_tokens=16,
            prefix_cache=cache,
        )
        rng = np.random.default_rng(8)
        shared_k = rng.normal(size=(N_HEADS, 32, HEAD_DIM))
        shared_v = rng.normal(size=(N_HEADS, 32, HEAD_DIM))
        from repro.serving import GenerationRequest

        ids = []
        for _ in range(4):
            suffix_k = rng.normal(size=(N_HEADS, 8, HEAD_DIM))
            suffix_v = rng.normal(size=(N_HEADS, 8, HEAD_DIM))
            ids.append(
                engine.submit(
                    GenerationRequest(
                        prompt_keys=np.concatenate(
                            [shared_k, suffix_k], axis=1
                        ),
                        prompt_values=np.concatenate(
                            [shared_v, suffix_v], axis=1
                        ),
                        max_new_tokens=4,
                        seed=int(rng.integers(0, 2**31 - 1)),
                    )
                )
            )
        engine.step()
        assert engine.n_prefilling > 0
        for rid in ids[::2]:
            engine.cancel(rid)
        engine.run_until_drained()
        # every handle released: the whole cache is evictable
        evicted = cache.evict_unreferenced(keep_tokens=0)
        assert cache.total_tokens == 0, (
            f"leaked prefix refcounts pin {cache.total_tokens} tokens "
            f"(evicted {evicted})"
        )

    def test_expire_deadlines_with_injected_clock(self):
        engine = self._engine()
        rng = np.random.default_rng(9)
        request = synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 8)
        request.deadline_ms = 50.0
        engine.submit(request)
        assert engine.expire_deadlines(request.submitted_wall + 0.01) == []
        expired = engine.expire_deadlines(request.submitted_wall + 0.2)
        assert [d.state for d in expired] == [RequestState.TIMED_OUT]
        assert engine.timed_out_total == 1
        # still queued at expiry: nothing was ever pooled
        assert engine.pool is None or engine.pool.blocks_in_use == 0

    def test_deadline_validation(self):
        rng = np.random.default_rng(10)
        request = synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 4)
        request.deadline_ms = -1.0
        with pytest.raises(ValueError):
            request.__post_init__()


class TestOccupancyAccounting:
    def test_drained_replica_does_not_skew_occupancy(self):
        """A replica drained early must not keep averaging zeros into its
        occupancy mean while the rest of the fleet works."""
        router = _router(n_replicas=2, seed=21)
        rng = np.random.default_rng(11)
        for _ in range(4):
            router.submit(synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 20))
        for _ in range(3):
            router.step()
        busy_occ = {rid: router.mean_batch_occupancy(rid) for rid in (0, 1)}
        router.drain(1)
        router.rebalance(1)
        router.run_until_drained()
        # replica 1 stopped accumulating once drained and idle: its mean
        # reflects only the steps it actually served
        if busy_occ[1] > 0:
            assert router.mean_batch_occupancy(1) >= busy_occ[1] * 0.5
        summary = router.summary()
        assert "mean_batch_occupancy_live" in summary
        assert summary["mean_batch_occupancy_live"] >= 0.0

    def test_dead_replica_excluded_from_live_mean(self):
        router = _router(n_replicas=2, seed=22)
        rng = np.random.default_rng(12)
        for _ in range(4):
            router.submit(synthetic_request(rng, N_HEADS, 10, HEAD_DIM, 6))
        router.run_until_drained()
        router.kill_replica(0)
        summary = router.summary()
        live = [r for r in summary["per_replica"] if r["status"] == "live"]
        expected = sum(r["mean_batch_occupancy"] for r in live) / len(live)
        assert summary["mean_batch_occupancy_live"] == pytest.approx(expected)
