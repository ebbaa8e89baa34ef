"""Tests for the batched serving-step simulator."""

import numpy as np
import pytest

from repro.cluster.shard import ShardStepView
from repro.core import QuantConfig, TokenPickerConfig
from repro.core.pruning import PruneStats
from repro.hw.params import HardwareParams, InterconnectParams
from repro.hw.serving import (
    ServingSimulator,
    StepCost,
    Stream,
    step_seconds,
    tokens_per_second,
)
from repro.model.config import get_model_config
from repro.serving.engine import EngineStepReport, SequenceStepView


@pytest.fixture(scope="module")
def sim():
    # a small zoo model keeps instance simulation fast
    # the paper's context regime; short contexts blunt the attention
    # speedup (latency tail) and with it the end-to-end benefit
    model = get_model_config("gpt2-medium")
    return ServingSimulator(
        model, context_length=1024,
        config=TokenPickerConfig(threshold=2e-3),
        n_sample_instances=2, seed=1,
    )


def _stats(fetched_chunks, kept, n_tokens=256, head_dim=64):
    return PruneStats(
        n_tokens=n_tokens,
        n_kept=kept,
        k_chunks_fetched=fetched_chunks,
        v_vectors_fetched=kept,
        head_dim=head_dim,
        quant=QuantConfig(),
    )


def _report(stats=(), prefill_bits=0):
    """A step report carrying just the given per-sequence accounting."""
    return EngineStepReport(
        step_index=0,
        per_sequence={
            i: SequenceStepView(i, i, s.n_tokens, s) for i, s in enumerate(stats)
        },
        prefill_bits=prefill_bits,
    )


class TestServingStep:
    def test_step_composition(self, sim):
        r = sim.step(4, "baseline")
        assert r.total_cycles == r.weight_cycles + r.attention_cycles
        assert 0 < r.attention_cycles < r.total_cycles

    def test_weight_cycles_shared_across_batch(self, sim):
        r1 = sim.step(1, "baseline")
        r8 = sim.step(8, "baseline")
        assert r1.weight_cycles == r8.weight_cycles
        assert r8.attention_cycles == 8 * r1.attention_cycles

    def test_topick_attention_faster(self, sim):
        base = sim.step(8, "baseline")
        ours = sim.step(8, "topick")
        assert ours.attention_cycles < base.attention_cycles
        assert ours.weight_cycles == base.weight_cycles

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            sim.step(0)
        with pytest.raises(ValueError):
            ServingSimulator(get_model_config("gpt2-medium"), 0)
        with pytest.raises(ValueError):
            ServingSimulator(
                get_model_config("gpt2-medium"), 128, n_sample_instances=0
            )


class TestSpeedupCurve:
    def test_monotone_in_batch(self, sim):
        curve = sim.speedup_curve(batch_sizes=(1, 4, 16, 64))
        speedups = [p["speedup"] for p in curve]
        assert all(a <= b + 1e-9 for a, b in zip(speedups, speedups[1:]))
        # small at B=1 (weights dominate), substantial at B=64
        assert speedups[0] < 1.5
        assert speedups[-1] > 1.3

    def test_attention_fraction_grows(self, sim):
        curve = sim.speedup_curve(batch_sizes=(1, 16, 64))
        fracs = [p["attention_fraction"] for p in curve]
        assert fracs[0] < fracs[-1]


class TestMeasuredTraffic:
    def test_price_charges_each_sequence_its_own_tail(self, sim):
        light = _stats(fetched_chunks=300, kept=20)
        heavy = _stats(fetched_chunks=700, kept=200)
        r = sim.price(_report([light, heavy]), engine_heads=4)
        assert r.batch_size == 2
        single = sim.price(_report([light]), engine_heads=4)
        assert r.attention_cycles > single.attention_cycles
        # per-sequence latency tails: two streams cost more than one
        # pooled stream of the same bytes
        pooled = _stats(fetched_chunks=1000, kept=220, n_tokens=512)
        assert (
            r.attention_cycles
            >= sim.price(_report([pooled]), engine_heads=4).attention_cycles
        )

    def test_baseline_variant_charges_unpruned_footprint(self, sim):
        report = _report([_stats(fetched_chunks=300, kept=20)])
        ours = sim.price(report, engine_heads=4)
        base = sim.price(report, "baseline", engine_heads=4)
        assert base.attention_cycles > ours.attention_cycles
        assert base.weight_cycles == ours.weight_cycles

    def test_validation(self, sim):
        report = _report([_stats(fetched_chunks=10, kept=5)])
        with pytest.raises(ValueError):
            sim.price(_report())
        with pytest.raises(ValueError):
            sim.price(report, engine_heads=0)
        with pytest.raises(ValueError):
            sim.price_fleet([])
        with pytest.raises(ValueError):
            sim.price_fleet([_report()])


class TestHostileInputs:
    """Cost-model inputs that used to price silently wrong (or crash at
    pricing time) fail loudly at the boundary."""

    def test_unknown_variant_rejected(self, sim):
        report = _report([_stats(fetched_chunks=300, kept=20)])
        with pytest.raises(ValueError, match="variant"):
            sim.price(report, "basline")
        with pytest.raises(ValueError, match="variant"):
            sim.price_fleet([report], "basline")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_bytes_per_cycle": 0},
            {"link_bytes_per_cycle": -64.0},
            {"link_bytes_per_cycle": float("nan")},
            {"latency_cycles": -1},
        ],
    )
    def test_interconnect_params_validated(self, kwargs):
        with pytest.raises(ValueError):
            InterconnectParams(**kwargs)

    def test_baseline_two_tier_undefined(self, sim):
        report = _report([_stats(fetched_chunks=300, kept=20)])
        with pytest.raises(ValueError, match="two-tier"):
            sim.price(report, "baseline", two_tier=True)


class TestThroughput:
    def test_tokens_per_second(self):
        r = StepCost(
            variant="topick", batch_size=16, clock_ghz=0.5, weight_cycles=1000,
            streams=(Stream("kv", 1000),),
        )
        # 2000 cycles at 500 MHz = 4 us for 16 tokens -> 4M tokens/s
        assert tokens_per_second(r) == pytest.approx(16 / (2000 / 0.5e9))
        assert step_seconds(r, spike_seconds=1e-3) == r.seconds + 1e-3
        with pytest.raises(ValueError):
            step_seconds(r, spike_seconds=-1.0)


class TestPrefillPricing:
    def test_prefill_bits_priced_as_extra_stream(self, sim):
        stats = _stats(fetched_chunks=300, kept=20)
        plain = sim.price(_report([stats]), engine_heads=4)
        with_ingest = sim.price(
            _report([stats], prefill_bits=4096 * 8), engine_heads=4
        )
        assert plain.prefill_cycles == 0
        assert with_ingest.prefill_cycles > 0
        assert with_ingest.attention_cycles == plain.attention_cycles
        assert with_ingest.weight_cycles == plain.weight_cycles
        assert with_ingest.total_cycles == (
            plain.total_cycles + with_ingest.prefill_cycles
        )

    def test_prefill_only_step_is_priceable(self, sim):
        """A step whose whole budget went to ingestion has no decode
        traffic but still has a modelled latency."""
        r = sim.price(_report(prefill_bits=10_000), engine_heads=4)
        assert r.batch_size == 0 and r.attention_cycles == 0
        assert r.prefill_cycles > 0
        assert r.total_cycles == r.weight_cycles + r.prefill_cycles
        # an idle step (no decode, no ingest) is still a ValueError
        with pytest.raises(ValueError):
            sim.price(_report(prefill_bits=0))

    def test_baseline_and_variant_charge_identical_ingest(self, sim):
        report = _report(
            [_stats(fetched_chunks=300, kept=20)], prefill_bits=65536
        )
        ours = sim.price(report, engine_heads=4)
        base = sim.price(report, "baseline", engine_heads=4)
        assert ours.prefill_cycles == base.prefill_cycles > 0

    def test_tiered_prefill_only_step_is_priceable(self, sim):
        """A tiered engine's ingest-only step (budget all spent on prompt
        chunks) prices like the untiered path: prefill cycles, no
        attention streams."""
        report = EngineStepReport(step_index=0, prefill_bits=24576)
        r = sim.price(report, engine_heads=4, two_tier=True)
        assert r.batch_size == 0 and r.prefill_cycles > 0
        assert [s.cycles for s in r.streams] == [0, 0]
        assert r.total_cycles == r.weight_cycles + r.prefill_cycles
        with pytest.raises(ValueError):
            sim.price(EngineStepReport(step_index=0), two_tier=True)


# ------------------------------------------------------- golden differential
ENGINE_HEADS = 4
HEAD_DIM = 64


def _golden_reports():
    """The fixed synthetic step reports the golden table prices."""
    rng = np.random.default_rng(17)
    quant = QuantConfig()

    def views(contexts, tiered):
        out = {}
        for sid, ctx in enumerate(contexts):
            n = ENGINE_HEADS * ctx
            kept = int(rng.integers(1, n // 2))
            stats = PruneStats(
                n_tokens=n,
                n_kept=kept,
                k_chunks_fetched=n + int(rng.integers(0, 2 * n)),
                v_vectors_fetched=kept,
                head_dim=HEAD_DIM,
                quant=quant,
            )
            slow = int(rng.integers(0, stats.total_bits_fetched // 3)) if tiered else -1
            out[sid] = SequenceStepView(
                seq_id=sid,
                request_id=sid,
                context_length=ctx,
                stats=stats,
                fast_bits=stats.total_bits_fetched - slow if tiered else -1,
                slow_bits=slow,
            )
        return out

    def shards(per_sequence, head_ranges):
        # uneven synthetic split of every sequence's traffic over the
        # shard workers, so the straggler is not a tie
        stats = [v.stats for v in per_sequence.values()]
        weights = np.arange(1, len(head_ranges) + 1)
        word = HEAD_DIM * quant.total_bits
        out = []
        for k, head_range in enumerate(head_ranges):
            def share(n):
                return int(n * weights[k] // weights.sum())

            kept = sum(share(s.n_kept) for s in stats)
            total = sum(share(s.n_tokens) for s in stats)
            out.append(
                ShardStepView(
                    shard=k,
                    head_range=head_range,
                    kept_pairs=kept,
                    total_pairs=total,
                    allgather_bits=kept * word,
                    baseline_allgather_bits=total * word,
                    seq_bits=tuple(share(s.total_bits_fetched) for s in stats),
                    seq_baseline_bits=tuple(
                        share(s.baseline_total_bits) for s in stats
                    ),
                )
            )
        return out

    def report(contexts=(), prefill_bits=0, tiered=False, head_ranges=()):
        per_sequence = views(contexts, tiered)
        return EngineStepReport(
            step_index=0,
            n_active=len(per_sequence),
            per_sequence=per_sequence,
            prefill_bits=prefill_bits,
            shard_views=shards(per_sequence, head_ranges),
        )

    cases = {
        "plain": report((48, 200, 1024), prefill_bits=40960),
        "prefill_only": report(prefill_bits=24576),
        "sharded_k2": report((64, 777), 8192, head_ranges=((0, 2), (2, 4))),
        "sharded_k3": report(
            (96, 500, 31), 12345, head_ranges=((0, 2), (2, 3), (3, 4))
        ),
        "tiered": report((128, 640), 4096, tiered=True),
        "sharded_tiered": report(
            (300, 90), 2048, tiered=True, head_ranges=((0, 2), (2, 4))
        ),
    }
    cases["cluster"] = [
        cases["tiered"], EngineStepReport(step_index=0), cases["sharded_k3"]
    ]
    return cases


#: every step of this model streams the same weights
WEIGHT_CYCLES = 1386052

#: Recorded at the parent of the `price` refactor from the per-method
#: pricers (engine / sharded / tiered pricing of each report above, at
#: engine_heads=4 on gpt2-medium).  (case, pricing) -> (attention stream
#: cycles, allgather cycles, prefill cycles, total cycles, bytes) where
#: bytes is the all-gather payload, or (fast, slow) DRAM bytes two-tier.
GOLDEN = {
    ("plain", "topick"): ((80436,), 0, 984, 1467472, 0),
    ("plain", "baseline"): ((183240,), 0, 984, 1570276, 0),
    ("plain", "two_tier"): ((80436, 0), 0, 984, 1467472, (41146368, 0)),
    ("prefill_only", "topick"): ((0,), 0, 600, 1386652, 0),
    ("prefill_only", "baseline"): ((0,), 0, 600, 1386652, 0),
    ("prefill_only", "two_tier"): ((0, 0), 0, 600, 1386652, (0, 0)),
    ("sharded_k2", "topick"): ((10742, 21436), 22244, 120, 1429852, 1391616),
    ("sharded_k2", "baseline"): ((40416, 80784), 484772, 120, 1951728, 30993408),
    ("sharded_k2", "two_tier"): ((32130, 0), 0, 216, 1418398, (16425984, 0)),
    ("sharded_k3", "topick"): (
        (7865, 15658, 23451), 150116, 169, 1559788, 9575424,
    ),
    ("sharded_k3", "baseline"): (
        (15120, 30168, 45216), 361364, 169, 1792801, 23095296,
    ),
    ("sharded_k3", "two_tier"): ((46830, 0), 0, 314, 1433196, (23940096, 0)),
    ("tiered", "topick"): ((41772,), 0, 120, 1427944, 0),
    ("tiered", "baseline"): ((110640,), 0, 120, 1496812, 0),
    ("tiered", "two_tier"): ((38786, 48193), 0, 120, 1434365, (19833336, 1529352)),
    ("sharded_tiered", "topick"): ((8484, 16920), 34196, 48, 1437216, 2156544),
    ("sharded_tiered", "baseline"): ((18768, 37488), 225140, 48, 1648728, 14376960),
    # the kept gap: two-tier pricing ignores the shards (and vice versa)
    ("sharded_tiered", "two_tier"): (
        (22508, 45986), 0, 72, 1432110, (11498964, 1458732),
    ),
}
#: the fleet aggregate over [tiered, idle, sharded_k3]: variant ->
#: (per-replica total cycles, decoding sequences, tokens/s at 0.5 GHz)
GOLDEN_FLEET = {
    "topick": ((1427944, 1559788), 5, 1661.9767249970942),
    "baseline": ((1496812, 1792801), 5, 1504.7661601892942),
}


def _price(sim, report, pricing):
    if pricing == "two_tier":
        return sim.price(report, engine_heads=ENGINE_HEADS, two_tier=True)
    return sim.price(report, pricing, engine_heads=ENGINE_HEADS)


class TestGoldenPricing:
    """One differential for the whole cost model: ``price`` (and every
    frozen alias of it) must reproduce, integer for integer, what the
    five per-method pricers it replaced produced for the same reports."""

    @pytest.fixture(scope="class")
    def reports(self):
        return _golden_reports()

    def test_price_reproduces_recorded_terms(self, sim, reports):
        for (case, pricing), expected in GOLDEN.items():
            cost = _price(sim, reports[case], pricing)
            if pricing == "two_tier":
                n_bytes = tuple(s.n_bytes for s in cost.streams)
            else:
                n_bytes = cost.trace_args.get("allgather", {}).get("bytes", 0)
            got = (
                tuple(s.cycles for s in cost.streams),
                cost.allgather_cycles,
                cost.prefill_cycles,
                cost.total_cycles,
                n_bytes,
            )
            assert got == expected, (case, pricing)
            assert cost.weight_cycles == WEIGHT_CYCLES
            assert cost.batch_size == len(reports[case].per_sequence)

    def test_fleet_reproduces_recorded_aggregate(self, sim, reports):
        for variant, (totals, batch, tok_s) in GOLDEN_FLEET.items():
            fleet = sim.price_fleet(
                reports["cluster"], variant, engine_heads=ENGINE_HEADS
            )
            # the idle replica contributes nothing
            assert tuple(r.total_cycles for r in fleet.per_replica) == totals
            assert fleet.batch_size == batch
            assert fleet.straggler.total_cycles == max(totals)
            assert fleet.seconds == fleet.straggler.seconds
            assert step_seconds(fleet) == max(totals) / 0.5e9
            assert fleet.aggregate_tokens_per_second() == pytest.approx(
                tok_s, rel=1e-12
            )
            assert fleet.aggregate_tokens_per_second() == pytest.approx(
                sum(r.batch_size / r.seconds for r in fleet.per_replica)
            )
            payload = fleet.span_payload()
            assert payload["total_cycles"] == max(totals)
            assert payload["cluster_total_cycles"] == sum(totals)
            assert payload["n_replicas"] == len(totals)

    def test_frozen_aliases_are_price(self, sim, reports):
        """The benchmark's frozen spellings add nothing to ``price``."""
        aliases = {
            name.rsplit("_", 1)[1]: getattr(sim, name)
            for name in vars(ServingSimulator)
            if name.startswith("step_")
        }
        assert sorted(aliases) == [
            "cluster", "engine", "sharded", "tiered", "traffic",
        ]
        heads = ENGINE_HEADS
        for case, report in reports.items():
            if case == "cluster":
                for variant in GOLDEN_FLEET:
                    assert aliases["cluster"](
                        report, variant=variant, engine_heads=heads
                    ) == sim.price_fleet(report, variant, heads)
                continue
            for variant in ("topick", "baseline"):
                cost = sim.price(report, variant, heads)
                for kind in ("engine", "sharded"):
                    assert aliases[kind](
                        report, variant=variant, engine_heads=heads
                    ) == cost
                if not report.shard_views:
                    stats = [v.stats for v in report.per_sequence.values()]
                    assert aliases["traffic"](
                        stats, variant, heads, report.prefill_bits
                    ) == cost
            assert aliases["tiered"](report, engine_heads=heads) == sim.price(
                report, engine_heads=heads, two_tier=True
            )

    def test_term_algebra(self, sim, reports):
        """Serial terms add; attention is the max over its streams."""
        for (case, pricing) in GOLDEN:
            cost = _price(sim, reports[case], pricing)
            assert [name for name, _ in cost.terms] == [
                "weights", "attention", "allgather", "prefill",
            ]
            assert cost.attention_cycles == max(s.cycles for s in cost.streams)
            assert cost.total_cycles == (
                cost.weight_cycles
                + max(s.cycles for s in cost.streams)
                + cost.allgather_cycles
                + cost.prefill_cycles
            )
            assert cost.seconds == cost.total_cycles / (sim.hw.clock_ghz * 1e9)
            # the trace payload is the cost's own term list
            payload = cost.span_payload()
            assert payload["total_cycles"] == cost.total_cycles
            assert payload["modelled_seconds"] == cost.seconds
            assert [
                (p["name"], p["cycles"]) for p in payload["phases"]
            ] == list(cost.terms)
        tiered = reports["tiered"]
        plain = _price(sim, tiered, "topick")
        two_tier = _price(sim, tiered, "two_tier")
        # demoted bits left the fast stream; the slow tier is the straggler
        fast, slow = two_tier.streams
        assert fast.cycles < plain.attention_cycles
        assert two_tier.slow_attention_cycles == slow.cycles
        assert two_tier.attention_cycles == slow.cycles > fast.cycles
        # pruning shrinks attention (and the wire), never the weights
        base = _price(sim, tiered, "baseline")
        assert 0 < plain.attention_cycles < base.attention_cycles
        assert plain.weight_cycles == base.weight_cycles
        sharded = reports["sharded_k3"]
        assert (
            _price(sim, sharded, "topick").allgather_cycles
            < _price(sim, sharded, "baseline").allgather_cycles
        )

    def test_seconds_follow_the_hardware_clock(self, sim, reports):
        """``HardwareParams.clock_ghz`` is the one cycles-to-seconds
        conversion (it used to be ignored for a hard-coded 0.5)."""
        fast_clock = ServingSimulator(
            sim.model, sim.context_length, hw=HardwareParams(clock_ghz=1.0)
        )
        for report in (reports["plain"], reports["sharded_k2"]):
            cost = sim.price(report, engine_heads=ENGINE_HEADS)
            faster = fast_clock.price(report, engine_heads=ENGINE_HEADS)
            assert faster.total_cycles == cost.total_cycles
            assert faster.seconds == cost.seconds / 2
            assert tokens_per_second(faster) == pytest.approx(
                2 * tokens_per_second(cost)
            )
            assert faster.span_payload()["clock_ghz"] == 1.0
        fleet = fast_clock.price_fleet(
            reports["cluster"], engine_heads=ENGINE_HEADS
        )
        slow_fleet = sim.price_fleet(reports["cluster"], engine_heads=ENGINE_HEADS)
        assert fleet.seconds == slow_fleet.seconds / 2
