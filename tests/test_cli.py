"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestCLI:
    def test_fast_analytic_experiments(self, capsys):
        code = main(["fig2", "table1", "table2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 2" in out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "regenerated in" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "dominant" in capsys.readouterr().out

    def test_serve_sim(self, capsys):
        """One replica is the default stack."""
        code = main([
            "serve", "--batch-size", "4", "--n-requests", "6",
            "--context-length", "48", "--max-new-tokens", "4",
            "--admission", "conservative", "--burst-gap", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Serving simulation" in out
        assert "1 replica," in out
        assert "peak batch 4" in out
        assert "KV-bit reduction" in out
        assert "tokens/s" in out

    def test_serve_sim_profile(self, capsys):
        code = main([
            "serve", "--batch-size", "4", "--n-requests", "6",
            "--context-length", "48", "--max-new-tokens", "4", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "phase breakdown" in out
        for phase in ("prefill", "pack", "score", "prune", "unpack"):
            assert phase in out
        assert "ms/step" in out

    def test_serve_sim_profile_shares_sum_to_100(self, capsys):
        """The score sub-phases sit inside "score": counting them again
        left the printed shares at ~80 %."""
        code = main([
            "serve", "--batch-size", "4", "--n-requests", "6",
            "--context-length", "48", "--max-new-tokens", "4",
            "--prefill-budget", "16", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        shares = [
            float(line.rsplit("(", 1)[1].rstrip("%)"))
            for line in out.splitlines()
            if "ms/step (" in line
        ]
        assert len(shares) == 5
        assert sum(shares) == pytest.approx(100.0, abs=0.5)

    def test_serve_sim_kv_tiering_profile(self, capsys):
        code = main([
            "serve", "--batch-size", "4", "--n-requests", "6",
            "--context-length", "48", "--max-new-tokens", "4",
            "--kv-tiering", "--prefix-cache", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "kv tiering (mass policy" in out
        assert "demotions" in out
        assert "B/token" in out
        assert "prefix cache: hit rate" in out

    def test_serve_cluster_tiered_admission(self, capsys):
        code = main([
            "serve", "--replicas", "2", "--batch-size", "4",
            "--n-requests", "8", "--context-length", "48",
            "--max-new-tokens", "4", "--burst-size", "4",
            "--admission", "tiered", "--kv-tiering", "--prefix-cache",
            "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "tiered admission" in out
        assert "kv tiering" in out
        assert "prefix cache" in out

    def test_all_excludes_serve_sim(self, capsys):
        """`all` regenerates the paper artifacts only."""
        from repro import cli

        assert "serve" not in cli.EXPERIMENTS

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_no_args_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_experiment_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "table1", "table2",
        }


SERVE_SIM_ARGS = [
    "serve", "--batch-size", "4", "--n-requests", "8",
    "--context-length", "48", "--max-new-tokens", "4", "--seed", "3",
]
SERVE_CLUSTER_ARGS = [
    "serve", "--replicas", "2", "--batch-size", "4",
    "--n-requests", "8", "--context-length", "48", "--max-new-tokens", "4",
    "--burst-size", "4", "--burst-gap", "2", "--seed", "3",
]


def _output_without_timing(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    return "\n".join(
        line for line in out.splitlines() if "regenerated in" not in line
    )


class TestServeCluster:
    def test_serve_cluster_runs(self, capsys):
        code = main(SERVE_CLUSTER_ARGS)
        out = capsys.readouterr().out
        assert code == 0
        assert "Serving simulation" in out
        assert "2 replicas" in out
        assert "optimistic admission" in out
        assert "decode throughput" in out
        assert "replica 0:" in out and "replica 1:" in out

    def test_serve_cluster_profile_percentiles(self, capsys):
        """Acceptance: --profile surfaces per-replica TTFT and per-token
        latency p50/p95/p99 from the metrics registry."""
        code = main(SERVE_CLUSTER_ARGS + ["--profile"])
        out = capsys.readouterr().out
        assert code == 0
        blocks = out.split("  replica 1:\n")
        assert len(blocks) == 2
        for block in blocks:
            assert "TTFT" in block and "token latency" in block
        assert "p50" in out and "p95" in out and "p99" in out

    def test_serve_cluster_conservative_and_policies(self, capsys):
        code = main(
            SERVE_CLUSTER_ARGS
            + ["--admission", "conservative", "--policy", "round-robin"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "conservative admission" in out
        assert "preemptions: 0" in out

    def test_serve_sim_deterministic_across_runs(self, capsys):
        """Satellite: the --seed threads every RNG the engine draws from —
        two identical invocations print identical summaries (wall-clock
        appears only under --profile)."""
        first = _output_without_timing(capsys, SERVE_SIM_ARGS)
        second = _output_without_timing(capsys, SERVE_SIM_ARGS)
        assert first == second

    def test_serve_cluster_deterministic_across_runs(self, capsys):
        first = _output_without_timing(capsys, SERVE_CLUSTER_ARGS)
        second = _output_without_timing(capsys, SERVE_CLUSTER_ARGS)
        assert first == second

    def test_seed_changes_the_workload(self, capsys):
        baseline = _output_without_timing(capsys, SERVE_CLUSTER_ARGS)
        other = _output_without_timing(
            capsys, SERVE_CLUSTER_ARGS[:-1] + ["4"]
        )
        assert baseline != other


SERVE_FRONTEND_ARGS = [
    "serve", "--batch-size", "2", "--n-requests", "6",
    "--context-length", "24", "--max-new-tokens", "6", "--seed", "3",
]
#: a deadline no run reaches: the frontend runs, nothing times out
UNDER_FRONTEND = ["--deadline", "60000"]


class TestServeFrontend:
    def test_serve_frontend_runs(self, capsys):
        code = main(SERVE_FRONTEND_ARGS + UNDER_FRONTEND)
        out = capsys.readouterr().out
        assert code == 0
        assert "frontend: submitted: 6  completed: 6" in out
        assert "shed: 0" in out
        assert "Serving simulation" in out

    def test_serve_frontend_slo_profile(self, capsys):
        """Satellite: --slo-p95-ms activates the overload controller and
        --profile exports the degrade-level gauge and shed/cancel/timeout
        counters from the metrics registry."""
        code = main(
            SERVE_FRONTEND_ARGS + ["--slo-p95-ms", "1.0", "--profile"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "overload control: SLO p95 1 ms" in out
        assert "peak degrade level" in out
        for metric in (
            "keep_threshold_degrade_level",
            "overload_shedding",
            "requests_cancelled",
            "requests_shed",
            "requests_timed_out",
        ):
            assert metric in out, metric

    def test_serve_frontend_chaos_bit_identical(self, capsys):
        code = main(SERVE_FRONTEND_ARGS + [
            "--inject-faults", "--replicas", "3", "--max-new-tokens", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "kills: 2" in out
        assert "completed: 6/6" in out
        assert "bit-identical to fault-free run: True" in out

    def test_serve_frontend_chaos_needs_replicas(self):
        with pytest.raises(ValueError):
            main(SERVE_FRONTEND_ARGS + [
                "--inject-faults", "--replicas", "1",
            ])

    def test_serve_frontend_deterministic_across_runs(self, capsys):
        argv = SERVE_FRONTEND_ARGS + UNDER_FRONTEND + ["--replicas", "2"]
        first = _output_without_timing(capsys, argv)
        second = _output_without_timing(capsys, argv)
        assert first == second

    def test_every_flag_applies_to_the_chaos_run(self, capsys):
        """The stack flags reach both chaos runs (they used to be dropped
        silently); the frontend flags are refused, not ignored."""
        code = main(SERVE_FRONTEND_ARGS + [
            "--inject-faults", "--replicas", "3", "--kv-tiering",
            "--prefix-cache", "--prefill-budget", "8",
            "--admission", "tiered", "--profile",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "kv tiering (mass policy" in out
        assert "prefix cache: hit rate" in out
        assert "chunked prefill (budget 8)" in out
        assert "bit-identical to fault-free run: True" in out
        for flag in (["--slo-p95-ms", "1"], ["--deadline", "50"]):
            with pytest.raises(ValueError, match="inject-faults"):
                main(SERVE_FRONTEND_ARGS + [
                    "--inject-faults", "--replicas", "3", *flag,
                ])

    def test_idle_tick_after_every_request_timed_out(self, capsys):
        """A deadline no request can meet: each tick expires what is
        live, so the frontend prices idle fleet steps (it used to raise)."""
        code = main(SERVE_FRONTEND_ARGS + ["--deadline", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed: 0  timed out: 6" in out
