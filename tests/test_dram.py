"""Tests for the HBM2 channel model."""

import pytest

from repro.hw.dram import DRAMRequest, HBM2Model, streaming_cycles


class TestSubmit:
    def test_single_request_latency(self):
        m = HBM2Model(latency_cycles=24, bytes_per_cycle=64)
        r = DRAMRequest(channel=0, n_bytes=64, issue_cycle=0)
        ready = m.submit(r)
        assert ready == 25  # 1 cycle transfer + 24 latency
        assert r.ready_cycle == 25

    def test_half_cycle_chunks_share_a_cycle(self):
        """Two 32 B chunks fit in one 64 B/cycle channel cycle."""
        m = HBM2Model(latency_cycles=10, bytes_per_cycle=64)
        r1 = m.submit(DRAMRequest(channel=0, n_bytes=32, issue_cycle=0))
        r2 = m.submit(DRAMRequest(channel=0, n_bytes=32, issue_cycle=0))
        assert r1 == 11  # ceil(0.5 + 10)
        assert r2 == 11  # ceil(1.0 + 10)

    def test_queueing_behind_busy_channel(self):
        m = HBM2Model(latency_cycles=5, bytes_per_cycle=64)
        m.submit(DRAMRequest(channel=0, n_bytes=640, issue_cycle=0))  # busy 10
        r = m.submit(DRAMRequest(channel=0, n_bytes=64, issue_cycle=0))
        assert r == 16  # starts at 10, +1 transfer, +5 latency

    def test_channels_independent(self):
        m = HBM2Model(latency_cycles=5, bytes_per_cycle=64)
        m.submit(DRAMRequest(channel=0, n_bytes=6400, issue_cycle=0))
        r = m.submit(DRAMRequest(channel=1, n_bytes=64, issue_cycle=0))
        assert r == 6

    def test_random_access_penalty(self):
        m = HBM2Model(latency_cycles=5, bytes_per_cycle=64, random_access_penalty=2.0)
        r_stream = m.submit(DRAMRequest(channel=0, n_bytes=64, issue_cycle=0))
        m.reset()
        r_rand = m.submit(
            DRAMRequest(channel=0, n_bytes=64, issue_cycle=0, streaming=False)
        )
        assert r_rand == r_stream + 2

    def test_counters(self):
        m = HBM2Model()
        m.submit(DRAMRequest(channel=0, n_bytes=128, issue_cycle=0))
        m.submit(DRAMRequest(channel=3, n_bytes=64, issue_cycle=0))
        assert m.total_bytes == 192
        assert m.requests_served == 2
        assert m.bytes_transferred[0] == 128

    def test_reset(self):
        m = HBM2Model(latency_cycles=24, bytes_per_cycle=64)
        m.submit(DRAMRequest(channel=0, n_bytes=64, issue_cycle=0))
        m.reset()
        assert m.total_bytes == 0
        assert m.requests_served == 0
        # the channel is idle again: a fresh request sees no queueing
        assert m.submit(DRAMRequest(channel=0, n_bytes=64, issue_cycle=0)) == 25

    def test_invalid_channel(self):
        m = HBM2Model(n_channels=2)
        with pytest.raises(ValueError):
            m.submit(DRAMRequest(channel=2, n_bytes=64, issue_cycle=0))

    def test_invalid_bytes(self):
        m = HBM2Model()
        with pytest.raises(ValueError):
            m.submit(DRAMRequest(channel=0, n_bytes=0, issue_cycle=0))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HBM2Model(n_channels=0)
        with pytest.raises(ValueError):
            HBM2Model(random_access_penalty=-1)


class TestStreamingCycles:
    def test_zero_bytes(self):
        assert streaming_cycles(0) == 0

    def test_bandwidth_bound(self):
        # 512 KiB over 8 channels x 64 B/cycle = 1024 cycles + latency
        assert streaming_cycles(512 * 1024, 8, 64, 24) == 24 + 1024

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            streaming_cycles(-1)

    def test_single_byte(self):
        assert streaming_cycles(1, 8, 64, 24) == 25
