"""Tests for the DNS translation cache."""

from __future__ import annotations

import pytest

from repro.traces.dns import DnsCache
from repro.traces.records import FlowRecord, Protocol


def answer(t: float, client: int, resolved: int, resolver: int = 999) -> FlowRecord:
    return FlowRecord(
        time=t, src=resolver, dst=client, protocol=Protocol.UDP,
        src_port=53, dst_port=33000, dns_answer=resolved,
    )


class TestDnsCache:
    def test_observe_installs_translation(self):
        cache = DnsCache(ttl=60)
        assert cache.observe(answer(10.0, client=1, resolved=500))
        assert cache.has_valid_translation(1, 500, now=10.0)
        assert cache.has_valid_translation(1, 500, now=69.9)

    def test_translation_expires(self):
        cache = DnsCache(ttl=60)
        cache.observe(answer(10.0, client=1, resolved=500))
        assert not cache.has_valid_translation(1, 500, now=70.1)

    def test_per_client_isolation(self):
        cache = DnsCache()
        cache.observe(answer(0.0, client=1, resolved=500))
        assert not cache.has_valid_translation(2, 500, now=0.0)

    def test_non_answers_ignored(self):
        cache = DnsCache()
        query = FlowRecord(time=0, src=1, dst=999, protocol=Protocol.UDP,
                           src_port=33000, dst_port=53)
        assert not cache.observe(query)

    def test_answer_must_come_from_port_53(self):
        cache = DnsCache()
        spoofed = FlowRecord(time=0, src=999, dst=1, protocol=Protocol.UDP,
                             src_port=4444, dst_port=33000, dns_answer=500)
        assert not cache.observe(spoofed)

    def test_refresh_extends_lifetime(self):
        cache = DnsCache(ttl=60)
        cache.observe(answer(0.0, client=1, resolved=500))
        cache.observe(answer(50.0, client=1, resolved=500))
        assert cache.has_valid_translation(1, 500, now=100.0)

    def test_rejects_bad_ttl(self):
        with pytest.raises(ValueError):
            DnsCache(ttl=0)
