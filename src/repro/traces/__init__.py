"""Trace study substrate (Section 7): flow records, DNS translation model
and contact classification, synthetic campus-trace generation, windowed
contact counting, rate-limit derivation, and behavioural host
classification."""

from .analysis import (
    RateLimitTable,
    empirical_cdf,
    peak_scan_rate,
    recommend_rate_limits,
    window_size_study,
)
from .classify import HostProfile, census, classify_hosts, profile_hosts
from .dns import DEFAULT_DNS_TTL, ContactClassifier, DnsCache
from .records import (
    DEFAULT_FAILURE_TIMEOUT,
    DNS_PORT,
    FailedContact,
    FlowRecord,
    HostClass,
    Protocol,
    Trace,
    TraceError,
    ip_to_str,
    str_to_ip,
)
from .synth import (
    INTERNAL_BASE,
    RESOLVER_IP,
    TraceConfig,
    generate_trace,
    iter_flow_records,
)
from .windows import (
    Refinement,
    WindowCounts,
    count_contacts,
    per_host_counts,
)

__all__ = [
    "RateLimitTable",
    "empirical_cdf",
    "peak_scan_rate",
    "recommend_rate_limits",
    "window_size_study",
    "HostProfile",
    "census",
    "classify_hosts",
    "profile_hosts",
    "DEFAULT_DNS_TTL",
    "ContactClassifier",
    "DnsCache",
    "DEFAULT_FAILURE_TIMEOUT",
    "DNS_PORT",
    "FailedContact",
    "FlowRecord",
    "HostClass",
    "Protocol",
    "Trace",
    "TraceError",
    "ip_to_str",
    "str_to_ip",
    "INTERNAL_BASE",
    "RESOLVER_IP",
    "TraceConfig",
    "generate_trace",
    "iter_flow_records",
    "Refinement",
    "WindowCounts",
    "count_contacts",
    "per_host_counts",
]
