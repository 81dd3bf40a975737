"""repro.gateway — the front-door client gateway.

Admission control between a large, bursty client population and one
organisation's coordination middleware: per-client token-bucket rate
limiting, one bounded write queue per object, idempotency keys for
exactly-once retries, and a per-object circuit breaker that fails fast
while the community is unhealthy.  :mod:`repro.gateway.loadsim` drives
10^5+ simulated clients through all of it over virtual time.
"""

from repro.gateway.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.gateway.gateway import Gateway, GatewayTicket
from repro.gateway.idempotency import IdempotencyCache
from repro.gateway.loadsim import (
    CRASH_BREAKER_OPTIONS,
    CounterObject,
    CrashInjection,
    LoadSim,
    LoadSimConfig,
    LoadSimStats,
    build_gateway_community,
    run_crash_scenario,
    run_load_sim,
)
from repro.gateway.ratelimit import RateLimiter, TokenBucket
from repro.gateway.session import ClientSession

__all__ = [
    "CircuitBreaker",
    "CLOSED",
    "ClientSession",
    "CounterObject",
    "Gateway",
    "GatewayTicket",
    "HALF_OPEN",
    "IdempotencyCache",
    "LoadSim",
    "LoadSimConfig",
    "LoadSimStats",
    "OPEN",
    "RateLimiter",
    "TokenBucket",
    "CRASH_BREAKER_OPTIONS",
    "CrashInjection",
    "build_gateway_community",
    "run_crash_scenario",
    "run_load_sim",
]
