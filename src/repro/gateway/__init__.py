"""repro.gateway — the front-door client gateway.

Admission control between a large, bursty client population and one
organisation's coordination middleware: per-client token-bucket rate
limiting, one bounded write queue per object (the one back-pressure
signal), and idempotency keys for exactly-once retries.
:mod:`repro.gateway.loadsim` drives 10^5+ simulated clients through all
of it over virtual time.
"""

from repro.gateway.gateway import Gateway, GatewayTicket
from repro.gateway.idempotency import IdempotencyCache
from repro.gateway.loadsim import (
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
    "ClientSession",
    "CounterObject",
    "Gateway",
    "GatewayTicket",
    "IdempotencyCache",
    "LoadSim",
    "LoadSimConfig",
    "LoadSimStats",
    "RateLimiter",
    "TokenBucket",
    "CrashInjection",
    "build_gateway_community",
    "run_crash_scenario",
    "run_load_sim",
]
