"""Communication substrate: raw networks and the once-only reliable layer."""

from repro.transport.base import (
    Envelope,
    MessageHandler,
    Network,
    NetworkFilter,
    TimerHandle,
)
from repro.transport.inmemory import LinkProfile, NetworkStats, SimNetwork
from repro.transport.mom import BrokeredSimNetwork
from repro.transport.reliable import ReliableEndpoint
from repro.transport.tcp import TcpNetwork

__all__ = [
    "Envelope",
    "MessageHandler",
    "Network",
    "NetworkFilter",
    "TimerHandle",
    "LinkProfile",
    "NetworkStats",
    "SimNetwork",
    "BrokeredSimNetwork",
    "ReliableEndpoint",
    "TcpNetwork",
]
