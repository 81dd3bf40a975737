"""Experiment C5 — update vs overwrite of object state (section 4.3.1).

The modified propose/respond messages let a proposer ship an update (a
delta) instead of the whole new state; recipients verify H(update) and
that applying the agreed update yields the claimed new state hash.

We coordinate a small change to a large object both ways and compare the
bytes on the wire.  Expected shape: update-mode traffic is roughly flat
in the object size while overwrite grows linearly; both converge to the
identical state.
"""

from __future__ import annotations

from repro.bench.harness import build_community
from repro.bench.metrics import format_table
from repro.bench.workload import large_state
from repro.core import DictB2BObject
from repro.obs.hooks import approx_size
from repro.transport.base import NetworkFilter


class WireBytes(NetworkFilter):
    """Sizes every envelope the simulated network is asked to send."""

    def __init__(self):
        self.total = 0

    def on_send(self, envelope):
        self.total += approx_size(envelope.to_dict())
        return envelope


def coordinate(state_bytes, use_update, seed=0):
    community = build_community(2, seed=seed)
    base = large_state(state_bytes)
    objects = {n: DictB2BObject(base) for n in community.names()}
    controllers = community.found_object("big", objects)
    wire = WireBytes()
    community.runtime.network.add_filter(wire)
    controller = controllers["Org1"]
    controller.enter()
    if use_update:
        controller.update()
    else:
        controller.overwrite()
    objects["Org1"].set_attribute("delta", 1)
    controller.leave()
    community.settle(2.0)
    assert objects["Org2"].get_attribute("delta") == 1
    assert objects["Org2"].attributes() == objects["Org1"].attributes()
    return wire.total


def test_c5_update_vs_overwrite(benchmark, report):
    rows = []
    ratios = []
    for size in (1_000, 10_000, 50_000):
        overwrite_bytes = coordinate(size, use_update=False, seed=size)
        update_bytes = coordinate(size, use_update=True, seed=size + 1)
        ratio = overwrite_bytes / update_bytes
        ratios.append((size, ratio))
        rows.append([size, overwrite_bytes, update_bytes, ratio])

    # Shape: the advantage of update mode grows with object size.
    assert ratios[-1][1] > ratios[0][1]
    assert ratios[-1][1] > 3  # large object: update wins by a wide margin

    seeds = iter(range(100, 1_000_000))

    def one_update_run():
        coordinate(10_000, use_update=True, seed=next(seeds))

    benchmark.pedantic(one_update_run, rounds=10, iterations=1)

    body = format_table(
        ["object size (bytes)", "overwrite wire bytes",
         "update wire bytes", "overwrite/update"],
        rows,
    ) + "\n\nupdate mode advantage grows with state size: yes"
    report("C5", "update vs overwrite coordination", body)
