"""Experiment F3 — Figure 3: cost of B2BObjects augmentation.

Figure 3 depicts how an application object is augmented with state
management, check-pointing, certificates, non-repudiation and
inter-organisation invocation.  We measure what that augmentation costs:
a bare in-process ``setAttribute`` versus the same call through the
generated coordinated wrapper (two-party deployment, loss-free network).

Expected shape: the augmented call is orders of magnitude more expensive
(signatures, time-stamps, logging, a network round), which is exactly the
trade the paper proposes — pay per *agreed* state change, not per read
(wrapped reads stay cheap).
"""

from __future__ import annotations

import time

from repro.core import Community, DictB2BObject, SimRuntime, wrap_object
from repro.obs.report import format_table


class PlainOrder:
    """The unaugmented enterprise object."""

    def __init__(self):
        self._state = {}

    def get_state(self):
        return dict(self._state)

    def apply_state(self, state):
        self._state = dict(state)

    def set_attribute(self, name, value):
        self._state[name] = value

    def get_attribute(self, name):
        return self._state.get(name)


def build_wrapped(seed=0):
    from repro.core.wrapper import WrappedB2BObject
    community = Community(["Org1", "Org2"], runtime=SimRuntime(seed=seed))
    apps = {n: PlainOrder() for n in community.names()}
    objects = {n: WrappedB2BObject(app) for n, app in apps.items()}
    controllers = community.found_object("order", objects)
    proxy = wrap_object(apps["Org1"], controllers["Org1"],
                        write_methods=["set_attribute"],
                        read_methods=["get_attribute"])
    return community, proxy, apps


def _time_calls(fn, count):
    start = time.perf_counter()
    for _ in range(count):
        fn()
    return (time.perf_counter() - start) / count


def test_fig3_augmentation_overhead(benchmark, report):
    bare = PlainOrder()
    counter = iter(range(10_000_000))
    bare_cost = _time_calls(lambda: bare.set_attribute("k", next(counter)), 20_000)

    community, proxy, apps = build_wrapped()
    wrapped_cost = _time_calls(
        lambda: proxy.set_attribute("k", next(counter)), 50
    )
    read_cost = _time_calls(lambda: proxy.get_attribute("k"), 2_000)

    def run():
        proxy.set_attribute("k", next(counter))

    benchmark(run)

    community.settle(1.0)
    assert apps["Org2"].get_attribute("k") is not None  # change replicated

    factor = wrapped_cost / bare_cost
    rows = [
        ["bare setAttribute", bare_cost * 1e6],
        ["wrapped (coordinated) setAttribute", wrapped_cost * 1e6],
        ["wrapped (examine-scoped) getAttribute", read_cost * 1e6],
    ]
    body = format_table(["call", "mean cost (us)"], rows) + (
        f"\n\naugmentation overhead factor on writes: {factor:.0f}x\n"
        "reads stay local: no coordination messages for examine scopes"
    )
    report("F3", "B2BObjects augmentation overhead", body)

    assert factor > 50  # writes pay for agreement
    assert read_cost < wrapped_cost / 10  # reads do not
