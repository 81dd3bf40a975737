"""Experiment F7 — Figure 7: order processing with asymmetric validation.

Replays the exact edit sequence of the paper's screenshot:

1. the customer orders 2 widget1s                      (valid)
2. the supplier prices widget1 at 10 per unit          (valid)
3. the customer amends the order for 10 widget2s       (valid)
4. the supplier prices widget2 AND changes its quantity (invalid)

Asserted: steps 1-3 are reflected at both replicas; step 4 is rejected as
a whole and is not reflected in the customer's copy.
"""

from __future__ import annotations

from repro.apps.orders import (
    ROLE_CUSTOMER,
    ROLE_SUPPLIER,
    OrderClient,
    OrderObject,
)
from repro.core import Community, SimRuntime
from repro.errors import ValidationFailed
from repro.obs.report import format_table

ROLES = {"Customer": ROLE_CUSTOMER, "Supplier": ROLE_SUPPLIER}


def build(seed=0):
    community = Community(["Customer", "Supplier"],
                          runtime=SimRuntime(seed=seed))
    objects = {n: OrderObject(ROLES) for n in community.names()}
    controllers = community.found_object("order", objects)
    return (community, OrderClient(controllers["Customer"]),
            OrderClient(controllers["Supplier"]), objects)


def test_fig7_order_processing(benchmark, report):
    community, customer, supplier, objects = build()
    steps = []

    customer.add_item("widget1", 2)
    steps.append(["customer orders 2 widget1", "accepted"])
    supplier.price_item("widget1", 10)
    steps.append(["supplier prices widget1 at 10", "accepted"])
    customer.add_item("widget2", 10)
    steps.append(["customer orders 10 widget2", "accepted"])
    try:
        supplier.price_and_change_quantity("widget2", 20, 5)
        steps.append(["supplier prices widget2 + changes quantity", "ACCEPTED?!"])
        rejected = False
    except ValidationFailed as exc:
        steps.append(["supplier prices widget2 + changes quantity",
                      f"rejected: {exc.diagnostics[0]}"])
        rejected = True
    community.settle(1.0)

    assert rejected
    for name in ("Customer", "Supplier"):
        assert objects[name].item("widget1") == {
            "quantity": 2, "price": 10, "approved": False}
        # the invalid composite change left widget2 untouched
        assert objects[name].item("widget2") == {
            "quantity": 10, "price": None, "approved": False}

    # Benchmark one customer edit + one supplier pricing round-trip.
    seeds = iter(range(1, 1_000_000))

    def one_exchange():
        _com, cust, supp, _objs = build(seed=next(seeds))
        cust.add_item("widgetX", 1)
        supp.price_item("widgetX", 5)

    benchmark.pedantic(one_exchange, rounds=15, iterations=1)

    body = format_table(["action", "outcome"], steps) + (
        "\n\nfinal order at both replicas: widget1 x2 @10, widget2 x10 unpriced"
    )
    report("F7", "order processing with asymmetric validation", body)
