"""Order processing (section 5.2, Figure 7).

A customer and a supplier share the state of an order under *asymmetric*
validation rules: "The customer is allowed to add items and the quantity
required to an order but is not allowed to price the items.  The supplier
can price items but cannot amend the order in any other way."

The alternative four-party instantiation (approver + dispatcher) from the
end of section 5.2 is also provided: the approver sanctions ordered items
and the dispatcher commits to delivery terms.

Order state::

    {
      "items": {name: {"quantity": int, "price": int|None,
                        "approved": bool}},
      "delivery": {"terms": str, "committed": bool} | None,
    }
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.controller import B2BObjectController
from repro.core.object import B2BObject
from repro.errors import RuleViolation
from repro.protocol.validation import Decision

ROLE_CUSTOMER = "customer"
ROLE_SUPPLIER = "supplier"
ROLE_APPROVER = "approver"
ROLE_DISPATCHER = "dispatcher"

ALL_ROLES = (ROLE_CUSTOMER, ROLE_SUPPLIER, ROLE_APPROVER, ROLE_DISPATCHER)


def empty_order() -> dict:
    return {"items": {}, "delivery": None}


#: Update-mode operations understood by :meth:`OrderObject.merge_update`.
ORDER_OPS = ("add_item", "change_quantity", "price_item", "approve_item",
             "commit_delivery")


def apply_order_op(state: dict, update: Any) -> dict:
    """Pure ``state after op`` for one order operation dict.

    Shared by :meth:`OrderObject.merge_update` on every replica, so it
    must be deterministic; bad operations raise :class:`RuleViolation`
    which the coordination engine turns into a veto diagnostic.
    """
    if not isinstance(update, dict) or update.get("op") not in ORDER_OPS:
        raise RuleViolation(f"unknown order operation: {update!r}")
    merged = {
        "items": {name: dict(item)
                  for name, item in (state.get("items") or {}).items()},
        "delivery": (dict(state["delivery"])
                     if state.get("delivery") else None),
    }
    op = update["op"]
    if op == "commit_delivery":
        merged["delivery"] = {"terms": update.get("terms"), "committed": True}
        return merged
    name = update.get("name")
    if op == "add_item":
        merged["items"][name] = {
            "quantity": update.get("quantity"), "price": None,
            "approved": False,
        }
        return merged
    if name not in merged["items"]:
        raise RuleViolation(f"order has no item {name!r}")
    if op == "change_quantity":
        merged["items"][name]["quantity"] = update.get("quantity")
    elif op == "price_item":
        merged["items"][name]["price"] = update.get("price")
    elif op == "approve_item":
        merged["items"][name]["approved"] = True
    return merged


def _normalise_item(item: Any) -> dict:
    if not isinstance(item, dict):
        raise RuleViolation("order items must be dicts")
    return {
        "quantity": item.get("quantity"),
        "price": item.get("price"),
        "approved": bool(item.get("approved", False)),
    }


def diff_orders(current: dict, proposed: dict) -> "list[str]":
    """Describe every field-level change between two orders.

    Each change is a string tag the role rules match against:
    ``add:<name>``, ``remove:<name>``, ``quantity:<name>``,
    ``price:<name>``, ``approve:<name>``, ``delivery``.
    """
    changes: "list[str]" = []
    old_items = current.get("items", {}) or {}
    new_items = proposed.get("items", {}) or {}
    for name in new_items:
        if name not in old_items:
            changes.append(f"add:{name}")
            new = _normalise_item(new_items[name])
            if new["price"] is not None:
                changes.append(f"price:{name}")
            if new["approved"]:
                changes.append(f"approve:{name}")
            continue
        old = _normalise_item(old_items[name])
        new = _normalise_item(new_items[name])
        if old["quantity"] != new["quantity"]:
            changes.append(f"quantity:{name}")
        if old["price"] != new["price"]:
            changes.append(f"price:{name}")
        if old["approved"] != new["approved"]:
            changes.append(f"approve:{name}")
    for name in old_items:
        if name not in new_items:
            changes.append(f"remove:{name}")
    if (current.get("delivery") or None) != (proposed.get("delivery") or None):
        changes.append("delivery")
    return changes


def _allowed(role: str, change: str) -> bool:
    kind = change.split(":", 1)[0]
    if role == ROLE_CUSTOMER:
        return kind in ("add", "remove", "quantity")
    if role == ROLE_SUPPLIER:
        return kind == "price"
    if role == ROLE_APPROVER:
        return kind == "approve"
    if role == ROLE_DISPATCHER:
        return kind == "delivery"
    return False


class OrderObject(B2BObject):
    """The shared order with role-based asymmetric validation.

    *roles* maps organisation ids to roles, e.g.
    ``{"Customer": "customer", "Supplier": "supplier"}``.  A change is
    valid iff every field-level change it contains is permitted for the
    proposer's role — so the supplier simultaneously pricing an item
    (valid alone) and changing its quantity (invalid) is rejected as a
    whole, exactly as in Figure 7.
    """

    def __init__(self, roles: "dict[str, str]",
                 state: "dict | None" = None) -> None:
        super().__init__()
        for org, role in roles.items():
            if role not in ALL_ROLES:
                raise RuleViolation(f"unknown role {role!r} for {org!r}")
        self.roles = dict(roles)
        self._state = state if state is not None else empty_order()

    def get_state(self) -> dict:
        return {
            "items": {name: dict(item)
                      for name, item in self._state["items"].items()},
            "delivery": (dict(self._state["delivery"])
                         if self._state.get("delivery") else None),
        }

    def apply_state(self, state: Any) -> None:
        self._state = {
            "items": {name: dict(item)
                      for name, item in state.get("items", {}).items()},
            "delivery": (dict(state["delivery"])
                         if state.get("delivery") else None),
        }

    def validate_state(self, proposed: Any, current: Any, proposer: str) -> Decision:
        role = self.roles.get(proposer)
        if role is None:
            return Decision.reject(f"{proposer} has no role on this order")
        try:
            changes = diff_orders(current or empty_order(), proposed or {})
        except RuleViolation as exc:
            return Decision.reject(str(exc))
        violations = [change for change in changes
                      if not _allowed(role, change)]
        if violations:
            return Decision.reject(
                *[f"{role} may not make change {change!r}" for change in violations]
            )
        for name, item in (proposed or {}).get("items", {}).items():
            normalised = _normalise_item(item)
            quantity = normalised["quantity"]
            if not isinstance(quantity, int) or quantity <= 0:
                return Decision.reject(f"item {name!r} needs a positive quantity")
            price = normalised["price"]
            if price is not None and (not isinstance(price, int) or price < 0):
                return Decision.reject(f"item {name!r} has an invalid price")
        return Decision.accept()

    def merge_update(self, state: Any, update: Any) -> Any:
        return apply_order_op(state or empty_order(), update)

    # -- local accessors --------------------------------------------------

    def items(self) -> dict:
        return {name: dict(item) for name, item in self._state["items"].items()}

    def item(self, name: str) -> "Optional[dict]":
        item = self._state["items"].get(name)
        return dict(item) if item else None


class OrderClient:
    """Role-specific operations over a shared order controller."""

    def __init__(self, controller: B2BObjectController) -> None:
        self.controller = controller
        self.order: OrderObject = controller.b2b_object  # type: ignore[assignment]

    def _mutate(self, mutate) -> Any:
        controller = self.controller
        controller.enter()
        controller.overwrite()
        try:
            state = self.order.get_state()
            mutate(state)
            self.order.apply_state(state)
        except Exception:
            # Unwind the scope as a read so no state change is proposed.
            controller._access = None
            controller.leave()
            raise
        return controller.leave()

    # customer ------------------------------------------------------------

    def add_item(self, name: str, quantity: int):
        """Customer: order *quantity* of *name* (unpriced)."""
        def mutate(state: dict) -> None:
            state["items"][name] = {
                "quantity": quantity, "price": None, "approved": False,
            }
        return self._mutate(mutate)

    def change_quantity(self, name: str, quantity: int):
        def mutate(state: dict) -> None:
            state["items"][name]["quantity"] = quantity
        return self._mutate(mutate)

    # supplier --------------------------------------------------------------

    def price_item(self, name: str, price: int):
        """Supplier: price one item (and change nothing else)."""
        def mutate(state: dict) -> None:
            state["items"][name]["price"] = price
        return self._mutate(mutate)

    def price_and_change_quantity(self, name: str, price: int, quantity: int):
        """The Figure 7 invalid combination: price (valid) + quantity
        change (invalid for a supplier) in one update."""
        def mutate(state: dict) -> None:
            state["items"][name]["price"] = price
            state["items"][name]["quantity"] = quantity
        return self._mutate(mutate)

    # approver / dispatcher -------------------------------------------------

    def approve_item(self, name: str):
        def mutate(state: dict) -> None:
            state["items"][name]["approved"] = True
        return self._mutate(mutate)

    def commit_delivery(self, terms: str):
        def mutate(state: dict) -> None:
            state["delivery"] = {"terms": terms, "committed": True}
        return self._mutate(mutate)

    # pipelined (batched) submission -----------------------------------------

    def submit(self, op: dict):
        """Queue one order operation through the proposal pipeline.

        Returns a :class:`~repro.protocol.pipeline.PipelineTicket`;
        queued operations are coalesced into batched coordination runs
        and benign busy vetoes are retried automatically.
        """
        controller = self.controller
        return controller.node.submit_update(controller.object_name, op)

    def submit_add_item(self, name: str, quantity: int):
        return self.submit({"op": "add_item", "name": name,
                            "quantity": quantity})

    def submit_change_quantity(self, name: str, quantity: int):
        return self.submit({"op": "change_quantity", "name": name,
                            "quantity": quantity})

    def submit_price_item(self, name: str, price: int):
        return self.submit({"op": "price_item", "name": name, "price": price})

    def wait(self, ticket, timeout: "float | None" = None) -> bool:
        """Block until a submitted operation settles; True iff agreed."""
        self.controller.node.wait_for_pipeline(ticket, timeout)
        return ticket.valid

    # gateway (admission-controlled client entry point) -----------------------

    def gateway_client(self, client_id: "str | None" = None,
                       **gateway_options: Any) -> "GatewayOrderClient":
        """Open an admission-controlled client onto this order.

        The returned client routes operations through the node's
        :class:`~repro.gateway.gateway.Gateway` — rate limited, load
        leveled and idempotent.  *gateway_options*
        configure the gateway on first use (ignored once it exists).
        """
        gateway = self.controller.node.gateway(**gateway_options)
        return GatewayOrderClient(gateway.session(client_id),
                                  self.controller.object_name)


class GatewayOrderClient:
    """Order operations submitted through the client gateway.

    Every operation returns a
    :class:`~repro.gateway.gateway.GatewayTicket` and accepts an
    optional ``key=`` idempotency key; re-submitting with the same key
    (see :meth:`retry`) never double-applies the operation.
    """

    def __init__(self, session: Any, object_name: str) -> None:
        self.session = session
        self.object_name = object_name

    def submit(self, op: dict, key: "str | None" = None):
        return self.session.submit(self.object_name, op, key=key)

    def add_item(self, name: str, quantity: int, key: "str | None" = None):
        return self.submit({"op": "add_item", "name": name,
                            "quantity": quantity}, key=key)

    def price_item(self, name: str, price: int, key: "str | None" = None):
        return self.submit({"op": "price_item", "name": name,
                            "price": price}, key=key)

    def commit_delivery(self, terms: str, key: "str | None" = None):
        return self.submit({"op": "commit_delivery", "terms": terms}, key=key)

    def retry(self, ticket):
        """Safely re-submit after a timeout/reconnect (same key)."""
        return self.session.retry(ticket)

    def wait(self, ticket, timeout: "float | None" = None) -> bool:
        """Block until a gateway ticket settles; True iff agreed."""
        self.session.wait(ticket, timeout)
        return ticket.valid
