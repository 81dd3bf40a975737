"""Local concurrency control hooks (section 5)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import Community, DictB2BObject, ThreadedRuntime
from repro.core.locks import (
    LockManager,
    LockingController,
    ReadersWriterLock,
    install_locking,
)
from repro.errors import ConcurrencyError


class TestReadersWriterLock:
    def test_multiple_readers(self):
        lock = ReadersWriterLock()
        lock.acquire_read()
        lock.acquire_read()
        assert lock.readers == 2
        lock.release_read()
        lock.release_read()
        assert lock.readers == 0

    def test_writer_excludes_readers(self):
        lock = ReadersWriterLock()
        lock.acquire_write()
        with pytest.raises(ConcurrencyError):
            lock.acquire_read(timeout=0.05)
        lock.release_write()
        lock.acquire_read()
        lock.release_read()

    def test_readers_exclude_writer(self):
        lock = ReadersWriterLock()
        lock.acquire_read()
        with pytest.raises(ConcurrencyError):
            lock.acquire_write(timeout=0.05)
        lock.release_read()
        lock.acquire_write()
        lock.release_write()

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadersWriterLock()
        lock.acquire_read()
        started = threading.Event()
        acquired = threading.Event()

        def writer():
            started.set()
            lock.acquire_write(timeout=5.0)
            acquired.set()
            lock.release_write()

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        started.wait(1.0)
        time.sleep(0.05)  # let the writer start waiting
        with pytest.raises(ConcurrencyError):
            lock.acquire_read(timeout=0.05)  # writer has priority
        lock.release_read()
        assert acquired.wait(2.0)
        thread.join(2.0)

    def test_release_without_hold_rejected(self):
        lock = ReadersWriterLock()
        with pytest.raises(ConcurrencyError):
            lock.release_read()
        with pytest.raises(ConcurrencyError):
            lock.release_write()

    def test_write_not_reentrant(self):
        lock = ReadersWriterLock()
        lock.acquire_write()
        with pytest.raises(ConcurrencyError):
            lock.acquire_write(timeout=0.05)
        lock.release_write()


class TestLockManager:
    def test_per_object_locks(self):
        manager = LockManager()
        assert manager.lock_for("a") is manager.lock_for("a")
        assert manager.lock_for("a") is not manager.lock_for("b")


def make_locked_pair(make_community):
    community = make_community(2, seed=60)
    objects = {n: DictB2BObject() for n in community.names()}
    community.found_object("shared", objects)
    manager = LockManager(timeout=0.2)
    controller = install_locking(
        community.node("Org1"), "shared", objects["Org1"],
        lock_manager=manager,
    )
    return community, controller, objects, manager


class TestLockingController:
    def test_examine_scope_takes_read_lock(self, make_community):
        community, controller, objects, manager = make_locked_pair(make_community)
        lock = manager.lock_for("shared")
        controller.enter()
        controller.examine()
        assert lock.readers == 1
        controller.leave()
        assert lock.readers == 0

    def test_write_scope_upgrades_and_releases(self, make_community):
        community, controller, objects, manager = make_locked_pair(make_community)
        lock = manager.lock_for("shared")
        controller.enter()
        controller.overwrite()
        assert lock.write_held
        objects["Org1"].set_attribute("k", 1)
        controller.leave()
        assert not lock.write_held
        community.settle()
        assert objects["Org2"].get_attribute("k") == 1

    def test_update_scope_upgrades_and_releases(self, make_community):
        community, controller, objects, manager = make_locked_pair(make_community)
        lock = manager.lock_for("shared")
        controller.enter()
        controller.update()
        assert lock.write_held
        objects["Org1"].set_attribute("k", 2)
        controller.leave()
        assert not lock.write_held
        community.settle()
        assert objects["Org2"].get_attribute("k") == 2

    def test_nested_scopes_release_once(self, make_community):
        community, controller, objects, manager = make_locked_pair(make_community)
        lock = manager.lock_for("shared")
        controller.enter()
        controller.enter()
        controller.overwrite()
        objects["Org1"].set_attribute("k", 1)
        controller.leave()
        assert lock.write_held  # inner leave keeps the lock
        controller.leave()
        assert not lock.write_held

    def test_writer_excludes_second_scope(self, make_community):
        community, controller, objects, manager = make_locked_pair(make_community)
        lock = manager.lock_for("shared")
        lock.acquire_write()  # another "thread" holds the object
        with pytest.raises(ConcurrencyError):
            controller.enter()
        lock.release_write()

    def test_concurrent_threads_over_tcp(self):
        """Two application threads write through one locking controller."""
        runtime = ThreadedRuntime()
        try:
            community = Community(["Org1", "Org2"], runtime=runtime,
                                  retransmit_interval=0.2)
            objects = {n: DictB2BObject() for n in community.names()}
            community.found_object("shared", objects)
            controller = install_locking(
                community.node("Org1"), "shared", objects["Org1"],
            )
            errors = []

            def writer(key):
                try:
                    for i in range(3):
                        controller.enter()
                        controller.overwrite()
                        objects["Org1"].set_attribute(key, i)
                        controller.leave()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(f"k{i}",))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            runtime.settle(0.3)
            assert errors == []
            assert objects["Org2"].get_attribute("k0") == 2
            assert objects["Org2"].get_attribute("k1") == 2
        finally:
            runtime.close()
