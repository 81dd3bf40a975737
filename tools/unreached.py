#!/usr/bin/env python3
"""List the functions under ``src/repro`` that nothing runs.

Stdlib only, Python 3.9 or later.  Run from the repository root:

    python tools/unreached.py

It runs four kinds of run, each with a profile hook in every Python
interpreter it starts (child interpreters included):

* ``tests``: the tier-1 suite, ``python -m pytest -q tests``;
* ``examples``: every ``examples/*.py``;
* ``benchmarks``: ``REPRO_BENCH_SMOKE=1 python -m pytest benchmarks
  --ignore=benchmarks/e2e`` (``benchmarks/results/`` is put back after);
* ``e2e``: ``python benchmarks/e2e/run.py --smoke``.

A failing run does not stop the sweep (the profiler slows everything, so
a timing check may fail under it); each run's exit code is printed.

The hook is ``sys.setprofile`` plus ``threading.setprofile`` (so reactor
threads are seen), installed by a ``usercustomize`` module in a
temporary ``PYTHONUSERBASE`` that every child interpreter inherits.  In
a pytest run a plugin re-installs it at each test's setup, call and
teardown, because a test may switch profiling off.

Functions are enumerated with ``ast`` and matched to the profiled code
objects by file and ``co_firstlineno`` (a decorated function's first
decorator line).  A function's size is the bytes of its source span.
Three lists are printed, one ``bytes module:qualname`` line each:

1. never entered;
2. entered only while running ``tests/``;
3. interface stubs (their body is a docstring, ``pass``, ``...`` or
   ``raise NotImplementedError``) that are never entered; a stub is no
   dead code, so it is not on list 1.

A function listed in ``KEEP`` carries its reason.  Last come the child
interpreters whose profile never arrived (a ``-I``/``-s`` flag, a
replaced ``PYTHONUSERBASE``, or a kill signal other than SIGTERM).

The tool exits 1 when list 1 holds a function that is not in ``KEEP``,
and 0 otherwise, whatever the runs' own exit codes.
"""

from __future__ import annotations

import ast
import collections
import glob
import json
import os
import shutil
import site
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = "tests"

_CLI = "a `repro` CLI command reaches it"
_DOCUMENTED = "documented, itself or its class, in README.md or docs/*.md"
_APPLICATION = "API of a bundled application (README.md lists `repro.apps`)"
_ERROR_PATH = "error or recovery path: safety code"
_INTERFACE = "a hook interface the middleware calls, or its default"
_DOCS_TOOL = "tools/check_docs.py renders docs/OBSERVABILITY.md tables with it"
_TEST_SEAM = "read-only state tier-1 tests check an invariant through"
_BY_TIMING = ("socket error path that a run enters or not by timing (a peer "
              "hanging up, a refused or slow connect): it moves between "
              "lists from run to run")

# Functions kept although a list names them: "module:qualname" -> reason.
KEEP = {
    **dict.fromkeys([
        "repro.apps.tictactoe:TicTacToeObject.winner",
        "repro.bench.harness:run_state_workload",
        "repro.bench.metrics:LatencyRecorder.record",
        "repro.bench.metrics:LatencyRecorder.summary",
        "repro.bench.workload:counter_states",
        "repro.bench.workload:random_states",
        "repro.cli:_cmd_audit",
        "repro.cli:_cmd_demo",
        "repro.cli:_cmd_export_decisions",
        "repro.cli:_cmd_flight_dump",
        "repro.cli:_cmd_gateway_sim",
        "repro.cli:_cmd_keygen",
        "repro.cli:_cmd_obs_report",
        "repro.cli:_cmd_serve_metrics",
        "repro.cli:_cmd_show_log",
        "repro.cli:_cmd_simulate",
        "repro.cli:_cmd_top",
        "repro.cli:_cmd_verify_bundle",
        "repro.cli:_cmd_verify_log",
        "repro.cli:_load_keys",
        "repro.cli:_load_keys.<locals>.resolver",
        "repro.cli:_read_object",
        "repro.cli:_run_forensic_game.<locals>._quiescent",
        "repro.cli:_run_pipeline_burst",
        "repro.cli:build_parser",
        "repro.cli:main",
        "repro.core.node:OrganisationNode.health",
        "repro.core.node:OrganisationNode.live",
        "repro.gateway.loadsim:CrashInjection.validate",
        "repro.gateway.loadsim:LoadSimStats.summary",
        "repro.gateway.loadsim:run_crash_scenario",
        "repro.obs.live.exporter:TelemetryServer.metrics_json",
        "repro.obs.live.exporter:TelemetryServer.url",
        "repro.obs.live.flight:FlightRecorder.dump",
        "repro.obs.live.flight:FlightRecorder.dump_lines",
        "repro.obs.live.flight:FlightRecorder.events",
        "repro.obs.live.health:HealthMonitor.evaluate_once",
        "repro.obs.live.health:HealthMonitor.health",
        "repro.obs.live.health:HealthMonitor.schedule_on.<locals>.fire",
        "repro.obs.live.health:HealthMonitor.start",
        "repro.obs.live.health:HealthMonitor.start.<locals>.loop",
        "repro.obs.live.health:HealthMonitor.stop",
        "repro.obs.live.health:RuleView.__init__",
        "repro.obs.live.health:RuleView.counter",
        "repro.obs.live.health:RuleView.counter_delta",
        "repro.obs.live.health:StalledRunsRule._in_flight",
        "repro.obs.live.health:StalledRunsRule.evaluate",
        "repro.obs.live:LiveTelemetry.__init__",
        "repro.obs.live:LiveTelemetry.health",
        "repro.obs.live:LiveTelemetry.start",
        "repro.obs.live:LiveTelemetry.stop",
        "repro.obs.metrics:summarise",
        "repro.obs.recording:RecordingInstrumentation.report",
        "repro.obs.report:_row",
        "repro.obs.report:render_snapshot",
        "repro.obs.trace:Tracer.event",
        "repro.util.encoding:b64",
    ], _CLI),
    **dict.fromkeys([
        "repro.core.community:Community.examine",
        "repro.core.community:Community.restart_node",
        "repro.core.composite:CompositeB2BObject.child",
        "repro.core.composite:CompositeB2BObject.coord_callback",
        "repro.core.composite:CompositeB2BObject.get_update",
        "repro.core.composite:CompositeB2BObject.merge_update",
        "repro.core.composite:CompositeB2BObject.validate_update",
        "repro.core.controller:B2BObjectController.examine_state",
        "repro.core.controller:B2BObjectController.is_connected",
        "repro.core.controller:B2BObjectController.snapshot",
        "repro.core.locks:LockManager.__init__",
        "repro.core.locks:LockManager.lock_for",
        "repro.core.locks:LockingController.__init__",
        "repro.core.locks:LockingController._upgrade_to_write",
        "repro.core.locks:LockingController.enter",
        "repro.core.locks:LockingController.leave",
        "repro.core.locks:LockingController.overwrite",
        "repro.core.locks:LockingController.update",
        "repro.core.locks:ReadersWriterLock.__init__",
        "repro.core.locks:ReadersWriterLock.acquire_read",
        "repro.core.locks:ReadersWriterLock.acquire_write",
        "repro.core.locks:ReadersWriterLock.readers",
        "repro.core.locks:ReadersWriterLock.release_read",
        "repro.core.locks:ReadersWriterLock.release_write",
        "repro.core.locks:ReadersWriterLock.write_held",
        "repro.core.locks:install_locking",
        "repro.core.node:OrganisationNode.check_progress",
        "repro.core.node:OrganisationNode.restore_object",
        "repro.core.readcache:ReadCache.latest",
        "repro.core.readcache:ReadResult.state",
        "repro.core.readcache:Snapshot.state",
        "repro.core.readcache:cached",
        "repro.core.readcache:settled",
        "repro.core.runtime:SimRuntime.now",
        "repro.core.wrapper:CoordinatedProxy._snapshot_read",
        "repro.core.wrapper:CoordinatedProxy._snapshot_read.<locals>.wrapper",
        "repro.extensions.majority:make_majority_engine",
        "repro.faults.intruder:DolevYaoIntruder.delay_when",
        "repro.faults.intruder:DolevYaoIntruder.drop_when",
        "repro.faults.intruder:DolevYaoIntruder.inject",
        "repro.faults.intruder:DolevYaoIntruder.knowledge",
        "repro.faults.intruder:tamper_commit_auth",
        "repro.gateway.gateway:Gateway.wait",
        "repro.gateway.session:ClientSession.wait",
        "repro.obs.live.health:CounterRateRule.reading",
        "repro.obs.live.health:GaugeLevelRule.reading",
        "repro.obs.live.health:HealthMonitor.firing",
        "repro.obs.live.health:HealthRule.evaluate",
        "repro.obs.live.health:QuantileBudgetRule.reading",
        "repro.obs.live.health:RuleView.gauge",
        "repro.obs.live.health:RuleView.histogram",
        "repro.obs.live.health:RuleView.histogram_count",
        "repro.obs.live.health:RuleView.quantile",
        "repro.obs.live.health:RuleView.rate",
        "repro.obs.metrics:Gauge.high_water",
        "repro.obs.metrics:MetricsRegistry.counter_value",
        "repro.obs.trace:InMemoryCollector.__call__",
        "repro.obs.trace:InMemoryCollector.__init__",
        "repro.obs.trace:InMemoryCollector.events",
        "repro.obs.trace:InMemoryCollector.named",
        "repro.obs.trace:InMemoryCollector.spans",
        "repro.obs.trace:JsonLinesExporter.__enter__",
        "repro.obs.trace:JsonLinesExporter.__exit__",
        "repro.obs.trace:LamportClock.value",
        "repro.obs.trace:PartyFilesExporter.__enter__",
        "repro.obs.trace:PartyFilesExporter.__exit__",
        "repro.obs.trace:Tracer.span",
        "repro.obs.trace:Tracer.span_end",
        "repro.protocol.membership:JoinClient._on_sponsor_info",
        "repro.protocol.membership:JoinClient.request_connect_via",
        "repro.protocol.membership:MembershipEngine._answered_before",
        "repro.protocol.membership:MembershipEngine._answered_before.<locals>.asked_by",
        "repro.protocol.membership:MembershipEngine._installed_id",
        "repro.protocol.membership:MembershipEngine._on_sponsor_query",
        "repro.protocol.party:ProtocolParty.check_progress",
        "repro.protocol.party:ProtocolParty.is_connected",
        "repro.protocol.party:ProtocolParty.restore_object",
        "repro.protocol.pipeline:ProposalPipeline.on_event",
        "repro.protocol.pipeline:ProposalPipeline.submit",
        "repro.protocol.validation:CallbackValidator.validate_connect",
        "repro.protocol.validation:CallbackValidator.validate_disconnect",
        "repro.protocol.validation:CallbackValidator.validate_update",
        "repro.protocol.validation:StateMerger.apply",
        "repro.protocol.validation:Validator.validate_connect",
        "repro.protocol.validation:Validator.validate_disconnect",
        "repro.protocol.validation:Validator.validate_state",
        "repro.protocol.validation:Validator.validate_update",
        "repro.storage.checkpoint:CheckpointStore.history",
        "repro.storage.checkpoint:CheckpointStore.state_digest",
        "repro.storage.journal:MessageJournal.all_records",
        "repro.storage.journal:MessageJournal.knows",
        "repro.storage.journal:MessageJournal.messages",
        "repro.storage.journal:MessageJournal.outcome",
        "repro.transport.inmemory:SimNetwork.pending_events",
        "repro.transport.inmemory:SimNetwork.remove_filter",
        "repro.transport.inmemory:SimNetwork.set_link_profile",
    ], _DOCUMENTED),
    **dict.fromkeys([
        "repro.apps.auction:AuctionHouse.gateway_client",
        "repro.apps.auction:AuctionHouse.submit_bid",
        "repro.apps.auction:AuctionHouse.submit_close",
        "repro.apps.auction:AuctionHouse.wait",
        "repro.apps.auction:AuctionObject.highest",
        "repro.apps.auction:AuctionObject.is_open",
        "repro.apps.auction:AuctionObject.merge_update",
        "repro.apps.auction:GatewayBidder.__init__",
        "repro.apps.auction:GatewayBidder.bid",
        "repro.apps.auction:GatewayBidder.bidder",
        "repro.apps.auction:GatewayBidder.retry",
        "repro.apps.auction:GatewayBidder.wait",
        "repro.apps.auction:apply_auction_op",
        "repro.apps.orders:GatewayOrderClient.__init__",
        "repro.apps.orders:GatewayOrderClient.add_item",
        "repro.apps.orders:GatewayOrderClient.commit_delivery",
        "repro.apps.orders:GatewayOrderClient.price_item",
        "repro.apps.orders:GatewayOrderClient.retry",
        "repro.apps.orders:GatewayOrderClient.submit",
        "repro.apps.orders:GatewayOrderClient.wait",
        "repro.apps.orders:OrderClient.gateway_client",
        "repro.apps.orders:OrderClient.submit",
        "repro.apps.orders:OrderClient.submit_add_item",
        "repro.apps.orders:OrderClient.submit_change_quantity",
        "repro.apps.orders:OrderClient.submit_price_item",
        "repro.apps.orders:OrderClient.wait",
        "repro.apps.orders:OrderObject.merge_update",
        "repro.apps.orders:apply_order_op",
        "repro.apps.oss:ServiceClient.reopen_ticket",
        "repro.apps.oss:ServiceClient.set_alert_contact",
        "repro.apps.oss:ServiceClient.set_maintenance_window",
        "repro.apps.tictactoe:TicTacToePlayer.load_board",
        "repro.apps.whiteboard:WhiteboardClient.__init__",
        "repro.apps.whiteboard:WhiteboardClient.draw",
        "repro.apps.whiteboard:WhiteboardObject.__init__",
        "repro.apps.whiteboard:WhiteboardObject.apply_state",
        "repro.apps.whiteboard:WhiteboardObject.get_state",
        "repro.apps.whiteboard:WhiteboardObject.strokes",
        "repro.apps.whiteboard:WhiteboardObject.turn",
        "repro.apps.whiteboard:WhiteboardObject.validate_state",
        "repro.apps.whiteboard:new_board",
        "repro.apps.whiteboard:next_turn",
    ], _APPLICATION),
    **dict.fromkeys([
        "repro.core.readcache:ReadMode.describe",
        "repro.crypto.certificates:CertificateAuthority.revocation_list",
        "repro.crypto.certificates:CertificateAuthority.revoke",
        "repro.crypto.certificates:CertificateStore.check_certificate",
        "repro.crypto.certificates:CertificateStore.update_revocations",
        "repro.obs.audit:CorruptEvidenceLog.__init__",
        "repro.obs.audit:CorruptEvidenceLog.verify_chain",
        "repro.protocol.coordination:StateCoordinationEngine._installed_id",
        "repro.protocol.coordination:StateCoordinationEngine._recover_seen",
        "repro.protocol.coordination:StateCoordinationEngine.abort_active_run",
        "repro.protocol.engine_base:EngineBase._finish_installed_run",
        "repro.protocol.engine_base:EngineBase._on_other",
        "repro.protocol.engine_base:EngineBase._recover_seen",
        "repro.protocol.engine_base:EngineBase._require_complete_bundle",
        "repro.protocol.engine_base:EngineBase._resume",
        "repro.protocol.engine_base:EngineBase._settled_run",
        "repro.protocol.engine_base:EngineBase.check_progress",
        "repro.protocol.engine_base:EngineBase.recover_runs",
        "repro.protocol.membership:JoinClient._on_reject",
        "repro.protocol.membership:JoinClient.resend_request",
        "repro.protocol.membership:MembershipEngine._on_reject_notice",
        "repro.protocol.membership:MembershipEngine._reject_message",
        "repro.protocol.messages:build_connect_reject",
        "repro.protocol.pipeline:ProposalPipeline._resolve_failed",
        "repro.transport.mom:BrokeredSimNetwork._arm_later",
        "repro.transport.reactor:_Reactor.set_handler",
        "repro.transport.reliable:ReliableEndpoint.on_delivery_failure",
        "repro.util.encoding:SealedDict._read_only",
    ], _ERROR_PATH),
    **dict.fromkeys([
        "repro.obs.hooks:_noop.<locals>.hook",
        "repro.storage.backends:FileRecordStore.__len__",
        "repro.storage.backends:MemoryRecordStore.__len__",
        "repro.transport.base:NetworkFilter.on_send",
    ], _INTERFACE),
    **dict.fromkeys([
        "repro.obs.catalogue:_hook_table",
        "repro.obs.catalogue:_metric_table",
        "repro.obs.catalogue:render_docs",
    ], _DOCS_TOOL),
    **dict.fromkeys([
        "repro.gateway.idempotency:IdempotencyCache.completed_count",
        "repro.gateway.idempotency:IdempotencyCache.pending_count",
        "repro.gateway.ratelimit:RateLimiter.__len__",
        "repro.obs.merge:RunTrace.settled",
        "repro.obs.merge:RunTrace.veto_parties",
        "repro.obs.metrics:Counter.value",
        "repro.obs.metrics:Gauge.value",
        "repro.obs.metrics:StreamingHistogram._quantile_of",
        "repro.obs.metrics:StreamingHistogram.quantile",
        "repro.protocol.dispute:Ruling.upheld",
        "repro.protocol.party:ProtocolParty.pending_join",
        "repro.transport.reactor:_Reactor.running",
        "repro.transport.reliable:ReliableEndpoint.dedup_entries",
        "repro.transport.reliable:ReliableEndpoint.outstanding_count",
        "repro.transport.reliable:_DedupWindow.__len__",
        "repro.transport.reliable:_DedupWindow.source_count",
        "repro.util.clocks:VirtualClock.advance",
    ], _TEST_SEAM),
    **dict.fromkeys([
        "repro.transport.reactor:_Reactor._close_inbound",
        "repro.transport.reactor:_Reactor._connect_deadline",
        "repro.transport.reactor:_Reactor._fail_channel",
        "repro.transport.reactor:_Reactor._note_connect_failure",
    ], _BY_TIMING),
}

Function = collections.namedtuple(
    "Function", "module qualname path line size stub")
Run = collections.namedtuple("Run", "label argv env")


# ---------------------------------------------------------------------------
# The hook every interpreter of a run loads
# ---------------------------------------------------------------------------

HOOK = r'''
import atexit
import json
import os
import subprocess
import sys
import threading

_OUT = os.environ.get("UNREACHED_OUT")
_ROOT = os.environ.get("UNREACHED_ROOT", "")
_CWD = os.getcwd()
_SPAWN = subprocess.Popen._execute_child.__code__
_entered = set()
_children = []


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)
    elif event == "return" and frame.f_code is _SPAWN:
        f_locals = frame.f_locals
        env = f_locals.get("env")
        if env is not None and env.get("UNREACHED_OUT", _OUT) != _OUT:
            return  # a nested sweep profiles its own children
        caller = frame.f_back
        while (caller is not None
               and caller.f_code.co_filename == _SPAWN.co_filename):
            caller = caller.f_back
        where = (f"{caller.f_code.co_filename}:{caller.f_lineno}"
                 if caller is not None else "?")
        _children.append([getattr(f_locals["self"], "pid", None),
                          f_locals["args"], where])


def install():
    """(Re-)install the profile hook on this thread and on new threads."""
    if _OUT:
        sys.setprofile(_profile)
        threading.setprofile(_profile)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    files, entered = {}, []
    for code in list(_entered):
        path = files.get(code.co_filename)
        if path is None:
            path = files[code.co_filename] = os.path.realpath(
                os.path.join(_CWD, code.co_filename))
        if path.startswith(_ROOT):
            entered.append([path, code.co_firstlineno])
    children = [[pid, args if isinstance(args, str) else list(map(str, args)),
                 where] for pid, args, where in _children]
    record = {"run": os.environ.get("UNREACHED_RUN"), "pid": os.getpid(),
              "argv": sys.argv, "entered": entered, "children": children}
    with open(os.path.join(_OUT, f"{os.getpid()}.json"), "w") as handle:
        json.dump(record, handle)


def _on_sigterm(signum, frame):
    _dump()
    os._exit(128 + signum)


if _OUT:
    import signal
    import site
    user_site = os.environ.get("UNREACHED_USER_SITE")
    if user_site and os.path.isdir(user_site):
        site.addsitedir(user_site)
    install()
    atexit.register(_dump)
    if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_sigterm)
'''

PLUGIN = r'''
import pytest
import usercustomize


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    usercustomize.install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    usercustomize.install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    usercustomize.install()
'''


# ---------------------------------------------------------------------------
# Enumerating functions
# ---------------------------------------------------------------------------

def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if (isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            raised = statement.exc
            if isinstance(raised, ast.Call):
                raised = raised.func
            if (isinstance(raised, ast.Name)
                    and raised.id == "NotImplementedError"):
                continue
        return False
    return True


def functions(package: str) -> "list[Function]":
    """Every function and method defined under the ``package`` directory."""
    package = os.path.realpath(package)
    base = os.path.dirname(package)
    found = []
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"),
                                 recursive=True)):
        module = os.path.relpath(path, base)[:-3].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        with open(path, "rb") as handle:
            source = handle.read()
        lines = source.splitlines(keepends=True)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    size = len(b"".join(lines[first - 1:child.end_lineno]))
                    found.append(Function(module, qualname, path, first, size,
                                          _is_stub(child)))
                    visit(child, f"{qualname}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(source, path), "")
    return found


# ---------------------------------------------------------------------------
# Running and collecting
# ---------------------------------------------------------------------------

def collect(runs: "list[Run]", package: str, cwd: str,
            timeout: float = 3600) -> dict:
    """Run each run under the hook; what each run label entered.

    Returns ``{"entered": {label: {(path, line), ...}}, "exit": [(label,
    argv, code)], "unseen": [(pid, args, where)]}``.
    """
    package = os.path.realpath(package)
    scratch = tempfile.mkdtemp(prefix="unreached-")
    try:
        out = os.path.join(scratch, "out")
        os.mkdir(out)
        user_base = os.path.join(scratch, "userbase")
        probe = subprocess.run(
            [sys.executable, "-c",
             "import site; print(site.getusersitepackages())"],
            env=dict(os.environ, PYTHONUSERBASE=user_base, UNREACHED_OUT=out),
            stdout=subprocess.PIPE, text=True, check=True)
        hook_dir = probe.stdout.strip()
        os.makedirs(hook_dir)
        with open(os.path.join(hook_dir, "usercustomize.py"), "w") as handle:
            handle.write(HOOK)
        with open(os.path.join(hook_dir, "unreached_plugin.py"), "w") as handle:
            handle.write(PLUGIN)
        base_env = dict(os.environ, PYTHONUSERBASE=user_base,
                        UNREACHED_OUT=out, UNREACHED_ROOT=package,
                        UNREACHED_USER_SITE=site.getusersitepackages())
        exits = []
        for run in runs:
            env = dict(base_env, UNREACHED_RUN=run.label, **run.env)
            try:
                code = subprocess.run(run.argv, cwd=cwd, env=env,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.DEVNULL,
                                      timeout=timeout).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            exits.append((run.label, run.argv, code))
        entered, pids, spawned = {}, set(), []
        for name in os.listdir(out):
            with open(os.path.join(out, name)) as handle:
                record = json.load(handle)
            pids.add(record["pid"])
            entered.setdefault(record["run"], set()).update(
                (path, line) for path, line in record["entered"])
            spawned.extend(record["children"])
        if not pids:
            raise RuntimeError(
                "no interpreter loaded the profile hook: the user site "
                "directory is off (a virtualenv, -s or PYTHONNOUSERSITE)")
        unseen = [(pid, args, where) for pid, args, where in spawned
                  if pid not in pids and _is_python(args)]
        return {"entered": entered, "exit": exits, "unseen": unseen}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _is_python(args) -> bool:
    program = args if isinstance(args, str) else (args[0] if args else "")
    program = os.path.basename(program.split()[0]) if program else ""
    return program.startswith("python") or program == os.path.basename(
        sys.executable)


def classify(found: "list[Function]", entered: dict) -> "list[list[Function]]":
    """The three lists: never entered, entered only by tests, stubs."""
    anywhere = set().union(*entered.values()) if entered else set()
    elsewhere = set().union(*(keys for label, keys in entered.items()
                              if label != TESTS))
    never, tests_only, stubs = [], [], []
    for function in found:
        key = (function.path, function.line)
        if key not in anywhere:
            (stubs if function.stub else never).append(function)
        elif key not in elsewhere:
            tests_only.append(function)
    return [never, tests_only, stubs]


# ---------------------------------------------------------------------------
# The repository's sweep
# ---------------------------------------------------------------------------

def repo_runs() -> "list[Run]":
    src = {"PYTHONPATH": os.path.join(REPO_ROOT, "src")}
    runs = [Run(TESTS, [sys.executable, "-m", "pytest", "-q",
                        "-p", "unreached_plugin", "tests"], src)]
    examples = glob.glob(os.path.join(REPO_ROOT, "examples", "*.py"))
    for example in sorted(examples):
        runs.append(Run("examples", [sys.executable, example], src))
    runs.append(Run("benchmarks",
                    [sys.executable, "-m", "pytest", "-q",
                     "-p", "unreached_plugin",
                     "benchmarks", "--ignore=benchmarks/e2e"],
                    dict(src, REPRO_BENCH_SMOKE="1")))
    runs.append(Run("e2e", [sys.executable, "benchmarks/e2e/run.py", "--smoke"],
                    src))
    return runs


def _snapshot(directory: str) -> "dict[str, bytes]":
    saved = {}
    for path in glob.glob(os.path.join(directory, "*")):
        with open(path, "rb") as handle:
            saved[path] = handle.read()
    return saved


def _restore(directory: str, saved: "dict[str, bytes]") -> None:
    for path in glob.glob(os.path.join(directory, "*")):
        if path not in saved:
            os.remove(path)
    for path, data in saved.items():
        with open(path, "wb") as handle:
            handle.write(data)


def report(lists: "list[list[Function]]") -> str:
    titles = ["never entered", "entered only while running tests/",
              "interface stubs never entered (not counted as unreached)"]
    lines = []
    for number, (title, listed) in enumerate(zip(titles, lists), 1):
        lines.append(f"== {number}. {title} ==")
        for function in sorted(listed, key=lambda f: (f.module, f.line)):
            name = f"{function.module}:{function.qualname}"
            reason = KEEP.get(name)
            lines.append(f"{function.size:7d} {name}"
                         + (f"  (keep: {reason})" if reason else ""))
        total = sum(function.size for function in listed)
        unexplained = [f for f in listed
                       if f"{f.module}:{f.qualname}" not in KEEP]
        lines.append(f"total: {len(listed)} functions, {total} bytes"
                     + ("" if number == 3 else
                        f"; {len(unexplained)} not in KEEP"))
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    package = os.path.join(REPO_ROOT, "src", "repro")
    results_dir = os.path.join(REPO_ROOT, "benchmarks", "results")
    saved = _snapshot(results_dir)
    try:
        collected = collect(repo_runs(), package, REPO_ROOT)
    finally:
        _restore(results_dir, saved)
    for label, argv, code in collected["exit"]:
        tail = " ".join(os.path.relpath(a, REPO_ROOT) if os.path.isabs(a) else a
                        for a in argv[1:])
        print(f"run {label}: exit {code}: {tail}")
    found = functions(package)
    print(f"{len(found)} functions under src/repro, "
          f"{sum(f.size for f in found)} bytes\n")
    lists = classify(found, collected["entered"])
    print(report(lists))
    print("== child interpreters not seen ==")
    for pid, args, where in collected["unseen"]:
        shown = args if isinstance(args, str) else " ".join(args)
        where = os.path.relpath(where, REPO_ROOT)
        print(f"pid {pid} from {where}: {shown[:100]}")
    print(f"total: {len(collected['unseen'])}")
    # List 1 is the gate: code nothing runs either goes or says in KEEP
    # why it stays.  List 2 is published only.
    return 1 if any(f"{f.module}:{f.qualname}" not in KEEP
                    for f in lists[0]) else 0


if __name__ == "__main__":
    sys.exit(main())
