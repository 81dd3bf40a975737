"""Command-line tools for the B2BObjects middleware.

Usage::

    python -m repro verify-log PATH        # check an evidence log's chain
    python -m repro show-log PATH          # list evidence entries
    python -m repro keygen --id OrgA       # generate a signing key pair
    python -m repro simulate [options]     # run a coordination workload
    python -m repro obs-report [options]   # instrumented run + metrics
    python -m repro serve-metrics [opts]   # HTTP telemetry endpoint
    python -m repro top --url URL          # live polling terminal view
    python -m repro flight-dump --url URL  # fetch the flight recorder ring
    python -m repro audit [options]        # evidence forensics + timeline
    python -m repro demo NAME              # run a built-in demo scenario

The log commands operate on the crash-safe JSON-lines files produced by
:class:`repro.storage.backends.FileRecordStore`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.errors import B2BError
from repro.storage.backends import FileRecordStore
from repro.storage.log import NonRepudiationLog
from repro.util.encoding import b64


def _cmd_verify_log(args: argparse.Namespace) -> int:
    store = FileRecordStore(args.path, fsync=False)
    try:
        log = NonRepudiationLog(args.owner, store)
        count = log.verify_chain()
    except B2BError as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        store.close()
    print(f"OK: {count} entries, chain intact, head={b64(log.head)[:24]}...")
    return 0


def _cmd_show_log(args: argparse.Namespace) -> int:
    store = FileRecordStore(args.path, fsync=False)
    try:
        log = NonRepudiationLog(args.owner, store)
        for entry in log.entries(kind=args.kind):
            summary = {
                key: value for key, value in entry.payload.items()
                if isinstance(value, (str, int, bool, float)) or value is None
            }
            print(f"[{entry.index:4d}] {entry.kind:28s} "
                  f"{json.dumps(summary, default=str)[:120]}")
    except B2BError as exc:
        print(f"error: {exc}")
        return 1
    finally:
        store.close()
    return 0


def _cmd_export_decisions(args: argparse.Namespace) -> int:
    """Dump authenticated-decision bundles from a log for arbitration."""
    import os

    from repro.util.encoding import canonical_bytes

    store = FileRecordStore(args.path, fsync=False)
    try:
        log = NonRepudiationLog(args.owner, store)
        os.makedirs(args.out, exist_ok=True)
        count = 0
        for entry in log.entries("authenticated-decision"):
            run_id = str(entry.payload.get("run_id", f"entry{entry.index}"))
            out_path = os.path.join(args.out, f"{run_id[:16]}.bundle")
            with open(out_path, "wb") as handle:
                handle.write(canonical_bytes(entry.payload))
            count += 1
        print(f"exported {count} decision bundle(s) to {args.out}")
    except B2BError as exc:
        print(f"error: {exc}")
        return 1
    finally:
        store.close()
    return 0


class _Refused(Exception):
    """An input file that is not what the command reads: ``main`` prints
    one line and exits 2 (1 keeps meaning "not authentic")."""


def _read_object(path: str, what: str) -> dict:
    """The JSON object stored in *path*, else :class:`_Refused`."""
    from repro.util.encoding import from_canonical_bytes

    try:
        with open(path, "rb") as handle:
            value = from_canonical_bytes(handle.read())
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise _Refused(f"{what} {path!r}: {type(exc).__name__}") from None
    if type(value) is not dict:
        raise _Refused(f"{what} {path!r} holds no JSON object")
    return value


def _load_keys(path: str):
    """``(resolver, tsa_verifier)`` from a ``keys.json`` of public keys."""
    from repro.crypto.rsa import RsaPublicKey
    from repro.crypto.signature import RsaVerifier
    from repro.errors import SignatureError

    key_data = _read_object(path, "keys file")
    try:  # a key or key table of the wrong shape fails in here
        verifiers = {
            party: RsaVerifier(RsaPublicKey.from_dict(key))
            for party, key in key_data.get("parties", {}).items()
        }
        tsa_verifier = None
        if key_data.get("tsa"):
            tsa_verifier = RsaVerifier(RsaPublicKey.from_dict(key_data["tsa"]))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _Refused(f"keys file {path!r}: {exc!r}") from None

    def resolver(party_id: str):
        verifier = verifiers.get(party_id)
        if verifier is None:
            raise SignatureError(f"no public key on file for {party_id!r}")
        return verifier

    return resolver, tsa_verifier


def _cmd_verify_bundle(args: argparse.Namespace) -> int:
    """Independently verify an exported authenticated-decision bundle."""
    from repro.protocol.evidence import verify_authenticated_decision

    resolver, tsa_verifier = _load_keys(args.keys)
    bundle = _read_object(args.bundle, "bundle")
    verdict = verify_authenticated_decision(
        bundle, resolver, tsa_verifier=tsa_verifier,
    )
    print(f"kind:       {verdict.kind}")
    print(f"object:     {verdict.object_name}")
    print(f"proposer:   {verdict.proposer}")
    print(f"responders: {', '.join(sorted(verdict.responders)) or '-'}")
    print(f"authentic:  {verdict.authentic}")
    print(f"valid:      {verdict.valid}")
    for problem in verdict.problems:
        print(f"  problem: {problem}")
    for diagnostic in verdict.diagnostics:
        print(f"  diagnostic: {diagnostic}")
    return 0 if verdict.authentic else 1


def _cmd_keygen(args: argparse.Namespace) -> int:
    from repro.crypto.signature import generate_party_keypair

    keypair = generate_party_keypair(args.id, bits=args.bits)
    record = {
        "party_id": args.id,
        "bits": args.bits,
        "public_key": keypair.public_key.to_dict(),
        "private_key": {
            "n": keypair.private_key.modulus,
            "e": keypair.private_key.public_exponent,
            "d": keypair.private_key.private_exponent,
            "p": keypair.private_key.prime_p,
            "q": keypair.private_key.prime_q,
        },
    }
    text = json.dumps(record, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.bits}-bit key pair for {args.id!r} to {args.out}")
    else:
        print(text)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.bench.harness import (
        assert_replicas_converged,
        found_dict_object,
        run_state_workload,
    )
    from repro.bench.workload import counter_states, random_states
    from repro.core.community import Community
    from repro.core.runtime import SimRuntime
    from repro.transport.inmemory import LinkProfile

    obs = None
    if args.obs:
        from repro.obs.recording import RecordingInstrumentation

        obs = RecordingInstrumentation()
    profile = LinkProfile(
        latency=args.latency, jitter=args.jitter,
        drop_probability=args.drop, duplicate_probability=args.duplicate,
    )
    names = [f"Org{i + 1}" for i in range(args.parties)]
    community = Community(
        names, runtime=SimRuntime(seed=args.seed, profile=profile), obs=obs,
    )
    controllers, _objects = found_dict_object(community)
    if args.fault != "none" and args.failures > 0:
        from repro.faults import bounded_failure_schedule

        schedule = bounded_failure_schedule(
            community, names, failures=args.failures,
            period=0.4, downtime=0.3, start=0.02, kind=args.fault,
        )
        schedule.arm()
        print(f"armed {args.failures} temporary {args.fault} fault(s), "
              f"{schedule.total_downtime():.2f}s total downtime")
    # Thread the run seed through workload generation too, not just the
    # transport's drop/jitter injection: the same --seed reproduces the
    # same proposed states.
    if args.workload == "random":
        states = random_states(args.updates, seed=args.seed)
    else:
        states = counter_states(args.updates)
    summary = run_state_workload(community, controllers, states)
    assert_replicas_converged(controllers)
    print(f"parties={args.parties} updates={args.updates} "
          f"workload={args.workload} drop={args.drop} seed={args.seed}")
    print(f"  completed: {summary['completed']}  rejected: {summary['rejected']}")
    latency = summary["latency"]
    print(f"  virtual latency: mean={latency['mean']:.4f}s "
          f"p95={latency['p95']:.4f}s max={latency['max']:.4f}s")
    messages = summary["messages"]
    print(f"  messages: sent={messages['sent']} delivered={messages['delivered']} "
          f"dropped={messages['dropped']} duplicated={messages['duplicated']}")
    print("  replicas converged: yes")
    if obs is not None:
        print()
        print(obs.report())
    return 0


def _run_forensic_game(seed: int, latency: float, drop: float,
                       duplicate: float, transport: str = "sim",
                       export_dir: "str | None" = None,
                       trace_out: "str | None" = None):
    """Instrumented 3-party Tic-Tac-Toe run with the Figure 5 cheat.

    Returns ``(community, objects, rejected, obs, trace_paths)``.  With
    *export_dir* set, each party's trace records, every party's evidence
    log and a ``keys.json`` land under that directory — the complete
    input set for ``repro audit``.
    """
    import os

    from repro.apps.tictactoe import (
        CROSS,
        NOUGHT,
        TicTacToeObject,
        TicTacToePlayer,
    )
    from repro.core.community import Community
    from repro.core.runtime import SimRuntime, ThreadedRuntime
    from repro.errors import ValidationFailed
    from repro.obs.recording import RecordingInstrumentation
    from repro.obs.trace import JsonLinesExporter, PartyFilesExporter, Tracer
    from repro.transport.inmemory import LinkProfile
    from repro.transport.tcp import TcpNetwork

    tracer = Tracer()
    party_exporter = None
    file_exporter = None
    storage_dir = None
    if export_dir:
        os.makedirs(export_dir, exist_ok=True)
        party_exporter = PartyFilesExporter(os.path.join(export_dir, "traces"))
        tracer.add_exporter(party_exporter)
        storage_dir = os.path.join(export_dir, "evidence")
    if trace_out:
        file_exporter = JsonLinesExporter(trace_out)
        tracer.add_exporter(file_exporter)
    obs = RecordingInstrumentation(tracer=tracer)

    if transport == "tcp":
        runtime = ThreadedRuntime(network=TcpNetwork(
            obs=obs, drop_probability=drop, drop_seed=seed,
        ))
        retransmit_interval = 0.03
    else:
        profile = LinkProfile(
            latency=latency,
            drop_probability=drop,
            duplicate_probability=duplicate,
        )
        runtime = SimRuntime(seed=seed, profile=profile)
        retransmit_interval = 0.05
    # Two players plus a witness organisation sharing the game object —
    # the smallest community where m2/m3 fan-out is visible (n=3).
    names = ["Cross", "Nought", "Witness"]
    community = Community(
        names, runtime=runtime, obs=obs, storage_dir=storage_dir,
        retransmit_interval=retransmit_interval,
    )
    players = {"Cross": CROSS, "Nought": NOUGHT}
    objects = {name: TicTacToeObject(players=players) for name in names}
    controllers = community.found_object("game", objects)
    cross = TicTacToePlayer(controllers["Cross"], CROSS)
    nought = TicTacToePlayer(controllers["Nought"], NOUGHT)

    def _quiescent() -> bool:
        engines = [node.party.session("game").state
                   for node in community.nodes.values()]
        if any(engine.busy for engine in engines):
            return False
        # Idle is not enough: a replica that missed the last m3 (still in
        # retransmission) is idle *and* stale, and the next proposal built
        # on it would be vetoed.  Require identical agreed state too.
        reference = engines[0].agreed_state
        return all(engine.agreed_state == reference for engine in engines)

    rejected = 0
    moves = [(cross, 4, None), (nought, 0, None), (cross, 5, None),
             (cross, 7, NOUGHT),  # the Figure 5 cheat attempt — vetoed
             (nought, 8, None), (cross, 3, None)]
    for player, cell, mark in moves:
        try:
            player.save_move(cell, mark)
        except ValidationFailed:
            rejected += 1
        if transport == "tcp":
            # Real time: the next proposer must not race the previous
            # run's m3 across the sockets, or it proposes from a stale
            # board and honest moves are vetoed.
            community.runtime.wait_until(_quiescent, 10.0)
    community.settle(0.3 if transport == "tcp" else None)
    community.close()

    trace_paths: "dict[str, str]" = {}
    if party_exporter is not None:
        trace_paths = party_exporter.paths()
        party_exporter.close()
    if file_exporter is not None:
        file_exporter.close()
    if export_dir:
        keys_path = os.path.join(export_dir, "keys.json")
        with open(keys_path, "w", encoding="utf-8") as handle:
            json.dump(community.public_keys(), handle, indent=2)
    return community, objects, rejected, obs, trace_paths


def _run_pipeline_burst(seed: int, updates: int, registry,
                        flight=None, read_ops: int = 0) -> None:
    """Contended pipelined writes for the report's ``pipeline`` section.

    Two proposers submit *updates* each through their write pipelines
    against a shared ledger object, so the report shows batch sizes,
    queue depth and the benign busy retries that contention produces
    (no misbehaviour evidence — benign vetoes are not misbehaviour).

    With *read_ops* > 0 the third organisation also issues that many
    validated reads against the ledger — cycling cached, bounded and
    settled consistency modes — recorded under ``readcache``.
    """
    from repro.core.community import Community
    from repro.core.object import DictB2BObject
    from repro.crypto.prng import DeterministicRandomSource
    from repro.obs.recording import RecordingInstrumentation

    obs = RecordingInstrumentation(registry=registry, flight=flight)
    names = ["Cross", "Nought", "Witness"]
    community = Community(names, seed=seed, obs=obs)
    replicas = {name: DictB2BObject() for name in names}
    community.found_object("ledger", replicas)
    # Payload contents are seeded alongside the transport: the same
    # --seed reproduces the same burst bit-for-bit.
    rngs = {name: DeterministicRandomSource(f"pipeline-burst:{seed}:{name}")
            for name in ("Cross", "Nought")}
    tickets = []
    for index in range(updates):
        for name in ("Cross", "Nought"):
            rng = rngs[name]
            tickets.append(community.node(name).submit_update(
                "ledger", {
                    f"{name.lower()}-k{rng.random_below(8)}":
                        rng.random_below(1 << 16),
                    f"{name.lower()}-stamp": index,
                }
            ))
    if read_ops > 0:
        from repro.core.readcache import bounded, cached, settled

        modes = [cached(), bounded(0.5), settled()]
        for index in range(read_ops):
            community.examine("Witness", "ledger", modes[index % len(modes)])
    for ticket in tickets:
        community.node("Cross").wait_for_pipeline(ticket)
    if read_ops > 0:
        # Post-settlement reads: cached hits against the final state.
        from repro.core.readcache import cached

        for _ in range(read_ops):
            community.examine("Witness", "ledger", cached())
    community.settle()
    community.close()


def _cmd_gateway_sim(args: argparse.Namespace) -> int:
    """Closed-loop client load through the gateway on virtual time."""
    from repro.gateway import (
        CRASH_BREAKER_OPTIONS,
        CrashInjection,
        LoadSimConfig,
        build_gateway_community,
        run_crash_scenario,
        run_load_sim,
    )

    obs = None
    if args.obs or args.crash_org:
        from repro.obs.recording import RecordingInstrumentation

        obs = RecordingInstrumentation()
    breaker_options = None
    if args.crash_org:
        # A crash only trips the breaker through late settlements, so
        # the injected-crash run needs a latency threshold on it.
        breaker_options = dict(CRASH_BREAKER_OPTIONS)
        breaker_options["latency_threshold"] = args.breaker_latency
    community, gateway, object_name = build_gateway_community(
        orgs=args.parties, seed=args.seed, obs=obs,
        rate=args.rate, burst=args.burst,
        queue_capacity=args.queue_capacity,
        breaker=breaker_options,
        pipeline_options={"max_batch": args.max_batch},
    )
    config = LoadSimConfig(
        clients=args.clients, requests_per_client=args.requests,
        arrival_window=args.arrival_window,
        hot_clients=args.hot_clients, hot_factor=args.hot_factor,
        seed=args.seed,
    )
    live = None
    if args.crash_org:
        crash = CrashInjection(org=args.crash_org, crash_at=args.crash_at,
                               recover_at=args.recover_at)
        stats, live = run_crash_scenario(
            community, gateway, object_name, config, crash,
            watchdog_interval=args.watchdog,
            dump_path=args.flight_dump,
        )
    else:
        stats = run_load_sim(community, gateway, object_name, config)
    state = community.node("Org1").controllers[object_name] \
        .b2b_object.get_state()
    summary = stats.summary()
    latency = summary["latency_s"]
    print(f"clients={args.clients} requests/client={args.requests} "
          f"parties={args.parties} rate={args.rate} seed={args.seed}")
    print(f"  settled valid: {summary['settled_valid']}  "
          f"invalid: {summary['settled_invalid']}  "
          f"replayed: {summary['replayed']}  gave up: {summary['gave_up']}")
    if summary["retries"]:
        rejected = ", ".join(f"{kind}={count}" for kind, count
                             in sorted(summary["retries"].items()))
        print(f"  rejected attempts: {rejected}")
    print(f"  virtual time: {summary['elapsed_virtual_s']:.2f}s  "
          f"throughput: {summary['updates_per_virtual_s']:.0f} updates/s")
    print(f"  settle latency: p50={latency['p50']:.4f}s "
          f"p95={latency['p95']:.4f}s p99={latency['p99']:.4f}s")
    print(f"  agreed state: applied={state['applied']} "
          f"total={state['total']}")
    print(f"  breakers: {gateway.stats()['breakers']}")
    if live is not None:
        breaker = gateway.breaker(object_name)
        print(f"  crash injected: {args.crash_org} down "
              f"{args.crash_at:.2f}s-{args.recover_at:.2f}s (virtual)")
        print(f"  breaker transitions: "
              + (", ".join(f"{old}->{new}@{t:.2f}s"
                           for t, old, new in breaker.transitions) or "-"))
        print(f"  health alerts: "
              + (", ".join(f"{a.rule}[{a.severity}]@{a.time:.2f}s"
                           for a in live.monitor.alerts) or "-"))
        print(f"  health transitions: "
              + (", ".join(f"{old}->{new}@{t:.2f}s"
                           for t, old, new in live.monitor.transitions)
                 or "-"))
        print(f"  node health: {community.node('Org1').health()}")
        if args.flight_dump:
            print(f"  flight recorder dump ({live.flight.recorded} events "
                  f"recorded, last {len(live.flight.events())} retained) "
                  f"written to {args.flight_dump}")
    if obs is not None and args.obs:
        print()
        print(obs.report())
    community.close()
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    """Instrumented 3-party Tic-Tac-Toe run + its metrics report."""
    community, objects, rejected, obs, trace_paths = _run_forensic_game(
        seed=args.seed, latency=args.latency, drop=args.drop,
        duplicate=args.duplicate, transport=args.transport,
        export_dir=args.export_dir, trace_out=args.trace_out,
    )
    if args.pipeline_updates > 0:
        _run_pipeline_burst(seed=args.seed, updates=args.pipeline_updates,
                            registry=obs.registry,
                            read_ops=args.read_ops)

    if args.json:
        # Machine-readable twin of the text report: the registry
        # snapshot itself, so CI can diff runs structurally.
        payload = {
            "seed": args.seed,
            "transport": args.transport,
            "vetoed_moves": rejected,
            "metrics": obs.registry.snapshot(),
        }
        print(json.dumps(payload, sort_keys=True, default=str))
        return 0

    game = objects["Witness"]
    board = game.board
    print(f"3-party Tic-Tac-Toe over lossy links "
          f"(transport={args.transport} seed={args.seed} "
          f"drop={args.drop} duplicate={args.duplicate})")
    for row in range(3):
        print("  " + " ".join(cell or "." for cell in board[row * 3:row * 3 + 3]))
    print(f"  winner: {game.winner or '(none)'}  "
          f"vetoed moves: {rejected}")
    if args.pipeline_updates > 0:
        print(f"  pipeline burst: 2 proposers x {args.pipeline_updates} "
              f"updates through the batched write pipeline")
        if args.read_ops > 0:
            print(f"  read burst: {2 * args.read_ops} validated reads "
                  f"(cached/bounded/settled) from the snapshot cache")
    if args.trace_out:
        print(f"  trace records written to {args.trace_out}")
    if args.export_dir:
        print(f"  forensic artefacts (traces, evidence, keys.json) "
              f"under {args.export_dir}")
        for party, path in sorted(trace_paths.items()):
            print(f"    trace[{party}]: {path}")
    print()
    print(obs.report())
    return 0


def _cmd_serve_metrics(args: argparse.Namespace) -> int:
    """Run an instrumented workload and serve its registry over HTTP."""
    import time as _time

    from repro.obs.recording import RecordingInstrumentation
    from repro.obs.live import FlightRecorder, HealthMonitor, TelemetryServer

    obs = RecordingInstrumentation()
    flight = FlightRecorder(args.flight_capacity)
    obs.flight = flight
    for index in range(args.rounds):
        _run_pipeline_burst(seed=args.seed + index, updates=args.updates,
                            registry=obs.registry, flight=flight)
    monitor = HealthMonitor(obs.registry, obs=obs, party="serve-metrics",
                            interval=args.watchdog, flight=flight)
    server = TelemetryServer(obs.registry, monitor=monitor, flight=flight,
                             host=args.host, port=args.port).start()
    monitor.start()
    print(f"serving telemetry at {server.url}")
    print(f"  routes: /metrics /metrics.json /health /flight")
    print(f"  workload: {args.rounds} pipeline burst round(s), "
          f"{flight.recorded} flight events recorded")
    if args.probe:
        import urllib.request

        for route in ("/metrics", "/metrics.json", "/health", "/flight"):
            with urllib.request.urlopen(server.url + route,
                                        timeout=5) as response:
                body = response.read()
            print(f"  probe {route}: {response.status} {len(body)} bytes")
    try:
        if args.probe and args.duration is None:
            pass          # one-shot smoke check: probe, then exit cleanly
        elif args.duration is None:
            print("  serving until interrupted (Ctrl-C)...")
            while True:
                _time.sleep(3600)
        elif args.duration > 0:
            _time.sleep(args.duration)
    except KeyboardInterrupt:
        pass
    finally:
        monitor.stop()
        server.stop()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Poll a telemetry endpoint and print a compact live view."""
    import time as _time
    import urllib.request

    base = args.url.rstrip("/")
    header = (f"{'health':10s} {'runs':>6s} {'valid':>6s} {'gw adm':>7s} "
              f"{'gw rej':>7s} {'retrans':>7s} {'settle p99 ms':>13s} "
              f"{'alerts':>6s}")
    iterations = args.iterations
    count = 0
    while iterations is None or count < iterations:
        try:
            with urllib.request.urlopen(base + "/metrics.json",
                                        timeout=5) as response:
                payload = json.loads(response.read())
        except OSError as exc:
            print(f"error: cannot reach {base}: {exc}")
            return 1
        metrics = payload.get("metrics", {})
        counters = metrics.get("counters", {})
        histograms = metrics.get("histograms", {})
        health = payload.get("health", {})
        settle = histograms.get("gateway.settle_seconds", {})
        if count % 20 == 0:
            print(header)
        print(f"{health.get('health', 'healthy'):10s} "
              f"{counters.get('protocol.runs.started', 0):>6d} "
              f"{counters.get('protocol.runs.valid', 0):>6d} "
              f"{counters.get('gateway.admitted', 0):>7d} "
              f"{counters.get('gateway.rejected', 0):>7d} "
              f"{counters.get('transport.retransmissions', 0):>7d} "
              f"{settle.get('p99', 0.0) * 1000.0:>13.2f} "
              f"{len(health.get('alerts', [])):>6d}")
        count += 1
        if iterations is None or count < iterations:
            _time.sleep(args.interval)
    return 0


def _cmd_flight_dump(args: argparse.Namespace) -> int:
    """Fetch a node's flight-recorder ring as JSONL."""
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/flight"
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            body = response.read()
    except urllib.error.HTTPError as exc:
        print(f"error: {url} answered {exc.code} "
              f"(no flight recorder attached?)")
        return 1
    except OSError as exc:
        print(f"error: cannot reach {url}: {exc}")
        return 1
    text = body.decode("utf-8")
    events = [line for line in text.splitlines() if line.strip()]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(events)} flight event(s) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    """Forensic audit: evidence re-verification + merged causal timeline."""
    from repro.obs.audit import audit_evidence, load_evidence_log
    from repro.obs.merge import merge_trace_files, render_timeline

    resolver, tsa_verifier = _load_keys(args.keys)
    logs = {}
    for spec in args.log:
        party, sep, path = spec.partition("=")
        if not sep or not party or not path:
            print(f"error: --log expects PARTY=PATH, got {spec!r}")
            return 2
        logs[party] = load_evidence_log(party, path)

    merged = None
    if args.trace:
        merged = merge_trace_files(args.trace)
        if args.merged_out:
            with open(args.merged_out, "w", encoding="utf-8") as handle:
                for record in merged.events:
                    handle.write(json.dumps(record, sort_keys=True,
                                            default=str) + "\n")
            print(f"merged timeline ({len(merged.events)} events) "
                  f"written to {args.merged_out}")
        if args.timeline:
            print(render_timeline(merged, max_events=args.timeline_events))
            print()

    report = audit_evidence(logs, resolver, tsa_verifier=tsa_verifier,
                            merged=merged)
    print(report.render())

    if args.expect_culprit:
        culprits = report.culprits()
        if args.expect_culprit in culprits:
            print(f"\nexpected culprit {args.expect_culprit!r} convicted")
            return 0
        print(f"\nFAILED: expected culprit {args.expect_culprit!r} "
              f"not among {culprits}")
        return 1
    return 0


#: Demo name -> its module under ``examples/``.
_DEMOS = {
    "quickstart": "quickstart",
    "tictactoe": "tictactoe_demo",
    "ttp": "ttp_tictactoe_demo",
    "orders": "order_processing_demo",
    "auction": "auction_demo",
    "dependability": "dependability_demo",
}


def _cmd_demo(args: argparse.Namespace) -> int:
    import importlib
    import os

    examples_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))), "examples",
    )
    if examples_dir not in sys.path:
        sys.path.insert(0, examples_dir)
    importlib.import_module(_DEMOS[args.name]).main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="B2BObjects middleware tools (DSN 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify-log",
                            help="verify a non-repudiation log's hash chain")
    verify.add_argument("path")
    verify.add_argument("--owner", default="unknown")
    verify.set_defaults(func=_cmd_verify_log)

    show = sub.add_parser("show-log", help="list evidence log entries")
    show.add_argument("path")
    show.add_argument("--owner", default="unknown")
    show.add_argument("--kind", default=None,
                      help="filter by entry kind (e.g. authenticated-decision)")
    show.set_defaults(func=_cmd_show_log)

    export = sub.add_parser(
        "export-decisions",
        help="dump authenticated-decision bundles for arbitration",
    )
    export.add_argument("path")
    export.add_argument("--owner", default="unknown")
    export.add_argument("--out", required=True)
    export.set_defaults(func=_cmd_export_decisions)

    verify_bundle = sub.add_parser(
        "verify-bundle",
        help="independently verify an exported decision bundle",
    )
    verify_bundle.add_argument("bundle")
    verify_bundle.add_argument(
        "--keys", required=True,
        help='JSON file: {"parties": {id: public-key}, "tsa": public-key}',
    )
    verify_bundle.set_defaults(func=_cmd_verify_bundle)

    keygen = sub.add_parser("keygen", help="generate an RSA signing key pair")
    keygen.add_argument("--id", required=True, dest="id")
    keygen.add_argument("--bits", type=int, default=512)
    keygen.add_argument("--out", default=None)
    keygen.set_defaults(func=_cmd_keygen)

    simulate = sub.add_parser(
        "simulate", help="run a coordination workload on the simulator"
    )
    simulate.add_argument("--parties", type=int, default=3)
    simulate.add_argument("--updates", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--latency", type=float, default=0.01)
    simulate.add_argument("--jitter", type=float, default=0.0)
    simulate.add_argument("--drop", type=float, default=0.0)
    simulate.add_argument("--duplicate", type=float, default=0.0)
    simulate.add_argument("--fault", choices=["none", "crash", "partition"],
                          default="none")
    simulate.add_argument("--failures", type=int, default=0)
    simulate.add_argument("--workload", choices=["counter", "random"],
                          default="counter",
                          help="counter: fixed sequential states; random: "
                               "seeded random states (varies with --seed)")
    simulate.add_argument("--obs", action="store_true",
                          help="record metrics and print the obs report")
    simulate.set_defaults(func=_cmd_simulate)

    gateway_sim = sub.add_parser(
        "gateway-sim",
        help="closed-loop client load through the gateway on the simulator",
    )
    gateway_sim.add_argument("--clients", type=int, default=1000)
    gateway_sim.add_argument("--requests", type=int, default=1,
                             help="requests per client (closed loop)")
    gateway_sim.add_argument("--parties", type=int, default=2)
    gateway_sim.add_argument("--seed", type=int, default=0)
    gateway_sim.add_argument("--rate", type=float, default=None,
                             help="per-client token refill rate "
                                  "(tokens/s; default: no rate limit)")
    gateway_sim.add_argument("--burst", type=float, default=16.0)
    gateway_sim.add_argument("--queue-capacity", type=int, default=4096)
    gateway_sim.add_argument("--max-batch", type=int, default=256,
                             help="pipeline batch bound behind the gateway")
    gateway_sim.add_argument("--arrival-window", type=float, default=2.0,
                             help="seconds over which client start times "
                                  "are spread")
    gateway_sim.add_argument("--hot-clients", type=int, default=0,
                             help="clients that submit --hot-factor times "
                                  "the normal load")
    gateway_sim.add_argument("--hot-factor", type=int, default=10)
    gateway_sim.add_argument("--obs", action="store_true",
                             help="record metrics and print the obs report")
    gateway_sim.add_argument("--crash-org", default=None,
                             help="inject a crash of this organisation "
                                  "(e.g. Org2); arms the live telemetry "
                                  "watchdog on the gateway node")
    gateway_sim.add_argument("--crash-at", type=float, default=1.0,
                             help="virtual time of the injected crash")
    gateway_sim.add_argument("--recover-at", type=float, default=4.0,
                             help="virtual time of the recovery")
    gateway_sim.add_argument("--watchdog", type=float, default=0.5,
                             help="health watchdog evaluation interval "
                                  "(virtual seconds)")
    gateway_sim.add_argument("--breaker-latency", type=float, default=1.0,
                             help="settle-latency threshold (s) that trips "
                                  "the breaker during the crash run")
    gateway_sim.add_argument("--flight-dump", default=None,
                             help="dump the flight-recorder ring to this "
                                  "JSONL file when a health alert fires")
    gateway_sim.set_defaults(func=_cmd_gateway_sim)

    obs_report = sub.add_parser(
        "obs-report",
        help="instrumented Tic-Tac-Toe run, then every recorded metric "
             "grouped by prefix",
    )
    obs_report.add_argument("--seed", type=int, default=0)
    obs_report.add_argument("--latency", type=float, default=0.005)
    obs_report.add_argument("--drop", type=float, default=0.1)
    obs_report.add_argument("--duplicate", type=float, default=0.05)
    obs_report.add_argument("--trace-out", default=None,
                            help="also write trace records to this JSONL file")
    obs_report.add_argument("--transport", choices=["sim", "tcp"],
                            default="sim",
                            help="sim: deterministic virtual time; "
                                 "tcp: real sockets with injected loss")
    obs_report.add_argument("--export-dir", default=None,
                            help="write per-party traces, evidence logs and "
                                 "keys.json under this directory "
                                 "(the input set for `repro audit`)")
    obs_report.add_argument("--pipeline-updates", type=int, default=8,
                            help="updates per proposer in the contended "
                                 "pipeline burst that follows the game "
                                 "(recorded under pipeline.*; 0 disables)")
    obs_report.add_argument("--read-ops", type=int, default=0,
                            help="validated reads issued against the burst "
                                 "ledger, cycling cached/bounded/settled "
                                 "consistency modes (recorded under "
                                 "readcache.*; 0 disables)")
    obs_report.add_argument("--json", action="store_true",
                            help="emit the registry snapshot as JSON "
                                 "instead of the text report")
    obs_report.set_defaults(func=_cmd_obs_report)

    serve_metrics = sub.add_parser(
        "serve-metrics",
        help="run an instrumented workload and serve its metrics "
             "(Prometheus + JSON) over HTTP",
    )
    serve_metrics.add_argument("--host", default="127.0.0.1")
    serve_metrics.add_argument("--port", type=int, default=0,
                               help="listen port (0: ephemeral)")
    serve_metrics.add_argument("--rounds", type=int, default=1,
                               help="pipeline burst rounds to run before "
                                    "serving")
    serve_metrics.add_argument("--updates", type=int, default=8,
                               help="updates per proposer per round")
    serve_metrics.add_argument("--seed", type=int, default=0)
    serve_metrics.add_argument("--watchdog", type=float, default=1.0,
                               help="health watchdog interval (seconds)")
    serve_metrics.add_argument("--flight-capacity", type=int, default=2048)
    serve_metrics.add_argument("--duration", type=float, default=None,
                               help="serve for this many seconds then exit "
                                    "(default: until Ctrl-C)")
    serve_metrics.add_argument("--probe", action="store_true",
                               help="self-scrape each route once, print the "
                                    "status and exit unless --duration is "
                                    "given (smoke check)")
    serve_metrics.set_defaults(func=_cmd_serve_metrics)

    top = sub.add_parser(
        "top",
        help="poll a telemetry endpoint and print a compact live view",
    )
    top.add_argument("--url", required=True,
                     help="base endpoint URL (e.g. http://127.0.0.1:9464)")
    top.add_argument("--interval", type=float, default=1.0,
                     help="seconds between polls")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after this many polls (default: forever)")
    top.set_defaults(func=_cmd_top)

    flight_dump = sub.add_parser(
        "flight-dump",
        help="fetch a node's flight-recorder ring as JSONL",
    )
    flight_dump.add_argument("--url", required=True,
                             help="base endpoint URL of the node")
    flight_dump.add_argument("--out", default=None,
                             help="write to this file (default: stdout)")
    flight_dump.set_defaults(func=_cmd_flight_dump)

    audit = sub.add_parser(
        "audit",
        help="forensic audit: re-verify evidence, merge traces, "
             "name misbehaving parties",
    )
    audit.add_argument(
        "--keys", required=True,
        help='JSON file: {"parties": {id: public-key}, "tsa": public-key}',
    )
    audit.add_argument(
        "--log", action="append", default=[], metavar="PARTY=PATH",
        help="one party's evidence log (repeatable)",
    )
    audit.add_argument(
        "--trace", action="append", default=[], metavar="PATH",
        help="a party's JSONL trace export (repeatable)",
    )
    audit.add_argument("--merged-out", default=None,
                       help="write the merged causal timeline to this "
                            "JSONL file")
    audit.add_argument("--timeline", action="store_true",
                       help="print the merged causal timeline before "
                            "the audit report")
    audit.add_argument("--timeline-events", type=int, default=None,
                       help="cap events shown per run in the timeline")
    audit.add_argument("--expect-culprit", default=None,
                       help="exit non-zero unless this party is convicted")
    audit.set_defaults(func=_cmd_audit)

    demo = sub.add_parser("demo", help="run a built-in demo scenario")
    demo.add_argument("name", choices=sorted(_DEMOS))
    demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: "Optional[list[str]]" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Refused as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
