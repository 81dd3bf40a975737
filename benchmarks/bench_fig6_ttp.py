"""Experiment F6 — Figure 6: Tic-Tac-Toe through a trusted third party.

The same game as Figure 5, but each player shares a two-party object with
a TTP that validates every move before it is disclosed to the opponent.

Measured: per-move message cost and latency, direct vs via-TTP; and the
conditional-disclosure property — an invalid move is vetoed at the TTP
and the opponent's replica never sees it.
"""

from __future__ import annotations

from repro.agents import ValidatingTTP
from repro.apps.tictactoe import CROSS, EMPTY, NOUGHT, TicTacToeObject, TicTacToePlayer
from repro.core import Community, SimRuntime
from repro.errors import ValidationFailed
from repro.obs.report import format_table

PLAYERS = {"Cross": CROSS, "Nought": NOUGHT}


def build_direct(seed=0):
    community = Community(["Cross", "Nought"], runtime=SimRuntime(seed=seed))
    objects = {n: TicTacToeObject(PLAYERS) for n in community.names()}
    controllers = community.found_object("game", objects)
    return (community,
            TicTacToePlayer(controllers["Cross"], CROSS),
            TicTacToePlayer(controllers["Nought"], NOUGHT),
            {"Cross": objects["Cross"], "Nought": objects["Nought"]})


def build_ttp(seed=0):
    community = Community(["Cross", "Nought", "TTP"],
                          runtime=SimRuntime(seed=seed))
    side_c = {n: TicTacToeObject(PLAYERS) for n in ["Cross", "TTP"]}
    side_n = {n: TicTacToeObject(PLAYERS) for n in ["TTP", "Nought"]}
    ctrl_c = community.found_object("game_c", side_c)
    ctrl_n = community.found_object("game_n", side_n)
    ValidatingTTP(community.node("TTP"), ["game_c", "game_n"])
    return (community,
            TicTacToePlayer(ctrl_c["Cross"], CROSS),
            TicTacToePlayer(ctrl_n["Nought"], NOUGHT),
            {"Cross": side_c["Cross"], "Nought": side_n["Nought"]})


def play_three_moves(community, cross, nought, objects):
    def converged(cell, mark):
        return lambda: all(obj.board[cell] == mark
                           for obj in objects.values())

    cross.save_move(4)
    community.runtime.wait_until(converged(4, CROSS), timeout=30.0)
    nought.save_move(0)
    community.runtime.wait_until(converged(0, NOUGHT), timeout=30.0)
    cross.save_move(5)
    community.runtime.wait_until(converged(5, CROSS), timeout=30.0)


def measure(build, label, seed):
    community, cross, nought, objects = build(seed)
    network = community.runtime.network
    before = network.stats.delivered
    start = network.now()
    play_three_moves(community, cross, nought, objects)
    return {
        "deployment": label,
        "messages_per_move": (network.stats.delivered - before) / 3,
        "virtual_seconds_per_move": (network.now() - start) / 3,
        "objects": objects,
        "community": community,
        "players": (cross, nought),
    }


def test_fig6_ttp_mediated_game(benchmark, report):
    direct = measure(build_direct, "direct (Fig 5)", seed=1)
    mediated = measure(build_ttp, "via TTP (Fig 6)", seed=2)

    # Both deployments agree on the played board.
    for result in (direct, mediated):
        boards = {tuple(obj.board) for obj in result["objects"].values()}
        assert len(boards) == 1

    # Conditional disclosure: an invalid move is vetoed at the TTP and
    # never reaches the opponent.
    community = mediated["community"]
    cross, nought = mediated["players"]
    try:
        nought.save_move(4)  # square already claimed
        cheat_blocked = False
    except ValidationFailed:
        cheat_blocked = True
    community.settle(5.0)
    assert cheat_blocked
    assert mediated["objects"]["Cross"].board[4] == CROSS

    seeds = iter(range(100, 1_000_000))

    def one_mediated_move():
        com, cr, _no, _objs = build_ttp(seed=next(seeds))
        cr.save_move(4)
        com.settle(5.0)

    benchmark.pedantic(one_mediated_move, rounds=10, iterations=1)

    factor = mediated["messages_per_move"] / direct["messages_per_move"]
    rows = [
        [d["deployment"], d["messages_per_move"],
         d["virtual_seconds_per_move"]]
        for d in (direct, mediated)
    ]
    body = format_table(
        ["deployment", "msgs/move", "virtual s/move"], rows
    ) + (
        f"\n\nTTP mediation overhead factor: {factor:.2f}x\n"
        "invalid move vetoed at TTP, never disclosed to opponent: "
        f"{cheat_blocked}"
    )
    report("F6", "Tic-Tac-Toe through a TTP", body)
    assert factor > 1.5
