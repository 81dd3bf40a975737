"""Experiment F5 — Figure 5: the Tic-Tac-Toe game with a cheat attempt.

Replays the exact sequence from the paper's screenshot: Cross claims the
middle-row centre square; Nought claims the top-left square; Cross claims
the middle-row right square; then Cross attempts to mark the bottom-row
centre square with a zero (pre-empting Nought's move).

Expected outcomes (asserted):
* the cheat is invalidated and never reflected at Nought's server;
* the agreed state of the game is not updated by the attempt;
* Nought holds non-repudiable evidence of the attempt to cheat.
"""

from __future__ import annotations

import pytest

from repro.apps.tictactoe import CROSS, EMPTY, NOUGHT, TicTacToeObject, TicTacToePlayer
from repro.core import Community, SimRuntime
from repro.errors import ValidationFailed


def build(seed=0):
    community = Community(["Cross", "Nought"], runtime=SimRuntime(seed=seed))
    players = {"Cross": CROSS, "Nought": NOUGHT}
    objects = {n: TicTacToeObject(players) for n in community.names()}
    controllers = community.found_object("game", objects)
    cross = TicTacToePlayer(controllers["Cross"], CROSS)
    nought = TicTacToePlayer(controllers["Nought"], NOUGHT)
    return community, cross, nought, objects


def play_figure5(community, cross, nought):
    """Returns (cheat_rejected, diagnostics)."""
    cross.save_move(4)
    nought.save_move(0)
    cross.save_move(5)
    try:
        cross.save_move(7, mark=NOUGHT)
        return False, []
    except ValidationFailed as exc:
        return True, list(exc.diagnostics)


def test_fig5_game_with_cheat_attempt(benchmark, report):
    community, cross, nought, objects = build()
    rejected, diagnostics = play_figure5(community, cross, nought)
    community.settle(1.0)

    assert rejected
    assert objects["Nought"].board == objects["Cross"].board
    assert objects["Nought"].board[4] == CROSS
    assert objects["Nought"].board[0] == NOUGHT
    assert objects["Nought"].board[5] == CROSS
    assert objects["Nought"].board[7] == EMPTY  # cheat not reflected
    # Nought holds evidence of the rejected proposal.
    log = community.node("Nought").ctx.evidence
    vetoes = [entry for entry in log.entries("authenticated-decision")
              if not entry.payload["valid"]]
    assert vetoes
    log.verify_chain()

    # Benchmark the cost of one validated move.
    seeds = iter(range(1, 1_000_000))

    def one_move():
        _com, cr, _no, _objs = build(seed=next(seeds))
        cr.save_move(4)

    benchmark.pedantic(one_move, rounds=20, iterations=1)

    board = objects["Nought"].board
    grid = "\n".join(
        " ".join(cell or "." for cell in board[row * 3:(row + 1) * 3])
        for row in range(3)
    )
    body = (
        "move sequence: X@centre, O@top-left, X@mid-right, "
        "then Cross attempts O@bottom-centre\n\n"
        f"agreed board at both servers:\n{grid}\n\n"
        f"cheat rejected: {rejected}\n"
        f"diagnostics: {diagnostics}\n"
        "evidence of the attempt held by Nought: yes (log verifies)"
    )
    report("F5", "Tic-Tac-Toe with cheat attempt", body)
