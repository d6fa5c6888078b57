"""The four workloads: seeded rotwave configs and the CLI commands run on them.

A round runs each command of a workload once.  Every input that changes
with the seed is drawn from a range on which every command succeeds and
does the same kind of work (see README.md), so that the seed varies the
numbers, not the path through the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("analyze", "sweep", "reconstruct", "onset")

# C1 of the ROADMAP baseline table: constant vorticity gamma = -1.
_C1_FLOW = {"d": 1.0, "g": 9.81, "p0": -2.0}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; the runner adds ``--config <path>`` and ``--out <dir>``."""

    name: str
    config: str
    argv: tuple


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _piecewise(rng: random.Random) -> dict:
    """One jump near mid-depth: positive gamma below it, strongly negative above.

    The jump and the values are multiples of 1/64, so the program's
    arithmetic on them is exact.  With other values two faults of the program
    make some commands fail (see the FOUND lines in CHANGES.md): at a jump
    such as -0.4701 the mesh gets two nodes 5.6e-17 apart, and when rounding
    makes the Hoelder seminorm a numpy float, report.json cannot be written.
    """
    return {
        "kind": "piecewise_constant",
        "breakpoints": [-rng.randint(26, 38) / 64.0],
        "values": [rng.randint(20, 44) / 64.0, -rng.randint(103, 153) / 64.0],
    }


def _tabulated(rng: random.Random) -> dict:
    """Nine nodes, gamma < 0 throughout, so Gamma is least at the bed p = -1."""
    nodes = [k / 8.0 - 1.0 for k in range(9)]
    return {
        "kind": "tabulated",
        "nodes": nodes,
        "values": [_uniform(rng, -1.6, -0.4) for _ in nodes],
    }


def build(workload: str, seed: int) -> tuple[dict, list[Command]]:
    """(configs by name, commands of one round) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "analyze":
        configs = {
            "constant": {
                "flow": dict(_C1_FLOW),
                "vorticity": {"kind": "constant", "gamma": -_uniform(rng, 0.75, 1.25)},
            },
            "piecewise": {"flow": {"d": 1.0, "g": 1.0, "p0": -1.0}, "vorticity": _piecewise(rng)},
        }
        commands = [Command(name, name, ("analyze",)) for name in configs]
    elif workload == "sweep":
        configs = {
            "constant": {
                "flow": dict(_C1_FLOW),
                "vorticity": {"kind": "constant", "gamma": -1.0},
                "numerics": {"mesh_points": 1001},
            }
        }
        argv = ("sweep", "--param", "gamma:-1:1:3", "--quantity", "lambda_star")
        commands = [Command("gamma", "constant", argv)]
    elif workload == "reconstruct":
        configs = {
            "constant": {
                "flow": dict(_C1_FLOW),
                "vorticity": {"kind": "constant", "gamma": -1.0},
                "reconstruct": {"n_q": 32},
            }
        }
        argv = ("reconstruct", "--amplitude", "0.01", "--amplitude", "0.02")
        commands = [Command("two_amplitudes", "constant", argv)]
    elif workload == "onset":
        configs = {
            "tabulated": {"flow": {"d": 1.0, "g": 9.81, "p0": -1.0}, "vorticity": _tabulated(rng)},
            "piecewise": {"flow": {"d": 1.0, "g": 1.0, "p0": -1.0}, "vorticity": _piecewise(rng)},
        }
        commands = [
            Command(
                "tabulated",
                "tabulated",
                ("sweep", "--param", "lambda:1.2:2:9", "--quantity", "onset"),
            ),
            Command(
                "piecewise",
                "piecewise",
                ("sweep", "--param", "lambda:1.5:2.5:17", "--quantity", "onset"),
            ),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return configs, commands
