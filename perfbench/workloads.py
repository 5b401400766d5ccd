"""Seeded scenario generators, one per benchmark workload.

Each generator turns a seed into the `.cfg` files a user would hand to
`fieldosc run`; the program sees only those files.  The seed changes the
physics (field strengths and signs, initial data, parameter ranges) but
never the amount of work in a pass: step counts, grid sizes, map sizes and
the number of scenarios per family are fixed, so the timings of different
seeds are comparable and their spread measures the machine, not the mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """How the passes of a workload call `fieldosc run`.  The reason for
    each workload is its `why` in BENCHMARK.json."""

    name: str
    threads: int  # --threads of every timed pass; the warm-up pass uses 1
    check_only: bool


def _num(x: float) -> str:
    return repr(float(x))


def _vec(values) -> str:
    return ", ".join(_num(v) for v in values)


def _cfg(**keys) -> str:
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def _classical_oracle(rng: random.Random):
    # Two scenarios at the default horizon 4 and dt 1e-3, where the RK4
    # finite-difference oracle is ~95% of the run: b3 of opposite signs, so
    # both rotation senses of the frame map are checked, and E = 0 in one,
    # which adds the phase-vanishes check.  |b3| <= 3 keeps omega*dt small
    # enough that the 1e-6 deviation gate has decades of margin.  A pass is
    # kept short (~1.5 s) so that a run holds many of them.
    sign = rng.choice((1, -1))
    zero_e = rng.randrange(2)
    for i in range(2):
        e = (0.0, 0.0, 0.0) if i == zero_e else [rng.uniform(-0.2, 0.2) for _ in range(3)]
        yield f"oracle-{i}", _cfg(
            mode="classical-equivalence",
            seed=rng.randrange(2**31),
            b3=_num((sign if i == 0 else -sign) * rng.uniform(0.8, 3.0)),
            e_field=_vec(e),
            z0=_vec(rng.uniform(-0.3, 0.3) for _ in range(6)),
        )


# grid_n -> evolution time: the step count shrinks as the grid grows, so
# every size costs about the same while the balance between FFT work and
# per-step Python overhead moves across the three scenarios.
_QUANTUM_GRIDS = {64: 0.8, 128: 0.3, 256: 0.06}


def _quantum_grid(rng: random.Random):
    # Packet centre, momentum and width stay well inside the default
    # half-width 8, so no map raises GridSupportError.  The field has a
    # random sign and direction but a narrow strength range (|b3| in
    # [2, 3], |E| = 0.12): the link defects grow with both, and a wide
    # range would make the minimum check margin a function of the seed.
    # The smallest grid is drive-free, which adds the moving-origin
    # identity check.
    for n, time in _QUANTUM_GRIDS.items():
        phi = rng.uniform(0.0, 2.0 * math.pi)
        e = (0.0, 0.0) if n == 64 else (0.12 * math.cos(phi), 0.12 * math.sin(phi))
        yield f"grid-{n}", _cfg(
            mode="quantum-pipeline",
            seed=rng.randrange(2**31),
            b3=_num(rng.choice((1, -1)) * rng.uniform(2.0, 3.0)),
            e_field=_vec((*e, 0.0)),
            grid_n=n,
            time=_num(time),
            center=_vec(rng.uniform(-0.6, 0.6) for _ in range(2)),
            momentum=_vec(rng.uniform(-0.4, 0.4) for _ in range(2)),
            width=_num(rng.uniform(0.7, 0.9)),
        )


def _floquet_sweep(rng: random.Random):
    # One Mathieu map of 21 x 9 points (the shipped demo has 21 x 5) with
    # q_min = 0, so the map also runs one scalar monodromy per a value for
    # the constant-frequency check; two case1 runs at 10,000 inline RK4 steps
    # over the default time 3 (the cost of its rotation artifact grows with
    # the time); two case2 and one expansion scenario, which are cheap but
    # cover the reductions and the Hermite expansion.  The minimum check
    # margin comes from case2, and the minimum of two varies less by seed;
    # with three of six scenarios taking 0.5 s or more, the median verdict
    # is not a few-millisecond case2 run, whose timing is mostly noise.
    # The passes run on the 2-thread worker pool, the only workload that
    # does: six scenarios of mixed cost queue on two workers, and a pass is
    # short (~1.6 s), so a run holds many samples despite the pool's noise.
    yield "mathieu-0", _cfg(
        mode="hill-stability",
        a_min=_num(rng.uniform(0.1, 0.4)),
        a_max=_num(rng.uniform(2.0, 3.0)),
        a_count=21,
        q_min=_num(0.0),
        q_max=_num(rng.uniform(0.3, 0.8)),
        q_count=9,
    )
    for i in range(2):
        yield f"case1-{i}", _cfg(
            mode="case1",
            b3_const=_num(rng.uniform(0.5, 1.5)),
            b3_cos_amp=_num(rng.uniform(0.2, 0.6)),
            b3_cos_freq=_num(rng.uniform(0.5, 2.0)),
            ode_steps=10000,
        )
    for i in range(2):
        yield f"case2-{i}", _cfg(
            mode="case2",
            seed=rng.randrange(2**31),
            b1=_num(rng.uniform(0.3, 1.2)),
            b3=_num(rng.uniform(0.5, 1.5)),
            alpha=_num(rng.choice((1, -1)) * rng.uniform(0.3, 1.5)),
        )
    yield "expansion-0", _cfg(
        mode="eigenstate-expansion",
        theta=_num(rng.uniform(-math.pi, math.pi)),
        max_level=5,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("classical-oracle", threads=1, check_only=True),
        Workload("quantum-grid", threads=1, check_only=False),
        Workload("floquet-sweep", threads=2, check_only=False),
    )
}

_GENERATORS = {
    "classical-oracle": _classical_oracle,
    "quantum-grid": _quantum_grid,
    "floquet-sweep": _floquet_sweep,
}


def scenario_texts(workload: str, seed: int) -> list[tuple[str, str]]:
    """(file stem, config text) pairs of one workload; same seed, same text."""
    return list(_GENERATORS[workload](random.Random(f"{workload}:{seed}")))


def write_configs(workload: str, seed: int, dest: Path) -> list[Path]:
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, text in scenario_texts(workload, seed):
        path = dest / f"{stem}.cfg"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
