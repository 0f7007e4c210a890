"""The shared benchmark world and the seeded inputs every workload sends.

World: ``WorldConfig()`` at full scale (1104 labels, 30 models) and the
trained agent stored beside this file.  Inputs: ``mscoco2017`` items drawn
from the workload seed.  A seed changes which items are drawn and when
requests arrive, never how many requests there are or how many of each
regime, so every seed measures the same composition of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro import GroundTruth, LabelingSpec, WorldConfig, build_label_space, build_zoo
from repro.data.datasets import DataItem, generate_dataset
from repro.data.generator import WorldGenerator
from repro.rl.agents import make_agent
from repro.scheduling.qgreedy import AgentPredictor

HERE = Path(__file__).resolve().parent
AGENT_PATH = HERE / "agent.npz"
AGENT_ALGO = "dueling_dqn"
AGENT_HIDDEN = 256
DATASET = "mscoco2017"

#: The three regimes, with the ``repro.cli`` defaults for their budgets.
REGIMES = {
    "qgreedy": LabelingSpec(),
    "deadline": LabelingSpec(deadline=0.5),
    "deadline_memory": LabelingSpec(deadline=0.5, memory_budget=8000.0),
}
REGIME_NAMES = tuple(REGIMES)

#: Catalog items are drawn from this many dataset indices.
INDEX_POOL = 100_000


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` the smoke test."""

    catalog_items: int
    batch_size: int
    setup_repeats: int
    serve_rate: float
    gateway_items: int
    gateway_batch: int
    gateway_requests: int


SCALES = {
    "full": Scale(
        catalog_items=512,
        batch_size=64,
        setup_repeats=3,
        serve_rate=35.0,
        gateway_items=192,
        gateway_batch=32,
        gateway_requests=48,
    ),
    "tiny": Scale(
        catalog_items=48,
        batch_size=16,
        setup_repeats=1,
        serve_rate=60.0,
        gateway_items=32,
        gateway_batch=8,
        gateway_requests=6,
    ),
}


@dataclass
class World:
    config: WorldConfig
    space: object
    zoo: object
    generator: WorldGenerator

    def item(self, index: int) -> DataItem:
        """Item ``index`` of the dataset: identical wherever it is built."""
        return DataItem(
            item_id=f"{DATASET}/{index:06d}",
            dataset=DATASET,
            index=index,
            content=self.generator.generate_content(DATASET, index),
        )


def build_world() -> World:
    config = WorldConfig()
    space = build_label_space(config.vocab_scale)
    zoo = build_zoo(config, space)
    return World(config, space, zoo, WorldGenerator(space, config))


def load_predictor(world: World) -> AgentPredictor:
    agent = make_agent(
        AGENT_ALGO,
        obs_dim=len(world.space),
        n_actions=len(world.zoo) + 1,
        hidden_size=AGENT_HIDDEN,
    )
    agent.load(AGENT_PATH)
    return AgentPredictor(agent, len(world.zoo))


def catalog_indices(seed: int, count: int) -> list[int]:
    """``count`` distinct dataset indices drawn from the seed."""
    return sorted(random.Random(seed).sample(range(INDEX_POOL), count))


def record_catalog(world: World, items, truth_cls=GroundTruth) -> GroundTruth:
    return truth_cls(world.zoo, items, world.config)


def gateway_catalog(world: World, count: int) -> list[DataItem]:
    """The catalog ``repro.cli gateway --items count`` serves."""
    return list(generate_dataset(world.space, world.config, DATASET, count))


# -- closed-loop batch sequence (offline, sharded) ---------------------------


def batch_plan(catalog: list[DataItem], batch_size: int) -> list[tuple[str, list]]:
    """One cycle of ``(regime, items)`` batches: each block in every regime.

    Regimes rotate from batch to batch, and a whole cycle holds the same
    work in each regime.
    """
    blocks = [
        catalog[start : start + batch_size]
        for start in range(0, len(catalog) - batch_size + 1, batch_size)
    ]
    return [(regime, block) for block in blocks for regime in REGIME_NAMES]


# -- open-loop traffic (serve) -----------------------------------------------


#: Share of serve requests that repeat an earlier (item, regime) pair.
SERVE_REPEAT_SHARE = 0.2
SERVE_PRIORITIES = (0, 1)


@dataclass(frozen=True)
class ServeRequest:
    due: float
    index: int
    regime: str
    priority: int
    repeat: bool


def serve_schedule(seed: int, rate: float, seconds: float) -> list[ServeRequest]:
    """Poisson arrivals at ``rate`` over exactly ``seconds``.

    The request count, the per-regime and per-priority counts and the
    number of repeats depend only on ``rate`` and ``seconds``; the seed
    picks arrival times, items and which requests repeat.
    """
    rng = random.Random(seed)
    count = max(3, int(round(rate * seconds)))
    gaps = [rng.expovariate(rate) for _ in range(count)]
    scale = seconds / sum(gaps)
    regimes = [REGIME_NAMES[i % len(REGIME_NAMES)] for i in range(count)]
    priorities = [SERVE_PRIORITIES[i % len(SERVE_PRIORITIES)] for i in range(count)]
    rng.shuffle(regimes)
    rng.shuffle(priorities)
    # A repeat names an earlier pair of its own regime, so it needs one.
    eligible = [p for p in range(count) if regimes[p] in regimes[:p]]
    repeats = set(rng.sample(eligible, int(SERVE_REPEAT_SHARE * count)))
    fresh = iter(rng.sample(range(INDEX_POOL), count))
    requests: list[ServeRequest] = []
    due = 0.0
    for position in range(count):
        due += gaps[position] * scale
        regime = regimes[position]
        if position in repeats:
            earlier = [r for r in requests if r.regime == regime]
            index = earlier[rng.randrange(len(earlier))].index
        else:
            index = next(fresh)
        requests.append(
            ServeRequest(due, index, regime, priorities[position], position in repeats)
        )
    return requests


# -- closed-loop HTTP traffic (gateway) --------------------------------------


#: One keep-alive connection per demo tenant.
GATEWAY_TENANTS = ("tenant-0", "tenant-1")


def gateway_requests(
    seed: int, catalog_size: int, batch: int, count: int
) -> dict[str, list[tuple[str, list[int]]]]:
    """Per tenant, a cycle of ``(regime, catalog positions)`` requests.

    Regimes rotate, so each tenant's cycle holds ``count / 3`` requests
    of every regime; the seed picks the items in each request.
    """
    rng = random.Random(seed)
    plan = {}
    for offset, tenant in enumerate(GATEWAY_TENANTS):
        plan[tenant] = [
            (
                REGIME_NAMES[(turn + offset) % len(REGIME_NAMES)],
                rng.sample(range(catalog_size), batch),
            )
            for turn in range(count)
        ]
    return plan
