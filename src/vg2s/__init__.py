"""Job-shop scheduling lab: instance modeling, a semi-active constructive
environment, dispatching-rule baselines, an exact small-instance oracle,
and a variational graph encoder / attention policy trained in two phases."""

from .instance import GenConfig, Instance, parse_orlib, parse_taillard, generate_random
from .graph import HeteroGraph, build_graph, static_features
from .env import ScheduleState, reset, replay, state_features
from .rules import Rule, dispatch, improvement_rate, optimality_gap
from .oracle import OracleResult, branch_and_bound, enumerate_all
from .vge import ModelConfig
from .trainer import TrainConfig

__all__ = [
    "GenConfig", "Instance", "parse_orlib", "parse_taillard", "generate_random",
    "HeteroGraph", "build_graph", "static_features",
    "ScheduleState", "reset", "replay", "state_features",
    "Rule", "dispatch", "improvement_rate", "optimality_gap",
    "OracleResult", "branch_and_bound", "enumerate_all",
    "ModelConfig", "TrainConfig",
]
