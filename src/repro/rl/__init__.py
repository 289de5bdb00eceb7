"""Reinforcement-learning core: rewards, GAE buffer, PPO, trajectory
filtering, and the epoch training loop."""

from .reward import RewardFn, combine_rewards, make_reward, reward_names
from .buffer import TrajectoryBuffer, discount_cumsum
from .ppo import PPOAgent, UpdateStats
from .filtering import FilterRange, TrajectoryFilter, probe_distribution
from .result import EpochRecord, TrainingResult
from .trainer import Trainer, train

__all__ = [
    "RewardFn",
    "make_reward",
    "combine_rewards",
    "reward_names",
    "TrajectoryBuffer",
    "discount_cumsum",
    "PPOAgent",
    "UpdateStats",
    "FilterRange",
    "TrajectoryFilter",
    "probe_distribution",
    "EpochRecord",
    "Trainer",
    "TrainingResult",
    "train",
]
