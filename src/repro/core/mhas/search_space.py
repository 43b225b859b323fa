"""MHAS search space (paper Sec. IV-C1).

A candidate model is a tree: one shared DAG (trunk) plus one private DAG
per task (Fig. 3a).  Each DAG is a chain of up to ``max_*_layers`` fully
connected layers whose widths come from ``size_choices``; sampling walks
the DAG picking, at each step, either "stop (connect to the output)" or
"continue to a hidden layer of width w" — one categorical decision over
``len(size_choices) + 1`` options per step, autoregressively.

The resulting decision sequence maps 1:1 onto an
:class:`~repro.nn.multitask.ArchitectureSpec`, and its layers pull weights
from a shared :class:`WeightBank` (ENAS-style parameter sharing, the core
trick the paper borrows and extends to multi-task search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ...nn.layers import Parameter
from ...nn.initializers import glorot_uniform, zeros
from ...nn.multitask import ArchitectureSpec

__all__ = ["MHASConfig", "SearchSpace", "WeightBank"]

#: Sentinel decision meaning "stop: connect to the output layer".
STOP = 0


@dataclass
class MHASConfig:
    """Knobs of the multi-task hybrid architecture search.

    Defaults are scaled-down versions of the paper's Sec. V-A6 settings
    (Nt=2000, 5 epochs/iteration, controller every 50 iterations, LSTM-64,
    controller lr 0.00035, sizes in [100, 2000]) so a search finishes in
    seconds on the scaled datasets.
    """

    #: Maximum shared trunk layers (paper: 2).
    max_shared_layers: int = 2
    #: Maximum private layers per task (paper: 2).
    max_private_layers: int = 2
    #: Layer width choices (paper searches 100..2000 neurons).
    size_choices: Tuple[int, ...] = (32, 64, 128, 256)
    #: Total search iterations Nt.
    iterations: int = 40
    #: Model-training epochs per model iteration (paper: 5).
    model_epochs: int = 1
    #: Model-training batch size (paper: 16384).
    model_batch: int = 4096
    #: Train the controller every this many iterations (paper: 50).
    controller_every: int = 5
    #: Architectures sampled per controller update (paper: one batch).
    controller_samples: int = 4
    #: Controller Adam learning rate (paper: 0.00035).
    controller_lr: float = 0.00035
    #: Model Adam learning rate (paper: 0.001, decay 0.999).
    model_lr: float = 0.001
    lr_decay: float = 0.999
    #: LSTM hidden units (paper: 64).
    controller_hidden: int = 64
    #: Entropy bonus weight keeping exploration alive.
    entropy_weight: float = 1e-3
    #: EMA decay of the REINFORCE baseline.
    baseline_decay: float = 0.9
    #: Rows sampled when estimating a candidate's misclassification rate.
    eval_sample: int = 4096
    #: Early-stop tolerance on the best-ratio delta (paper: 1e-4).
    tol: float = 1e-4
    #: Consecutive controller rounds under ``tol`` before stopping.
    patience: int = 4

    def __post_init__(self):
        if self.max_shared_layers < 0 or self.max_private_layers < 0:
            raise ValueError("layer maxima must be non-negative")
        if not self.size_choices:
            raise ValueError("size_choices must be non-empty")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")


class SearchSpace:
    """Decision layout for one multi-task search problem."""

    def __init__(self, input_dim: int, output_dims: Dict[str, int],
                 config: MHASConfig):
        if input_dim <= 0:
            raise ValueError("input_dim must be positive")
        if not output_dims:
            raise ValueError("at least one task required")
        self.input_dim = input_dim
        self.output_dims = dict(output_dims)
        self.tasks = tuple(sorted(output_dims))
        self.config = config
        #: Decision scopes in sampling order: the shared trunk first, then
        #: each task's private chain (paper Fig. 3a tree, preorder).
        self.scopes: List[Tuple[str, int]] = [("shared", config.max_shared_layers)]
        self.scopes.extend((task, config.max_private_layers) for task in self.tasks)

    @property
    def n_options(self) -> int:
        """Options per decision: STOP plus one per width choice."""
        return len(self.config.size_choices) + 1

    @property
    def max_decisions(self) -> int:
        """Upper bound on decisions per sampled architecture."""
        return sum(limit for _, limit in self.scopes)

    def spec_from_decisions(self, decisions: Sequence[int]) -> ArchitectureSpec:
        """Translate a decision sequence into an architecture.

        ``decisions`` lists, scope by scope, the chosen option per step
        (STOP terminates the scope early; trailing steps are then absent).
        """
        sizes = self.config.size_choices
        it = iter(decisions)
        shared: List[int] = []
        private: Dict[str, Tuple[int, ...]] = {}
        for scope, limit in self.scopes:
            chain: List[int] = []
            for _ in range(limit):
                choice = next(it, STOP)
                if choice == STOP:
                    break
                chain.append(sizes[choice - 1])
            if scope == "shared":
                shared = chain
            else:
                private[scope] = tuple(chain)
        return ArchitectureSpec(
            input_dim=self.input_dim,
            shared_sizes=tuple(shared),
            private_sizes=private,
            output_dims=self.output_dims,
        )

    def search_space_size(self) -> int:
        """Number of distinct architectures (for reporting)."""
        n = len(self.config.size_choices)

        def chain_count(limit: int) -> int:
            return sum(n**k for k in range(limit + 1))

        total = chain_count(self.config.max_shared_layers)
        for _ in self.tasks:
            total *= chain_count(self.config.max_private_layers)
        return total


class WeightBank:
    """Shared parameter storage across sampled architectures.

    Parameters are keyed by ``(scope, in_dim, out_dim)``: whenever two
    sampled architectures place a layer of the same shape at the same
    position, they literally share the same tensors — so training any
    sample advances them all (ENAS parameter sharing; paper Sec. IV-C).
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._bank: Dict[Tuple[str, int, int], Tuple[Parameter, Parameter]] = {}

    def provider(self, scope: str, in_dim: int, out_dim: int):
        """WeightProvider for :class:`~repro.nn.multitask.MultiTaskMLP`."""
        key = (scope, in_dim, out_dim)
        entry = self._bank.get(key)
        if entry is None:
            entry = (
                Parameter(glorot_uniform((in_dim, out_dim), self._rng),
                          f"bank/{scope}/{in_dim}x{out_dim}.W"),
                Parameter(zeros(out_dim), f"bank/{scope}/{in_dim}x{out_dim}.b"),
            )
            self._bank[key] = entry
        return entry

    def __len__(self) -> int:
        return len(self._bank)

    def total_params(self) -> int:
        """Scalar weights currently allocated in the bank."""
        return sum(w.size + b.size for w, b in self._bank.values())
