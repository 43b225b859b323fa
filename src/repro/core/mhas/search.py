"""MHAS search loop (paper Algorithm 2).

Alternates two phases over ``Nt`` iterations:

- **model training** — sample an architecture from the controller, bind it
  to the shared :class:`~repro.core.mhas.search_space.WeightBank`, and train
  it for a few epochs (advancing the shared weights);
- **controller training** (every ``controller_every`` iterations) — sample
  a batch of architectures, score each with the estimated Eq. 1 ratio
  (reward = −ratio), and apply REINFORCE.

The search records every sampled candidate's (iteration, ratio, FLOPs)
triple — the raw material of the paper's Figures 9 and 10 — and stops
early when the best ratio stops improving (paper: |Δ| < 1e-4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ...nn.multitask import ArchitectureSpec, MultiTaskMLP
from ...nn.optimizers import Adam, ExponentialDecay
from ...nn.training import Trainer
from .controller import Controller
from .reward import estimate_ratio, flops_per_lookup, measure_aux_bytes_per_row
from .search_space import MHASConfig, SearchSpace, WeightBank

__all__ = ["SearchSample", "SearchOutcome", "search"]


@dataclass
class SearchSample:
    """One scored candidate from the search trace."""

    iteration: int
    ratio: float
    flops: int
    spec: ArchitectureSpec
    phase: str  # "model" or "controller"


@dataclass
class SearchOutcome:
    """Result of :func:`search`."""

    spec: ArchitectureSpec
    model: MultiTaskMLP
    history: List[SearchSample] = field(default_factory=list)
    best_ratio: float = float("inf")
    iterations_run: int = 0
    converged: bool = False

    def ratios(self) -> np.ndarray:
        """Sampled ratios in search order (Fig. 9's y-series)."""
        return np.array([s.ratio for s in self.history])


def search(
    x: np.ndarray,
    labels: Dict[str, np.ndarray],
    output_dims: Dict[str, int],
    dataset_bytes: int,
    overhead_bytes: int,
    config: Optional[MHASConfig] = None,
    rng: Optional[np.random.Generator] = None,
    weight_dtype: str = "float16",
) -> SearchOutcome:
    """Run MHAS over encoded keys ``x`` and label codes ``labels``.

    Parameters
    ----------
    x:
        Encoded key matrix (n, input_dim).
    labels:
        Per-task label codes, aligned with ``x``.
    output_dims:
        Task cardinalities (softmax widths).
    dataset_bytes:
        ``size(D)`` — the Eq. 1 denominator.
    overhead_bytes:
        Architecture-independent terms (``V_exist`` + ``f_decode``).
    weight_dtype:
        The build's ``DeepMappingConfig.weight_dtype`` — the widest the
        frozen weights may be stored; candidates are sized at whatever
        width at or below it the freeze would choose.
    """
    config = config if config is not None else MHASConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    n_rows = x.shape[0]

    space = SearchSpace(x.shape[1], output_dims, config)
    bank = WeightBank(rng)
    controller = Controller(space, rng)
    flat_keys = np.arange(n_rows, dtype=np.int64)  # proxy for key codes
    aux_bytes_per_row = measure_aux_bytes_per_row(flat_keys, labels)

    def build(spec: ArchitectureSpec) -> MultiTaskMLP:
        return MultiTaskMLP(spec, weights=bank.provider)

    def score(model: MultiTaskMLP, sample_idx: np.ndarray) -> float:
        return estimate_ratio(
            model, x, labels,
            n_rows=n_rows,
            aux_bytes_per_row=aux_bytes_per_row,
            overhead_bytes=overhead_bytes,
            dataset_bytes=dataset_bytes,
            sample_idx=sample_idx,
            weight_dtype=weight_dtype,
        )

    outcome = SearchOutcome(
        spec=space.spec_from_decisions([]), model=build(space.spec_from_decisions([]))
    )
    best_spec: Optional[ArchitectureSpec] = None
    best_ratio = float("inf")
    stale_rounds = 0
    previous_best = float("inf")

    for iteration in range(1, config.iterations + 1):
        # ---- model training phase (every iteration; paper Nm ~= Nt) -----
        trajectory = controller.sample(rng)
        spec = space.spec_from_decisions(trajectory.decisions)
        model = build(spec)
        optimizer = Adam(ExponentialDecay(config.model_lr, config.lr_decay))
        trainer = Trainer(model, optimizer, batch_size=config.model_batch,
                          tol=0.0, rng=rng)
        trainer.fit(x, labels, epochs=config.model_epochs)

        sample_idx = rng.choice(n_rows, size=min(config.eval_sample, n_rows),
                                replace=False)
        ratio = score(model, sample_idx)
        outcome.history.append(SearchSample(iteration, ratio,
                                            flops_per_lookup(spec), spec, "model"))
        if ratio < best_ratio:
            best_ratio, best_spec = ratio, spec

        # ---- controller training phase (every controller_every iters) ---
        if iteration % config.controller_every == 0:
            trajectories, rewards = [], []
            for _ in range(config.controller_samples):
                t = controller.sample(rng)
                s = space.spec_from_decisions(t.decisions)
                m = build(s)
                idx = rng.choice(n_rows, size=min(config.eval_sample, n_rows),
                                 replace=False)
                r = score(m, idx)
                outcome.history.append(
                    SearchSample(iteration, r, flops_per_lookup(s), s,
                                 "controller"))
                if r < best_ratio:
                    best_ratio, best_spec = r, s
                trajectories.append(t)
                rewards.append(-r)  # lower ratio => higher reward
            controller.reinforce(trajectories, rewards)

            # Early stopping on the best-ratio plateau (paper Sec. V-A6).
            if abs(previous_best - best_ratio) < config.tol:
                stale_rounds += 1
            else:
                stale_rounds = 0
            previous_best = best_ratio
            if stale_rounds >= config.patience:
                outcome.converged = True
                outcome.iterations_run = iteration
                break
        outcome.iterations_run = iteration

    if best_spec is None:  # no iteration ran (defensive)
        best_spec = space.spec_from_decisions([])
    outcome.spec = best_spec
    outcome.model = build(best_spec)
    outcome.best_ratio = best_ratio
    return outcome
