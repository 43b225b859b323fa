"""Lazy updates and threshold-driven retraining (paper Sec. IV-D).

Shows the full modification lifecycle on one structure:

1. inserts/updates/deletes are absorbed by the auxiliary structure with
   no retraining (the model never changes);
2. a byte-budget tracker measures modification volume;
3. once the threshold is crossed the structure retrains itself — warm
   started from the previous model (our implementation of the paper's
   "model reuse" future-work note) — and the auxiliary table shrinks back.

Run:  python examples/lazy_updates.py
"""

import numpy as np

import repro
from repro import DeepMappingConfig
from repro.data import synthetic


def report(dm, label):
    r = dm.size_report()
    print(f"{label:<28} total={r.total_bytes // 1024:>4} KB  "
          f"aux_rows={r.n_in_aux:>5}  retrains={dm.tracker.total_retrains}")


def main() -> None:
    base = synthetic.multi_column(6000, "high", domain_factor=2.0)
    threshold = base.uncompressed_bytes() // 5  # retrain at ~20% modified
    config = DeepMappingConfig(
        epochs=150, batch_size=512,
        retrain_threshold_bytes=threshold,
        warm_start_rebuild=True,
    )
    dm = repro.build(base, config)
    print(f"base: {base.n_rows} rows "
          f"({base.uncompressed_bytes() // 1024} KB raw); retrain threshold "
          f"= {threshold // 1024} KB of modifications\n")
    report(dm, "after initial build")

    # Rounds of mixed modifications; watch the tracker do its job.
    rng = np.random.default_rng(1)
    grown = base
    for round_no in range(1, 6):
        batch = synthetic.insert_batch(grown, 600, "high",
                                       seed=round_no, mode="gaps")
        dm.insert(batch)
        grown = grown.concat(batch)

        victims = rng.choice(grown.column("key"), size=200, replace=False)
        dm.delete({"key": victims})
        keep = ~np.isin(grown.column("key"), victims)
        grown = grown.take(np.flatnonzero(keep))

        report(dm, f"after round {round_no}")

    print(f"\nwarm start transferred {dm.model.warm_started_tensors} weight "
          f"tensors into the last retrain")

    # The structure still answers exactly for the surviving logical rows.
    probe = {"key": grown.column("key")}
    result = dm.lookup(probe)
    exact = all(
        np.array_equal(result.values[c], grown.column(c))
        for c in grown.value_columns
    )
    print(f"all {grown.n_rows} surviving rows answer losslessly: {exact}")
    assert exact and result.found.all()
    # Five rounds of ~20 % each cross the DM-Z1 threshold at least once.
    assert dm.tracker.total_retrains >= 1, "the retrain rule never fired"


if __name__ == "__main__":
    main()
