"""Tests for the verification audit helper."""

import numpy as np
import pytest

from repro import DeepMapping
from repro.core.verify import verify
from repro.data import ColumnTable, synthetic

from .conftest import fast_config


@pytest.fixture(scope="module")
def built():
    table = synthetic.multi_column(800, "high")
    return table, DeepMapping.fit(table, fast_config(epochs=20))


class TestVerify:
    def test_fresh_build_passes(self, built):
        table, dm = built
        report = verify(dm, table)
        assert report.ok
        assert report.rows_checked == table.n_rows
        assert report.spurious_hits == 0

    def test_key_mismatch_rejected(self, built):
        _, dm = built
        other = ColumnTable({"id": np.arange(3), "v": np.arange(3)},
                            key=("id",))
        with pytest.raises(ValueError, match="key"):
            verify(dm, other)

    def test_detects_value_drift(self, built):
        table, dm = built
        # Tamper with the source snapshot: verification must flag it.
        tampered = {n: table.column(n).copy() for n in table.column_names}
        tampered["v0"][:5] = (tampered["v0"][:5] + 1) % 2
        report = verify(dm, ColumnTable(tampered, key=table.key))
        assert not report.ok
        assert report.cells_wrong == 5
        assert report.wrong_by_column == {"v0": 5}
        assert len(report.examples["wrong:v0"]) == 5

    def test_detects_missing_rows(self, built):
        table, dm = built
        extra = synthetic.insert_batch(table, 5, "high")
        bigger = table.concat(extra)
        report = verify(dm, bigger)
        assert not report.ok
        assert report.rows_missing == 5

    def test_detects_spurious_rows_after_deletion_drift(self):
        table = synthetic.multi_column(400, "high")
        dm = DeepMapping.fit(table, fast_config(epochs=10))
        # The mapping keeps rows the snapshot no longer has -> spurious.
        snapshot = table.take(np.arange(200))
        report = verify(dm, snapshot, probe_absent=400)
        assert report.spurious_hits > 0

    def test_small_batches_equivalent(self, built):
        table, dm = built
        report = verify(dm, table, batch_size=64)
        assert report.ok

    def test_probe_absent_zero_skips_pass_two(self, built):
        table, dm = built
        report = verify(dm, table, probe_absent=0)
        assert report.ok

    def test_repr_mentions_status(self, built):
        table, dm = built
        assert "OK" in repr(verify(dm, table))
