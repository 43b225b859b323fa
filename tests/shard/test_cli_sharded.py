"""CLI tests for the --shards flag and the lifecycle flags."""

import os

import pytest

from repro.cli import main


def build_sharded(tmp_path, shards=2, extra=()):
    out = str(tmp_path / "store.dms")
    argv = ["build", "--dataset", "synthetic:multi-high", "--scale", "0.05",
            "--out", out, "--epochs", "10", "--batch-size", "256",
            "--shards", str(shards)]
    argv.extend(extra)
    return argv, out


class TestShardedBuild:
    def test_build_creates_directory_store(self, tmp_path, capsys):
        argv, out = build_sharded(tmp_path)
        assert main(argv) == 0
        assert os.path.isdir(out)
        assert os.path.isfile(os.path.join(out, "manifest.json"))
        stdout = capsys.readouterr().out
        assert "sharded range x2" in stdout

    def test_shard_strategy_flag_is_gone(self, tmp_path, capsys):
        argv, out = build_sharded(
            tmp_path, extra=["--shard-strategy", "range"])
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--shard-strategy" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestShardedInfoQuery:
    def test_info_reports_shards(self, tmp_path, capsys):
        argv, out = build_sharded(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["info", out]) == 0
        stdout = capsys.readouterr().out
        assert "shards:" in stdout and "model:" in stdout

    def test_info_splits_the_bytes_on_disk(self, tmp_path, capsys):
        argv, out = build_sharded(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["info", out]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("on disk:"))
        sizes = {name: os.path.getsize(os.path.join(out, name))
                 for name in os.listdir(out)}
        shards = sum(size for name, size in sizes.items()
                     if name.startswith("shard-"))
        assert f" {sum(sizes.values()):,} B (" in line
        assert line.endswith(f": manifest {sizes['manifest.json']:,} B, "
                             f"shard payloads {shards:,} B)")

    def test_query_hits_and_misses(self, tmp_path, capsys):
        argv, out = build_sharded(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["query", out, "--key", "key=0",
                     "--key", "key=999999"]) == 0
        stdout = capsys.readouterr().out
        assert "(key=0) ->" in stdout
        assert "NULL" in stdout


class TestBenchRejectsShards:
    def test_bench_refuses_shard_flag(self):
        with pytest.raises(SystemExit, match="bench_sharding"):
            main(["bench", "--dataset", "synthetic:single-low",
                  "--scale", "0.03", "--shards", "2"])


class TestLifecycleFlags:
    def test_build_with_lifecycle_knobs(self, tmp_path, capsys):
        argv, out = build_sharded(
            tmp_path, extra=["--rebalance"])
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "lifecycle: policy=never rebalance=True" in stdout
        capsys.readouterr()
        assert main(["info", out]) == 0
        assert "lifecycle:" in capsys.readouterr().out

    def test_retrain_bytes_implies_bytes_policy(self, tmp_path, capsys):
        argv, out = build_sharded(
            tmp_path, extra=["--retrain-bytes", "1000000"])
        assert main(argv) == 0
        assert "lifecycle: policy=bytes" in capsys.readouterr().out

    def test_bytes_policy_without_threshold_is_rejected(self, tmp_path):
        """BytesThresholdPolicy(None) never fires; requesting it
        explicitly without a threshold must error, not silently degrade
        to 'never'."""
        argv, _ = build_sharded(tmp_path,
                                extra=["--retrain-policy", "bytes"])
        with pytest.raises(SystemExit, match="retrain-bytes"):
            main(argv)

    def test_lifecycle_flags_at_one_shard(self, tmp_path, capsys):
        """A one-shard range store can split, so the flags apply."""
        argv, _ = build_sharded(tmp_path, shards=1, extra=["--rebalance"])
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "sharded range x1" in stdout
        assert "lifecycle: policy=never rebalance=True" in stdout
