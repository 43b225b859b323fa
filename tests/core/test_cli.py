"""Tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro.cli import load_dataset, main


def build_args(tmp_path, dataset="synthetic:multi-high", scale=0.05,
               extra=()):
    out = str(tmp_path / "structure.dm")
    argv = ["build", "--dataset", dataset, "--scale", str(scale),
            "--out", out, "--epochs", "15", "--batch-size", "256"]
    argv.extend(extra)
    return argv, out


class TestLoadDataset:
    def test_tpch(self):
        table = load_dataset("tpch:orders", scale=0.05, seed=1)
        assert table.name == "orders"

    def test_tpcds(self):
        table = load_dataset("tpcds:catalog_returns", scale=0.1, seed=1)
        assert table.name == "catalog_returns"

    @pytest.mark.parametrize("name,expected", [
        ("single-low", "synthetic_single_low"),
        ("multi-high", "synthetic_multi_high"),
    ])
    def test_synthetic(self, name, expected):
        table = load_dataset(f"synthetic:{name}", scale=0.05, seed=1)
        assert table.name == expected

    def test_crop(self):
        table = load_dataset("crop:raster", scale=0.05, seed=1)
        assert table.key == ("lat", "lon")

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            load_dataset("mysql:orders", scale=1.0, seed=0)

    def test_unknown_synthetic(self):
        with pytest.raises(SystemExit):
            load_dataset("synthetic:weird-high", scale=1.0, seed=0)


class TestBuildInfoQuery:
    def test_build_saves_structure(self, tmp_path, capsys):
        argv, out = build_args(tmp_path)
        assert main(argv) == 0
        assert os.path.exists(out)
        stdout = capsys.readouterr().out
        assert "hybrid:" in stdout and "saved" in stdout

    def test_info_reports_components(self, tmp_path, capsys):
        argv, out = build_args(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["info", out]) == 0
        stdout = capsys.readouterr().out
        assert "model:" in stdout
        assert "aux table:" in stdout
        assert "exist vector:" in stdout

    def test_info_reports_the_bytes_on_disk(self, tmp_path, capsys):
        argv, out = build_args(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["info", out]) == 0
        lines = {line.split(":")[0]: line
                 for line in capsys.readouterr().out.splitlines()}
        size = os.path.getsize(out)
        paper = int(lines["total"].split()[1].replace(",", ""))
        rows = int(lines["keys"].rsplit("live rows: ", 1)[1])
        assert lines["on disk"].split(":", 1)[1].strip() == (
            f"{size:,} B ({size / rows:.2f} B/row, "
            f"{size / paper:.2f}x total)")

    def test_query_hits_and_misses(self, tmp_path, capsys):
        argv, out = build_args(tmp_path)
        main(argv)
        capsys.readouterr()
        assert main(["query", out, "--key", "key=0",
                     "--key", "key=99999"]) == 0
        stdout = capsys.readouterr().out
        assert "(key=0) ->" in stdout
        assert "NULL" in stdout

    def test_query_rejects_unknown_column(self, tmp_path, capsys):
        argv, out = build_args(tmp_path)
        main(argv)
        with pytest.raises(SystemExit):
            main(["query", out, "--key", "nope=1"])

    def test_query_requires_keys(self, tmp_path):
        argv, out = build_args(tmp_path)
        main(argv)
        with pytest.raises(SystemExit):
            main(["query", out])

    def test_composite_key_query(self, tmp_path, capsys):
        out = str(tmp_path / "crop.dm")
        main(["build", "--dataset", "crop:raster", "--scale", "0.02",
              "--out", out, "--epochs", "10", "--batch-size", "256"])
        capsys.readouterr()
        main(["query", out, "--key", "lat=0", "--key", "lon=0"])
        stdout = capsys.readouterr().out
        assert "(lat=0, lon=0) -> crop_type=" in stdout

    def test_incomplete_composite_key_rejected(self, tmp_path):
        out = str(tmp_path / "crop.dm")
        main(["build", "--dataset", "crop:raster", "--scale", "0.02",
              "--out", out, "--epochs", "5", "--batch-size", "256"])
        with pytest.raises(SystemExit, match="incomplete"):
            main(["query", out, "--key", "lat=0"])


class TestBench:
    def test_bench_prints_comparison(self, capsys):
        assert main(["bench", "--dataset", "synthetic:single-low",
                     "--scale", "0.03", "--systems", "DM-Z,AB",
                     "--batch", "50", "--repeats", "1",
                     "--epochs", "5", "--batch-size", "256"]) == 0
        stdout = capsys.readouterr().out
        assert "DM-Z" in stdout and "AB" in stdout
        assert "storage (KB)" in stdout
