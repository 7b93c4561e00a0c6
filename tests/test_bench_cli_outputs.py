"""The benchmark's cli workload (bench/run.py) checks each README verb by the
SHA-256 of its stdout.  Running the same invocations in process here makes a
stdout change fail the ordinary test run, not only the benchmark."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from cliffork import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_cli_ops():
    spec = importlib.util.spec_from_file_location("cliffork_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_OPS


CLI_OPS = _load_cli_ops()


@pytest.mark.parametrize("argv,digest", CLI_OPS, ids=[argv for argv, _ in CLI_OPS])
def test_cli_stdout_matches_benchmark_digest(argv, digest, capsys):
    assert cli.run(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
