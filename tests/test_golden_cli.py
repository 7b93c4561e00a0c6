"""Golden outputs of the quotient and cover verbs.

Each invocation runs through `cli.run` in process, and the SHA-256 of its
exit code, stdout and stderr must match the digest recorded in
golden_cli_digests.json.  The set: `quotient` on every odd (p,q) and every
odd complex mark with n <= 11, `cover` and `cover --cpt` on every (p,q) with
p+q <= 8 or p+q = 12, `cover --complex 0..8`, and `ext-group` on every even
(p,q) with p+q <= 8 and on the bundled gamma basis, each in markdown and in
json.  After a deliberate output change, regenerate the record with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from cliffork import cli

DIGESTS = Path(__file__).with_name("golden_cli_digests.json")


def invocations():
    verbs = []
    for n in range(1, 12, 2):
        for p in range(n + 1):
            verbs += [f"quotient --p {p} --q {n - p}",
                      f"quotient --complex {n} --mark {p},{n - p}"]
    for n in (*range(9), 12):
        for p in range(n + 1):
            verbs += [f"cover --p {p} --q {n - p}", f"cover --p {p} --q {n - p} --cpt"]
    verbs += [f"cover --complex {n}" for n in range(9)]
    verbs += [f"ext-group --p {p} --q {n - p}" for n in range(0, 9, 2) for p in range(n + 1)]
    verbs.append("ext-group --basis gamma")
    return [verb + fmt for verb in verbs for fmt in ("", " --format json")]


def digest(argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv.split())
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_recorded_set_is_the_invocation_set(recorded):
    assert len(invocations()) == 470
    assert sorted(recorded) == sorted(invocations())


@pytest.mark.parametrize("argv", invocations())
def test_output_matches_recorded_digest(argv, recorded):
    assert digest(argv) == recorded[argv], f"output of `{argv}` changed"


if __name__ == "__main__":
    json.dump({argv: digest(argv) for argv in invocations()}, sys.stdout, indent=1, sort_keys=True)
    print()
