"""Traced CLI invocation: python3 bench/launch.py TRACE_PATH OP_ID ARGV...

Installs the tracer wrappers, calls `cliffork.cli.run(ARGV)` so stdout is
the CLI's own, writes this process's spans to TRACE_PATH and exits with the
CLI's code.  The cliffork package must be importable (PYTHONPATH=src).
"""

import sys

from tracer import Tracer


def main() -> int:
    path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer().install()
    tracer.op_id = op_id
    from cliffork import cli

    try:
        code = cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
