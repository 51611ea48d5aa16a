"""Run one ``lietp`` command with the benchmark's tracer installed.

    python3 perfbench/cli_child.py SPANS_FILE LIETP_ARGS...

Behaves like ``python3 -m lietp.cli LIETP_ARGS...`` and also writes the
recorded spans and counts to SPANS_FILE, even when the command raises.
"""

import sys

import tracing


def main():
    import lietp.cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return lietp.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
