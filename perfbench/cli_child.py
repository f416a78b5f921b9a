"""Traced CLI entry point: `python cli_child.py SPANS_PATH COMMAND [ARGS...]`.

Times `import qcrbench.cli`, wraps the layer functions and the CLI's output
and config loading, calls `qcrbench.cli.main(argv)`, writes the spans to
SPANS_PATH and exits with main's return code.
"""

import sys
import time

start = time.perf_counter()
import qcrbench.cli  # noqa: E402

imported = time.perf_counter()

from tracer import CLI_TARGETS, LAYER_TARGETS, Tracer, dump  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.op = 0
    tracer.add_span("cli.import", start, imported)
    tracer.install(LAYER_TARGETS + CLI_TARGETS)
    tracer.install_cli_output()
    code = tracer.call(f"cli.{argv[0]}.main", qcrbench.cli.main, argv)
    dump(tracer.spans, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
