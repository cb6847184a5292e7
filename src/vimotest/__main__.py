"""Process entry point: ``python -m vimotest`` and the ``vimotest`` script.

A CLI process is short-lived and creates few reference cycles, yet the
cyclic collector keeps rescanning every object its imports created. So once
the CLI is imported, those objects move to the permanent generation and the
first-generation threshold is raised. This is done here, not in
``cli.main``, so that callers of ``cli.main`` in a longer-lived process keep
their own collector settings.
"""

import gc
import os
import sys

from .cli import EXIT_FAILURES, main as cli_main

GEN0_THRESHOLD = 100_000


def main() -> int:
    gc.freeze()
    gc.set_threshold(GEN0_THRESHOLD, *gc.get_threshold()[1:])
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: point it at devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURES
    return code


if __name__ == "__main__":
    sys.exit(main())
