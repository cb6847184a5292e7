"""Process entry point: ``python -m vimotest`` and the ``vimotest`` script.

A CLI process is short-lived and creates few reference cycles, yet the
cyclic collector keeps rescanning every object its imports created. So once
the CLI is imported, those objects move to the permanent generation and the
first-generation threshold is raised. This is done here, not in
``cli.main``, so that callers of ``cli.main`` in a longer-lived process keep
their own collector settings.

For the same reason the process ends with ``os._exit`` once its output is
flushed: interpreter finalization would only free objects the process is
about to drop, and after a split call (see ``cli._in_two``) it writes to
heap pages left write-protected by the fork, paying a fault per page.
"""

import gc
import os
import sys
from typing import NoReturn

from .cli import EXIT_FAILURES, main as cli_main

GEN0_THRESHOLD = 100_000


def main() -> NoReturn:
    gc.freeze()
    gc.set_threshold(GEN0_THRESHOLD, *gc.get_threshold()[1:])
    try:
        code = cli_main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:  # stdout closed early; os._exit flushes nothing more
        code = EXIT_FAILURES
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
