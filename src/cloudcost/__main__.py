"""The process entry of ``python -m cloudcost`` and the ``cloudcost`` script.

:func:`run` runs :func:`cloudcost.cli.main` with the cyclic garbage
collector off, and ends the process without tearing the interpreter down. A
command leaves next to no garbage in reference cycles, and by then every
output file is closed and renamed, so collector passes and freeing each
module and object would only cost time. A tool that reports at exit gets the
normal exit instead. Importing this module imports no command code and leaves
the collector as it is; only :func:`run` turns it off.
"""

import atexit
import gc
import os
import sys


def _reporting_at_exit() -> bool:
    """Whether a tracer, profiler, ``sys.monitoring`` tool (3.12+; cProfile
    and coverage register there) or ``-X dev`` expects the normal exit."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.gettrace() or sys.getprofile() or sys.flags.dev_mode
                or monitoring and any(monitoring.get_tool(i) for i in range(6)))


def _flushed() -> bool:
    """Flush stdout and stderr, each unless closed at start (``None``); False
    when stdout cannot take the output, an unwritable output as when a write
    fails during the command (exit 2)."""
    from .cli import to_stderr

    flushed = True
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # fd 1 now discards, so no later flush, at shutdown included, fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        to_stderr(f"error: {exc}\n")
        flushed = False
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it; shutdown ignores it the same way
    return flushed


def run():
    """Run the command ``sys.argv`` names and exit with its code, never
    returning: ``atexit`` callbacks, then the flushes, then :func:`os._exit`;
    or ``sys.exit`` when the code is not an int or a tool reports at exit.
    The collector is off from before :mod:`cloudcost.cli` is imported."""
    gc.disable()
    from .cli import main

    try:
        code: int | str | None = main()
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    if isinstance(code, int) and not _reporting_at_exit():
        atexit._run_exitfuncs()
        os._exit(code if _flushed() else 2)
    sys.exit(code if _flushed() else 2)


if __name__ == "__main__":
    run()
