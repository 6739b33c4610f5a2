"""The selection service under the benchmark's speed meter.

    python benchmarks/pipeline/serve.py --meter-file SAMPLES.json \
        [--trace-file SPANS.json] [service args]

Starts a :class:`common.SpeedMeter` before the program is imported,
runs ``repro.service.__main__``'s ``main`` with the remaining
arguments, and writes the meter samples to SAMPLES.json at exit,
after the SIGTERM drain has returned.

SIGUSR2 stops the meter.  The client sends it before SIGTERM: the
service's event loop closes its signal wakeup socket before it
removes its signal handlers, and a meter tick in between would print
an error.

With ``--trace-file``, SIGUSR1 installs the :mod:`tracing` wrappers
and the next SIGUSR1 removes them, so one server process alternates
traced and untraced traffic; the spans go to SPANS.json at exit.
"""

from __future__ import annotations

import argparse
import atexit
import importlib
import signal
import sys

import common

METER = common.SpeedMeter()
if __name__ == "__main__":
    METER.start()  # before the program's imports, which set-up includes

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(prog="serve.py", add_help=False)
    parser.add_argument("--meter-file", required=True)
    parser.add_argument("--trace-file")
    args, service_args = parser.parse_known_args()
    if args.trace_file:
        tracer = tracing.Tracer()

        def toggle(_signum, _frame) -> None:
            if tracer.installed:
                tracer.uninstall()
            else:
                tracer.install()

        signal.signal(signal.SIGUSR1, toggle)
        atexit.register(tracer.dump, args.trace_file)
    signal.signal(signal.SIGUSR2, METER.stop)
    atexit.register(METER.dump, args.meter_file)
    atexit.register(METER.stop)  # atexit runs last-registered first
    return importlib.import_module("repro.service.__main__").main(service_args)


if __name__ == "__main__":
    sys.exit(main())
