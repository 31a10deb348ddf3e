"""Start ``python -m repro.service`` with the layer wrappers installed.

Usage: ``python perfbench/launcher.py --trace-out FILE -- <service args>``

The service runs unchanged; this process only wraps the layer
boundaries listed in ``spans.py`` before the service imports run, and
writes the recorded spans to ``FILE`` when the service shuts down
(SIGINT).  Traced service runs use it in place of ``-m repro.service``.
"""

from __future__ import annotations

import sys

import common
from spans import SpanRecorder, install


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    common.use_program_sources()
    recorder = SpanRecorder()
    install(recorder)
    from repro.service.__main__ import main as serve

    try:
        return serve(argv[3:])
    finally:
        recorder.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
