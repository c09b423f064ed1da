"""Set-up probe: import certsurf from a source tree and parse one system.

Usage: python3 setup_probe.py <src dir> <system source>

Prints ``time.monotonic()`` once the system is parsed; the parent took
the same clock before starting this process, so the difference is the
set-up time a command line user pays before any certification starts.
"""

import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    from certsurf.system import AnalyticSystem

    AnalyticSystem.from_source(sys.argv[2])
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main()
