"""Set-up time of a fresh process that is about to use qgcipher.

Set-up is what a new CLI process pays before its first operation: importing
the package (numpy included), a profile JSON round trip and the profile
fingerprint.  Run as a script it measures itself and prints the seconds;
run.py calls measure() in its own process first and then in a few fresh
child processes, and reports the median.

This module imports only the standard library, so nothing the package needs
is loaded before the clock starts.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def measure():
    """Return (seconds, profile, fingerprint) for one set-up."""
    started = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qgcipher

    raw = qgcipher.profile_to_json(qgcipher.default_profile()).encode("utf-8")
    profile = qgcipher.profile_from_json(raw.decode("utf-8"))
    fingerprint = qgcipher.profile_fingerprint(raw)
    return time.perf_counter() - started, profile, fingerprint


if __name__ == "__main__":
    print(repr(measure()[0]))
