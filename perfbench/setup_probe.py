"""One set-up sample: a fresh process imports jcsim and runs one op.

Usage: ``python3 setup_probe.py <checkout root> <jcsim arguments...>``.
Prints the seconds from before ``import jcsim`` to the op's return;
exits non-zero if the op fails.
"""

import contextlib
import io
import os
import sys
import time


def main() -> int:
    root, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    from jcsim.cli import main as jcsim_main

    with contextlib.redirect_stdout(io.StringIO()):
        code = jcsim_main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        print(f"op exited {code}", file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
