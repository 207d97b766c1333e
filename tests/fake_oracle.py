"""A misbehaving external word oracle for the subprocess-protocol tests.

Run as `python fake_oracle.py MODE`; it reads one word per line and
then, by MODE:
  hang     never replies and never exits
  garbage  replies "maybe" to every word
  exit     exits with status 1 before replying
Each mode writes a line to stderr first, which the caller must not pass on.
"""

import sys
import time

MESSAGE = "fake oracle stderr chatter"


def main(mode: str) -> int:
    print(MESSAGE, file=sys.stderr, flush=True)
    for _ in sys.stdin:
        if mode == "hang":
            while True:
                time.sleep(60)
        if mode == "exit":
            return 1
        print("maybe", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
