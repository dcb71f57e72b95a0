"""``python -m mcastsim``: the command-line harness of cli.py."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
