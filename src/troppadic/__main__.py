"""``python -m troppadic``: the same command line as the ``troppadic`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
