"""``python -m x16class``: the command-line interface of x16class.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
