"""``python -m floerforge``: the command-line front end, :func:`floerforge.cli.main`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
