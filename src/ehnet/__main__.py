"""`python -m ehnet`: the `ehnet` command, runnable from a checkout with
``PYTHONPATH=src`` and nothing installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
