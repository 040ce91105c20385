"""`python -m ordtopo`: the ordtopo command line (see ordtopo.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
