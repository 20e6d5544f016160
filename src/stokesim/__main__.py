"""`python -m stokesim`: the `stokesim` command line, runnable from a
checkout with `PYTHONPATH=src` and no install."""

import sys

from .cli import main

sys.exit(main())
