"""Entry point for ``python -m modelfacts``; the same commands as the ``modelfacts`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
