"""``python -m caei``: the ``caei`` command line."""

import sys

from caei.cli import main

if __name__ == "__main__":
    sys.exit(main())
