"""``python -m dualgn``: the ``dualgn`` command line (see :mod:`dualgn.cli`)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
