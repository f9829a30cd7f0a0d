"""``python -m apmlab``: the command-line harness."""

import sys

from .cli import main

sys.exit(main())
