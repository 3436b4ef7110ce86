"""``python -m fpcolor``: the ``fpcolor`` command line."""

import sys

from fpcolor.cli import main

sys.exit(main())
