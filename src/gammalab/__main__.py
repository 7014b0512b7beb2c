"""``python -m gammalab``: the command-line front end of :mod:`gammalab.cli`."""

import sys

from .cli import main

sys.exit(main())
