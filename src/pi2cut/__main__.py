"""``python -m pi2cut``: the command-line interface of `pi2cut.cli`."""

import sys

from .cli import main

sys.exit(main())
