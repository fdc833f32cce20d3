"""`python -m fuzzyfp`: the fuzzyfp command line, as the installed script runs it."""

import sys

from .cli import main

sys.exit(main())
