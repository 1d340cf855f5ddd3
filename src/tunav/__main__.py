"""`python -m tunav ...`: the `tunav` command."""

import sys

from tunav.cli import main

sys.exit(main())
