"""`python -m nichols2`: the `nichols2` command."""

import sys

from .cli import main

sys.exit(main())
