"""``python -m rasesim``: the same command line as the ``rasesim`` script."""
from .cli import main

raise SystemExit(main())
