"""``python3 -m bench``: see :mod:`bench.cli`."""

from .cli import main

raise SystemExit(main())
