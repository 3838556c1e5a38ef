"""``python -m matchdescents``: the command-line interface of ``cli``."""
from .cli import main

raise SystemExit(main())
