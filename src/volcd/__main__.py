"""``python -m volcd``: the command-line interface of :mod:`volcd.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
