"""``python -m gridperm``: the same command line as the ``gridperm`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
