"""``python -m lgfeas``: the same command line as the ``lgfeas`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
