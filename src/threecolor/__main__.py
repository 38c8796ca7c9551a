"""`python -m threecolor ARGS`: the same entry point as the `threecolor` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
