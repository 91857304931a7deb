import gc
import sys

from . import cli


def main() -> int:
    """The one entry of the console script and `python3 -m springswim`: freeze the heap, then run the CLI."""
    gc.freeze()  # later collections, the one at interpreter exit too, skip the objects the imports made
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
