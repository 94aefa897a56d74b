"""``python -m mahabench``: the ``mahabench`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
