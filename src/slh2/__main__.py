"""`python -m slh2`: the command-line interface of slh2.cli."""

from .cli import main

if __name__ == "__main__":
    main()
