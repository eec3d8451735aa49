"""``python -m char2cat``: the command line."""

from .cli import main

main()
