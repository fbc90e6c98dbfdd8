"""``python -m toric_qh``: the toric-qh command, without the console script."""

from .cli import main

main()
