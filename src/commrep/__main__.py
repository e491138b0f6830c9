"""Run the command line front end: ``python -m commrep <command> ...``."""

from .cli import main_entry

main_entry()
