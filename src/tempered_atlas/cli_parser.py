"""The CLI's argparse parser, imported only for a non-canonical argv."""

import argparse
import functools

from . import __version__
from .cli import _COMMANDS


class StoreValue(argparse.Action):
    """Store, refusing --radius=-- (argparse stores [] before 3.13, '--'
    in 3.13) with the usage error of the subcommand owning the option."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values in ([], "--"):
            raise argparse.ArgumentError(self, "expected one argument")
        setattr(namespace, self.dest, values)


@functools.cache
def build_parser():
    """The argparse parser for the argvs read_canonical leaves alone, built
    from _COMMANDS on first use and shared by every later main call."""
    parser = argparse.ArgumentParser(
        prog="tempered-atlas",
        description="Exact classification of essential tempered components.",
    )
    parser.add_argument("--version", action="version", version=f"tempered-atlas {__version__}")
    _add_commands(parser, "command", _COMMANDS)
    return parser


def _add_commands(parser, dest, commands) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_text, func, positionals, options, subcommands) in commands.items():
        # A subcommand given help=None would still get a line in the help.
        p = sub.add_parser(name, **({"help": help_text} if help_text else {}))
        for positional in positionals:
            p.add_argument(positional)
        for flag, (opt_dest, default, choices, option_help) in options.items():
            p.add_argument(flag, dest=opt_dest, required=default is None, default=default,
                           choices=choices, help=option_help, action=StoreValue)
        if subcommands:
            _add_commands(p, *subcommands)
        if func:
            p.set_defaults(func=func)
