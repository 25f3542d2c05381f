"""A plain argparse parser of the carlitz commands, kept as the oracle
that cli.parse_args is compared with, both its fast path for the
canonical argv and cli._parser for every other: the same namespace for
every argv it accepts, the same one-line error and exit status for every
argv it refuses."""

import argparse

from carlitz.cli import COMMAND_HELP, SETTINGS, _usage_error


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _usage_error(message)


def build_parser():
    ap = _Parser(prog="carlitz")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, help in COMMAND_HELP:
        p = sub.add_parser(command, help=help)
        for key, flag, _, _, commands in SETTINGS:
            if command in commands:
                p.add_argument(flag, dest=key)
        p.add_argument("--config", help="key=value defaults file")
        if command == "l-values":
            p.add_argument("--place", choices=("inf", "P"), default="inf")
    return ap
