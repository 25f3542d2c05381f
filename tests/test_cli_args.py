"""cli.parse_args against the argparse parser it replaced
(cli_oracle.build_parser): every argv gives the same namespace, or the
same exit status and the same one stderr line."""

import random
import sys

import pytest

from carlitz.cli import COMMANDS, SETTINGS, parse_args
from cli_oracle import build_parser

_ORACLE = build_parser()

# from 3.13 on, argparse reads -h joined to other text (-hx) as -h alone;
# parse_args keeps the reading of 3.10 to 3.12, which carlitz had
pytestmark = pytest.mark.skipif(sys.version_info >= (3, 13),
                                reason="argparse 3.13 reads -hx as -h")


def _flags(command):
    return [flag for _, flag, _, _, commands in SETTINGS
            if command in commands] + ["--config"] + \
        (["--place"] if command == "l-values" else [])


def _table():
    cases = [[], ["bogus"], ["-h"], ["--help"], ["--he"], ["-hh"],
             ["-hx"], ["--help=x"], ["--bogus", "verify"], ["--"],
             ["--", "verify"], ["-5", "verify"], [""], ["-"]]
    for command in COMMANDS:
        for flag in _flags(command):
            value = "P" if flag == "--place" else "7"
            cases += [[command, flag, value], [command, flag + "=" + value],
                      [command, flag + "="], [command, flag],
                      [command, flag, "--depth", "3"],
                      [command, flag[:4], value],
                      [command, flag, "1", flag, value]]
        cases += [[command, "-h"], [command, "--help"], [command, "--he"],
                  [command, "--help=x"], [command, "-hx"], [command, "-h="],
                  [command, "--depth", "4", "-h"], [command, "-h", "--depth"],
                  [command, "--bogus", "1"], [command, "--bogus=1"],
                  [command, "stray"], [command, "--q", "3", "stray", "--P"],
                  [command, "--=x"], [command, "--q", "-5"],
                  [command, "--q", "-x"], [command, "--P", "-T + 1"],
                  [command, "--q", "3", "--", "--P", "T"],
                  [command, "--depth", "--", "5"], [command, "-x"],
                  [command, "--place", "Q"], [command, "--max-n", "9"],
                  [command, "--max-deg-f", "2"], [command, "--suites", ""],
                  [command, "--pl", "P"], [command, "--bogus", "--depth"],
                  [command, "--q", "2", "--P", "T^3+T+1", "--N", "4"]]
    return [list(argv) for argv in dict.fromkeys(map(tuple, cases))]


def _outcome(parse, argv, capsys):
    try:
        got = ("namespace", vars(parse(list(argv))))
    except SystemExit as exc:
        got = ("exit", exc.code)
    out, err = capsys.readouterr()
    return got, err, out


@pytest.mark.parametrize("argv", _table(), ids=" ".join)
def test_parse_args_is_argparse(capsys, argv):
    want, want_err, want_out = _outcome(_ORACLE.parse_args, argv, capsys)
    got, err, out = _outcome(parse_args, argv, capsys)
    assert (got, err) == (want, want_err)
    # help prints its own text; nothing else prints on stdout
    assert out.startswith("usage: carlitz") == bool(want_out)
    if err:
        assert err.startswith("carlitz: error: ") and err.count("\n") == 1


def test_parse_args_is_argparse_on_random_argv(capsys):
    # seeded argv drawn from commands, flags, prefixes, values and the
    # strings argparse reads specially
    tokens = sorted({*COMMANDS, "", "-", "--", "-5", "-1.5", "-x", "-h",
                     "-hh", "-hx", "-h=x", "--help", "--he", "--help=x",
                     "--h=", "--=x", "---", "3", "T^2+1", "inf", "P", "Q",
                     "a b", "-a b", "--bogus", "--bogus=1", "-5=3",
                     *(f for c in COMMANDS for f in _flags(c)),
                     *(f[:4] for c in COMMANDS for f in _flags(c)),
                     *(f + "=2" for c in COMMANDS for f in _flags(c))})
    rng = random.Random(2026)
    for _ in range(1500):
        argv = [rng.choice(tokens) for _ in range(rng.randrange(6))]
        argv.insert(rng.randrange(min(2, len(argv)) + 1),
                    rng.choice(COMMANDS))
        want = _outcome(_ORACLE.parse_args, argv, capsys)
        got, err, out = _outcome(parse_args, argv, capsys)
        assert (got, err, bool(out)) == (want[0], want[1], bool(want[2])), \
            argv


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_lists_the_commands_or_the_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        parse_args([command, "-h"] if command else ["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    if command is None:
        assert all(c in out for c in COMMANDS)
    else:
        assert out.startswith("usage: carlitz %s " % command)
        flags = {w.strip("[") for w in out.split()
                 if w.lstrip("[").startswith("--")}
        assert flags == set(_flags(command))
