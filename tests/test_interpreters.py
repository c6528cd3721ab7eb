"""The CLI prints the same bytes on every CPython the project supports.

Random-mode verify makes ``Random.shuffle``'s draws itself, with
``getrandbits``, so a change in how an interpreter draws would show here as
different sampled reports.  Each other CPython >= 3.10 found on PATH as
``python3.M`` runs a fixed set of commands in a subprocess; the test skips
when there is none.
"""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from pairswitch.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

_COMMANDS = [
    ["verify", "--design", "all", "--ports", "2..8", "--exhaustive"],
    ["verify", "--design", "all", "--ports", "16..64", "--samples", "5", "--seed", "7"],
    ["verify", "--design", "all", "--ports", "258", "--samples", "3", "--seed", "1"],
    ["route", "--design", "brickwork", "--ports", "8", "--pairs", "0-5,1-2,3-7,4-6"],
    ["generate", "--design", "chevron", "--ports", "8", "--reverse"],
    ["metrics", "--ports", "4..12"],
]

_RUN = (
    "import json, sys\n"
    "from pairswitch.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    code = main(argv)\n"
    "    sys.stdout.write(f'exit {code}\\n')\n"
)

_PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:2])"


def _other_cpythons():
    """One interpreter per CPython version >= 3.10 other than this one's,
    the first ``python3.M`` on PATH that starts; a version manager's stub for
    a version it does not hold exits nonzero and is passed over."""
    names = set()
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        try:
            names.update(n for n in os.listdir(folder or ".") if re.fullmatch(r"python3\.\d+", n))
        except OSError:
            continue
    found = {}
    for name in sorted(names, key=lambda n: int(n[len("python3."):])):
        path = shutil.which(name)
        if path is None:
            continue
        try:
            proc = subprocess.run([path, "-c", _PROBE], capture_output=True, text=True,
                                  timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        impl, *version = proc.stdout.split() or ["", ""]
        if proc.returncode or impl != "cpython" or len(version) != 2:
            continue
        version = tuple(map(int, version))
        if version >= (3, 10) and version != sys.version_info[:2]:
            found.setdefault(version, path)
    return found


def test_other_interpreters_print_the_same_bytes(capsys):
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 on PATH")
    want = ""
    for argv in _COMMANDS:
        code = main(list(argv))
        want += capsys.readouterr().out + f"exit {code}\n"
    assert want.count("exit 0\n") == len(_COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for version, path in interpreters.items():
        proc = subprocess.run([path, "-c", _RUN, json.dumps(_COMMANDS)], capture_output=True,
                              env=env, timeout=120)
        assert (version, proc.returncode, proc.stderr) == (version, 0, b"")
        assert (version, proc.stdout) == (version, want.encode())
