"""External-model children for ``--model-cmd`` and ``SubprocessPredictor`` tests."""

import os
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

# No bytecode cache in the checkout, from this process or the Pythons it
# starts: one would make the next fresh process that imports gtta, such as a
# benchmark run, start faster than the last.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import gtta

SRC = Path(gtta.__file__).resolve().parents[1]

# Answers each tensor as it arrives, until EOF. It logs its pid once at start
# and once per request; the hooks are one statement each and see the request
# ``x`` and its 1-based number ``k``.
CHILD = """import os, sys, time
with open({started!r}, "a") as fh:
    fh.write(f"{{os.getpid()}}\\n")
sys.path.insert(0, {src!r})
import numpy as np
from gtta.tensorio import dumps_tensor, read_tensor
stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
k = 0
while stdin.peek(1):
    x = read_tensor(stdin.read)
    k += 1
    with open({requests!r}, "a") as fh:
        fh.write(f"{{os.getpid()}}\\n")
    {on_request}
    stdout.write({reply})
    stdout.flush()
    {after_reply}
{at_eof}
"""


def _pids(path: Path) -> list[int]:
    return [int(tok) for tok in path.read_text().split()] if path.exists() else []


@dataclass(frozen=True)
class Child:
    argv: list
    started_log: Path
    request_log: Path

    @property
    def cmd(self) -> str:
        return shlex.join(self.argv)

    def started(self) -> list[int]:
        """The pid of every process started from this script."""
        return _pids(self.started_log)

    def requests(self) -> list[int]:
        """The answering pid of every request, in order."""
        return _pids(self.request_log)


@pytest.fixture
def model_child(tmp_path):
    """Factory: write a streaming child script whose reply to ``x`` is ``reply``."""

    def make(reply="dumps_tensor(x)", *, on_request="pass", after_reply="pass",
             at_eof="pass", name="child") -> Child:
        script = tmp_path / f"{name}.py"
        child = Child([sys.executable, str(script)],
                      tmp_path / f"{name}.started", tmp_path / f"{name}.requests")
        script.write_text(CHILD.format(
            src=str(SRC), started=str(child.started_log), requests=str(child.request_log),
            reply=reply, on_request=on_request, after_reply=after_reply, at_eof=at_eof,
        ))
        return child

    return make
