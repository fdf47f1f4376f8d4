"""``python -m repro ARGS``, in process: the entry point reads ``sys.argv``."""

import sys
from unittest import mock

from repro.__main__ import main as _main


def main(argv):
    with mock.patch.object(sys, "argv", ["repro", *argv]):
        return _main()
