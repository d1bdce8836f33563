"""Times the program's set-up in a fresh interpreter.

Imports ``arground`` from the checkout, loads the catalog and the dialogues
and builds the backend, then prints ``ready``. The caller times the span
from starting this process to reading that line.

Usage: python3 bench/setup_probe.py <root> <catalog> <dialogues> <backend-spec>
"""

import sys

sys.path.insert(0, sys.argv[1] + "/src")

import arground  # noqa: E402
from arground.generation import backend_from_spec  # noqa: E402

catalog = arground.load_schema_catalog(sys.argv[2])
dialogues = arground.load_dialogues(sys.argv[3], catalog)
backend = backend_from_spec(sys.argv[4])
print("ready", len(dialogues), flush=True)
