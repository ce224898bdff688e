"""Check that every *.json file under a directory is JSON, refusing NaN and Infinity.

    python .github/strict_json.py DIR

Exits nonzero naming the first file that does not parse, or when DIR holds no
JSON file at all.
"""

import json
import pathlib
import sys


def refuse(token):
    raise ValueError(f"non-finite {token}")


paths = sorted(pathlib.Path(sys.argv[1]).rglob("*.json"))
if not paths:
    sys.exit(f"{sys.argv[1]}: no JSON files")
for path in paths:
    try:
        json.loads(path.read_text(), parse_constant=refuse)
    except ValueError as err:
        sys.exit(f"{path}: {err}")
print(f"{len(paths)} JSON files parse with NaN and Infinity refused")
