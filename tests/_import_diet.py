"""Exit non-zero if `import loglambert.cli` loads a module the CLI need not pay for.

Every CLI command pays for its imports at start-up.  `dataclasses` pulls in
`inspect`, `ast`, `dis` and `tokenize`; `typing` is large; `json` and `csv`
are imported by the CLI only for the output format that needs them.  Run
with `-S`, so that `site` has loaded nothing first, and with the directory
holding the package on PYTHONPATH:

    PYTHONPATH=src python -S tests/_import_diet.py
"""

import sys

HEAVY = ("dataclasses", "inspect", "typing", "json", "csv")

before = set(sys.modules)
import loglambert.cli  # noqa: E402

added = sorted(set(HEAVY) & (set(sys.modules) - before))
if added:
    sys.exit(f"import loglambert.cli loaded {', '.join(added)} "
             f"(from {loglambert.cli.__file__})")
print(f"import loglambert.cli loaded none of {', '.join(HEAVY)}")
