"""Exit non-zero if `import loglambert.cli` loads a module the CLI need not pay for.

Every CLI command pays for its imports at start-up.  `dataclasses` pulls in
`inspect`, `ast`, `dis` and `tokenize`; `typing` is large; `json` and `csv`
are imported by the CLI only for the output format that needs them; and
`loglambert.maxent` and `loglambert.qcalculus` run only for the `maxent`
command.  Those two are in sys.modules from `import loglambert` on, so they
count as loaded when their code runs (the audit event `exec`).  Run with
`-S`, so that `site` has loaded nothing first, and with the directory
holding the package on PYTHONPATH:

    PYTHONPATH=src python -S tests/_import_diet.py
"""

import sys

HEAVY = ("dataclasses", "inspect", "typing", "json", "csv")
FIRST_USE = ("loglambert.maxent", "loglambert.qcalculus")

ran = set()
sys.addaudithook(lambda event, args: event == "exec"
                 and ran.add(getattr(args[0], "co_filename", None)))
before = set(sys.modules)
import loglambert.cli  # noqa: E402

folder = loglambert.cli.__file__[:-len("cli.py")]
added = sorted(set(HEAVY) & (set(sys.modules) - before))
added += [n for n in FIRST_USE if folder + n.rpartition(".")[2] + ".py" in ran]
if added:
    sys.exit(f"import loglambert.cli loaded {', '.join(added)} "
             f"(from {loglambert.cli.__file__})")
print(f"import loglambert.cli loaded none of {', '.join(HEAVY + FIRST_USE)}")
