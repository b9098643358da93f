"""Show what `import loglambert`, or one CLI command, runs and loads; fail on waste.

    PYTHONPATH=src python -S tests/_import_tree.py                  # import loglambert
    PYTHONPATH=src python -S tests/_import_tree.py table --format csv
                                                # python -m loglambert table --format csv

A loglambert module counts when its code runs (the audit event `exec` of its
body), not when it is in sys.modules: `import loglambert` registers `maxent`
and `qcalculus` there at once, but runs them only on first use.  A heavy
module counts when the run newly put it in sys.modules: `dataclasses` pulls
in `inspect`, `ast`, `dis` and `tokenize`, `typing` is large, the CLI imports
`json` and `csv` only for the output format that needs them, and `mpmath` is
for tests only.  Run with `-S`, so that `site` has loaded none of them first.

The command's own output passes through.  The last two lines on stderr list
the loglambert modules in the order they ran, and the heavy modules loaded:

    ran: loglambert loglambert.core ...
    heavy: csv

The exit code is the command's, or 1 if the run loaded a heavy module other
than the one its `--format` names, or ran `maxent` or `qcalculus` for
anything but the `maxent` command.
"""

import os
import runpy
import sys

HEAVY = ("dataclasses", "inspect", "typing", "json", "csv", "mpmath")
FIRST_USE = ("loglambert.maxent", "loglambert.qcalculus")

ran = []


def _audit(event, args):
    if event == "exec":
        folder, name = os.path.split(getattr(args[0], "co_filename", ""))
        if os.path.basename(folder) == "loglambert" and name.endswith(".py"):
            ran.append("loglambert" if name == "__init__.py" else f"loglambert.{name[:-3]}")


argv = sys.argv[1:]
before = set(sys.modules)
sys.addaudithook(_audit)
code = 0
try:
    if argv:
        sys.argv = ["loglambert", *argv]
        runpy.run_module("loglambert", run_name="__main__", alter_sys=True)
    else:
        import loglambert  # noqa: F401
except SystemExit as exc:
    code = exc.code
heavy = [n for n in HEAVY if n in sys.modules and n not in before]
fmt = argv[argv.index("--format") + 1] if "--format" in argv[:-1] else None
waste = [n for n in heavy if n != fmt]
waste += [n for n in FIRST_USE if n in ran and argv[:1] != ["maxent"]]
sys.stdout.flush()
if waste:
    print(f"import audit: loaded {', '.join(waste)}, which this run need not", file=sys.stderr)
    code = code or 1
print("ran:", *ran, file=sys.stderr)
print("heavy:", *heavy, file=sys.stderr)
sys.exit(code)
