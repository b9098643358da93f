"""Print which loglambert modules run for `import loglambert` or for one CLI command.

    PYTHONPATH=src python tests/_import_tree.py                  # import loglambert
    PYTHONPATH=src python tests/_import_tree.py table --format csv
                                                # python -m loglambert table --format csv

A module counts when its code runs (the audit event `exec` of its body), not
when it is in sys.modules: `import loglambert` registers `maxent` and
`qcalculus` there at once, but runs them only on first use.  The command's
own output and exit code pass through; the last line on stderr lists the
modules in the order they ran:

    ran: loglambert loglambert.core ...
"""

import os
import runpy
import sys

ran = []


def _audit(event, args):
    if event == "exec":
        folder, name = os.path.split(getattr(args[0], "co_filename", ""))
        if os.path.basename(folder) == "loglambert" and name.endswith(".py"):
            ran.append("loglambert" if name == "__init__.py" else f"loglambert.{name[:-3]}")


sys.addaudithook(_audit)
code = 0
try:
    if len(sys.argv) > 1:
        sys.argv = ["loglambert", *sys.argv[1:]]
        runpy.run_module("loglambert", run_name="__main__", alter_sys=True)
    else:
        import loglambert  # noqa: F401
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print("ran:", *ran, file=sys.stderr)
sys.exit(code)
