"""The README's CLI commands, read from its `## CLI` block.

    python tests/_readme_cli.py

prints one line per command: its arguments after `loglambert`, shell-quoted,
with a `> file` redirection dropped, so that a shell can run each one as

    while read -r args; do eval "set -- $args"; loglambert "$@" < /dev/null; done

`readme_commands()` gives each command's argv as written, `loglambert` and a
redirection included.  The tests and CI read the commands here, so an edit
of the README changes what they run.  Standard library only; pytest does
not collect this file.
"""

import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    # The first code block after "## CLI", line continuations joined.
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


if __name__ == "__main__":
    for argv in readme_commands():
        if ">" in argv:
            argv = argv[:argv.index(">")]
        print(shlex.join(argv[1:]))
