"""Check which modules mechfield's start-up and smallest runs import.

In a fresh interpreter, it imports ``mechfield.cli`` and runs
``simulate sho --steps 0`` and ``field b-loop --at 0,0,1`` through
``mechfield.cli.main``, then prints, as the last line of stdout, a JSON
list of the modules that appeared in ``sys.modules`` since just before the
import, so modules the interpreter's site set-up loads do not count. It
exits 1 if a run fails or any module of ``FORBIDDEN`` is among them.

    PYTHONPATH=src python tests/startup_modules.py   # the checkout
    python -I tests/startup_modules.py               # the installed package
"""

import sys

# No short run needs these: dataclasses, with inspect, ast, dis and tokenize
# under it, was over a third of the CPU the package added to start-up, and
# tempfile is for CSV output past the first MiB only.
FORBIDDEN = ("dataclasses", "inspect", "tempfile")
RUNS = (["simulate", "sho", "--steps", "0"], ["field", "b-loop", "--at", "0,0,1"])


def main() -> int:
    before = set(sys.modules)
    import mechfield.cli

    for argv in RUNS:
        if mechfield.cli.main(argv) != 0:
            print(f"mechfield {' '.join(argv)} failed", file=sys.stderr)
            return 1
    loaded = sorted(set(sys.modules) - before)
    import json  # only now: imported before the count, it would hide the modules it shares

    print(json.dumps(loaded))
    if "mechfield.cli" not in loaded:
        print("mechfield.cli was imported before the count", file=sys.stderr)
        return 1
    found = [name for name in FORBIDDEN if name in loaded]
    if found:
        print(f"start-up imports {', '.join(found)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
