"""``python -m blockgs``: the ``blockgs`` command without an installed script."""

from .harness import cli_main

if __name__ == "__main__":
    raise SystemExit(cli_main())
