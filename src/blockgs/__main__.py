"""``python -m blockgs``: the ``blockgs`` command without an installed script."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
