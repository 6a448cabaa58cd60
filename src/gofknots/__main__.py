"""Entry point for ``python -m gofknots``."""

from .cli import main

if __name__ == "__main__":
    main()
