#!/usr/bin/env python3
"""Certified audit of the resonance lower bound for every integer pair, j = 1..4,
with the least ratio reported at kmax = 200."""

import sys

from hokdv.cli import main

if __name__ == "__main__":
    sys.exit(
        main(
            [
                "resonance-audit",
                "--set", "j_list = 1, 2, 3, 4",
                "--set", "kmax = 200",
            ]
        )
    )
