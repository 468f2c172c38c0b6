#!/usr/bin/env python3
"""Writes the benchmark's expected outputs from models independent of the
runtime: pi from Machin's formula in exact integer arithmetic, and the
DeltaBlue checksum from the program's arithmetic in plain Python.

    python3 perfbench/expected/make_expected.py
"""
from pathlib import Path

HERE = Path(__file__).resolve().parent
PI_DIGITS = 1000
DELTABLUE_LENGTH = 16
DELTABLUE_ITERATIONS = range(7201, 7210, 2)


def pi_digits(n):
    """First n decimal digits of pi, "31415..."."""
    guard = 10
    scale = 10 ** (n + guard)

    def arctan_inv(x):
        total, term, k, sign = 0, scale // x, 1, 1
        while term:
            total += sign * (term // k)
            term //= x * x
            k += 2
            sign = -sign
        return total

    pi = 4 * (4 * arctan_inv(5) - arctan_inv(239))
    return str(pi // 10 ** guard)[:n]


def int32(v):
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >= 1 << 31 else v


def deltablue_checksum(length, iterations):
    """The value DeltaBlue prints: XOR over iterations of the last
    variable after the chain (even links copy, odd links scale by 2, +1)."""
    checksum = 0
    for it in range(iterations):
        v = it
        for i in range(length):
            if i % 2:
                v = int32(v * 2 + 1)
        checksum = int32(checksum ^ v)
    return checksum


def main():
    (HERE / "pi.txt").write_text(pi_digits(PI_DIGITS) + "\n")
    rows = [f"{DELTABLUE_LENGTH} {n} {deltablue_checksum(DELTABLUE_LENGTH, n)}"
            for n in DELTABLUE_ITERATIONS]
    (HERE / "deltablue.txt").write_text("\n".join(rows) + "\n")


if __name__ == "__main__":
    main()
