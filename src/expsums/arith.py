"""Small integer-arithmetic helpers: primality, factorization, sieving."""

from __future__ import annotations

import math

# Witness set proving Miller-Rabin deterministic for all n < 3.3e24,
# which covers every 64-bit integer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2^64 (Miller-Rabin)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    """The prime check of every public entry point: ValueError unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {p: multiplicity}, for n >= 1.

    Trial division with an early primality exit; raises ValueError when a
    composite cofactor survives the trial bound (beyond desk scale).
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need n >= 1")
    if n >= 2**63:
        raise ValueError(f"modulus {n} exceeds the 64-bit factorization bound")
    out: dict[int, int] = {}
    rem = n
    for p in (2, 3):
        while rem % p == 0:
            out[p] = out.get(p, 0) + 1
            rem //= p
    f, tested = 5, 0
    while f * f <= rem:
        if rem != tested and is_prime(rem):  # each cofactor is tested once
            break
        tested = rem
        for p in (f, f + 2):
            while rem % p == 0:
                out[p] = out.get(p, 0) + 1
                rem //= p
        f += 6
        if f > 10**7:
            raise ValueError(f"cannot factor {n}: composite cofactor {rem} too large")
    if rem > 1:
        out[rem] = out.get(rem, 0) + 1
    return out


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]
