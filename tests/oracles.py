"""Scalar reference implementations that the tests compare the package's
array kernels with."""


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 0."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    result = 1
    # strip factors of 2 from n
    while n % 2 == 0:
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # now n odd >= 1: Jacobi symbol with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
