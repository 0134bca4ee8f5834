from expsums import arith
from expsums.arith import factorize


def naive_factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_matches_naive_factorizer(self):
        for n in range(1, 10**4 + 1):
            assert factorize(n) == naive_factorize(n), n

    def test_large_semiprime_and_square(self):
        assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
        assert factorize(1000003**2) == {1000003: 2}

    def test_each_cofactor_is_tested_once(self, monkeypatch):
        tested = []

        def counting(n):
            tested.append(n)
            return is_prime(n)

        is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", counting)
        for n in (999983 * 1000003, 1000003**2, 2**5 * 3 * 7**3 * 10007, 9973 * 9967, 720720):
            tested.clear()
            factorize(n)
            assert len(tested) == len(set(tested)), n
        # the unchanged cofactor 999983 * 1000003 was tested at every trial step
        tested.clear()
        factorize(999983 * 1000003)
        assert tested == [999983 * 1000003]
