"""Reference answers for the benchmark, computed without the matula package.

Each function here is an independent route to a value the CLI prints: numpy
sieves for the Mobius and Liouville sums, a checker of pairing reports on the
benchmark's own prime ranks, a bracket encoder and parser built on the same
prime list, the leaf-count recurrence, and the Euler-transform count of
forests of a given degree.
"""

from __future__ import annotations

from math import isqrt

import numpy as np


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, by a plain sieve of Eratosthenes."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0]


def sign_sieve(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Liouville lambda(k) and Mobius mu(k) for 0 <= k <= n, as int8 arrays."""
    omega = np.zeros(n + 1, dtype=np.int8)
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    for p in map(int, primes_up_to(n)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        q = p
        while q <= n:
            omega[q::q] += 1
            q *= p
    return (1 - 2 * (omega & 1)).astype(np.int8), mu


def factor_sieve(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest prime factor of k, and the rank pi(k) of k when k is prime
    (else 0), for 0 <= k <= n."""
    primes = primes_up_to(n)
    spf = np.zeros(n + 1, dtype=np.int64)
    for p in primes[primes <= isqrt(n)].tolist():
        block = spf[p * p :: p]
        block[block == 0] = p
    spf[primes] = primes
    rank = np.zeros(n + 1, dtype=np.int64)
    rank[primes] = np.arange(1, len(primes) + 1)
    return spf, rank


class Pairings:
    """Checks a pairing report of 1..n move by move, on its own prime ranks.

    A cut of the prime q = p_m detaches a prime factor d of m and leaves
    p_{m/d}, or relays a cut (s, r') of the prime d, whose tree hangs from
    q's root, and leaves p_{(m/d)*r'}.  A
    fusion of primes q and r gives p_{pi(q)*pi(r)}.  Either move turns k into
    a partner l; the report must name, for every pair (k, l), a move that
    does, and, as the greedy pairing leaves it, no singleton may have a
    smaller singleton among its partners.
    """

    def __init__(self, n: int):
        self.n = n
        spf, rank = factor_sieve(n)
        self.spf, self.rank = spf.tolist(), rank.tolist()
        self.primes = np.nonzero(rank)[0].tolist()  # p_m is primes[m - 1]
        self._cuts: dict[int, set[tuple[int, int]]] = {}

    def nth_prime(self, m: int) -> int | None:
        return self.primes[m - 1] if 1 <= m <= len(self.primes) else None

    def is_prime(self, q: int) -> bool:
        return isinstance(q, int) and 2 <= q <= self.n and self.rank[q] > 0

    def factors(self, k: int) -> dict[int, int]:
        out: dict[int, int] = {}
        while k > 1:
            p = self.spf[k]
            out[p] = out.get(p, 0) + 1
            k //= p
        return out

    def cuts(self, q: int) -> set[tuple[int, int]]:
        """All (detached, remaining) cuts of prime q whose primes are <= n."""
        got = self._cuts.get(q)
        if got is None:
            m = self.rank[q]
            got = set()
            for d in self.factors(m):
                rest = m // d
                got.add((d, self.primes[rest - 1]))
                for s, r in self.cuts(d):
                    remaining = self.nth_prime(rest * r)
                    if remaining is not None:
                        got.add((s, remaining))
            self._cuts[q] = got
        return got

    def is_cut(self, q: int, s: int, r: int) -> bool:
        """Whether (s, r) is a cut of prime q, found without listing q's cuts."""
        if not (self.is_prime(s) and self.is_prime(r)):
            return False
        m, rr = self.rank[q], self.rank[r]
        for d in self.factors(m):
            rest = m // d
            if s == d and rr == rest:
                return True
            if rr % rest == 0 and self.is_cut(d, s, rr // rest):
                return True
        return False

    def fused(self, q: int, r: int) -> int | None:
        return self.nth_prime(self.rank[q] * self.rank[r])

    def move_error(self, k: int, l: int, move: dict) -> str | None:
        """Why move does not turn k into l, or None when it does."""
        if move.get("kind") == "cut":
            q, s, r = move["factor"], move["detached"], move["remaining"]
            if not (self.is_prime(q) and q >= 3 and k % q == 0):
                return f"cut of {k} names factor {q}"
            if l != k // q * s * r:
                return f"cut ({s}, {r}) of {q} turns {k} into {k // q * s * r}, not {l}"
            if not self.is_cut(q, s, r):
                return f"({s}, {r}) is not a cut of {q}"
            return None
        if move.get("kind") == "fusion":
            q, r = move["left"], move["right"]
            if not (self.is_prime(q) and self.is_prime(r) and k % (q * r) == 0):
                return f"fusion of {k} names factors {q} and {r}"
            f = self.fused(q, r)
            if f is None or l != k // (q * r) * f:
                return f"fusion of {q} and {r} does not turn {k} into {l}"
            return None
        return f"unknown move {move!r} for {k}"

    def partners(self, k: int):
        """Every l < k one cut or one fusion away from k."""
        factors = self.factors(k)
        for q in factors:
            if q >= 3:
                for s, r in self.cuts(q):
                    if k // q * s * r < k:
                        yield k // q * s * r
        ps = sorted(factors)
        for i, q in enumerate(ps):
            for r in ps[i:]:
                if q == r and factors[q] < 2:
                    continue
                f = self.fused(q, r)
                if f is not None and k // (q * r) * f < k:
                    yield k // (q * r) * f

    def report_error(self, doc: dict, sign: np.ndarray, exact: int) -> str | None:
        """Check a ``pair --format json`` report; sign is lambda or mu on 0..n.

        The universe is every k with a non-zero sign: all of 1..n for
        Liouville, the squarefree k for Mobius.
        """
        n = self.n
        if doc["N"] != n:
            return f"report for N={doc['N']}, not {n}"
        if doc["exact"] != exact:
            return f"exact {doc['exact']} != {exact}"
        singles = np.array(doc["singletons"], dtype=np.int64)
        if doc["bound"] != abs(int(sign[singles].sum())):
            return f"bound {doc['bound']} != |signed count of the singletons|"
        if doc["bound"] < abs(exact):
            return f"bound {doc['bound']} < |{exact}|"
        pairs = np.array(doc["pairs"], dtype=np.int64).reshape(-1, 2)
        big, small = pairs[:, 0], pairs[:, 1]
        members = np.sort(np.concatenate([big, small, singles]))
        if not np.array_equal(members, np.nonzero(sign[1:])[0] + 1):
            return "pairs and singletons do not partition the k <= N of non-zero sign"
        if np.any(small >= big):
            return "a pair is not descending"
        if np.any(sign[big] + sign[small] != 0):
            return "a pair's signs do not cancel"
        moves = doc["move_log"] if pairs.size else {}
        if sorted(map(int, moves)) != sorted(big.tolist()):
            return "the move log does not name one move per pair"
        for k, l in doc["pairs"]:
            problem = self.move_error(k, l, moves[str(k)])
            if problem:
                return problem
        single = np.zeros(n + 1, dtype=bool)
        single[singles] = True
        for k in doc["singletons"]:
            for l in self.partners(k):
                if single[l]:
                    return f"singletons {k} and {l} are partners"
        return None


class Brackets:
    """Bracket encoder and parser for integers <= limit, from its own sieve."""

    def __init__(self, limit: int):
        primes = primes_up_to(limit)
        self.primes = primes.tolist()
        self.rank = {p: i + 1 for i, p in enumerate(self.primes)}
        self._tree: dict[int, str] = {}

    def _factors(self, n: int) -> list[int]:
        out = []
        for p in self.primes:
            if p * p > n:
                break
            while n % p == 0:
                out.append(p)
                n //= p
        if n > 1:
            out.append(n)
        return out

    def _tree_of(self, p: int) -> str:
        got = self._tree.get(p)
        if got is None:
            got = "[" + "".join(self._keys(self.rank[p])) + "]"
            self._tree[p] = got
        return got

    def _keys(self, n: int) -> list[str]:
        return sorted(self._tree_of(p) for p in self._factors(n))

    def encode(self, n: int) -> str:
        """Canonical forest of n: trees and children ascending by bracket string."""
        return " ".join(self._keys(n))

    def number(self, text: str) -> int:
        """The integer of a bracket forest, in any child order."""
        stack = [1]
        for ch in text:
            if ch == "[":
                stack.append(1)
            elif ch == "]":
                if len(stack) == 1:
                    raise ValueError("unmatched ']'")
                k = stack.pop()
                stack[-1] *= self.primes[k - 1]
            elif ch != " ":
                raise ValueError(f"unexpected character {ch!r}")
        if len(stack) != 1:
            raise ValueError("unclosed '['")
        return stack[0]


def leaf_counts(n: int) -> list[int]:
    """Leaves of the forest of k for 0 <= k <= n.

    Leaves add over prime factors; the tree of the r-th prime has the leaves
    of the forest of r, or is itself a leaf when r == 1.
    """
    spf_list, rank_list = (a.tolist() for a in factor_sieve(n))
    leaves = [0] * (n + 1)
    for k in range(2, n + 1):
        p = spf_list[k]
        if p == k:
            r = rank_list[k]
            leaves[k] = leaves[r] if r > 1 else 1
        else:
            leaves[k] = leaves[k // p] + leaves[p]
    return leaves


def rooted_tree_counts(n: int) -> list[int]:
    """r[j] = number of rooted trees on j vertices, 1 <= j <= n (OEIS A000081)."""
    r = [0, 1]
    for m in range(1, n):
        total = 0
        for k in range(1, m + 1):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[m - k + 1]
        r.append(total // m)
    return r


def degree_count(m: int) -> int:
    """Number of forests of degree m (vertices + edges).

    A tree on j vertices has degree 2j - 1, so this is the Euler transform of
    the rooted-tree counts placed at the odd positions.
    """
    r = rooted_tree_counts((m + 1) // 2 + 1)
    b = [0] * (m + 1)
    for j in range(1, (m + 1) // 2 + 1):
        b[2 * j - 1] = r[j]
    c = [sum(d * b[d] for d in range(1, k + 1) if k % d == 0) for k in range(m + 1)]
    a = [1]
    for k in range(1, m + 1):
        a.append(sum(c[i] * a[k - i] for i in range(1, k + 1)) // k)
    return a[m]
