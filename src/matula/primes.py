"""Growable prime table: primality, factorization, nth prime and prime rank.

The table sieves in segments and doubles its range on demand, so callers can
treat ``nth_prime`` / ``prime_rank`` as total functions up to a configurable
hard cap (default 2**32).  ``nth_primes`` (a batch of ranks) and
``rank_windows`` (the first primes, window by window) read the ranks past
the table from segments sieved and dropped one at a time, so the table need
not hold every prime below the largest answer.  ``nth_primes`` sieves only
the segments that hold a wanted rank: up to 2**32 the exact prime counts at
the segment edges in ``prime_counts`` say which ones they are, and past
them the segments in between are counted without listing their primes.
Everything else in the package consumes one shared table.
"""

from __future__ import annotations

import functools
import os
import struct
import threading
import zlib
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from math import ceil, isqrt, log, prod

import numpy as np

from .constants import DEFAULT_CAP
from .errors import CapExceeded, NotPrime, SieveTooLarge

MAX_CAP = 2**63 - 1  # the table stores int64

_SEGMENT = 1 << 21          # integers per sieve chunk: an odd-only mask of 1 MB
_AUTO_FACTOR_SIEVE = 1 << 22  # factorize() builds a smallest-factor sieve up to here
_MIN_FACTOR_SIEVE = 1 << 16  # the smallest such sieve: 256 KB of int32, built in under 1 ms
_CACHE_HEADER = struct.Struct("<QI")  # prime count, CRC-32 of the prime bytes
_PARITY_PIECE = 1 << 14  # entries omega_parity walks at a time; bounds its work arrays
_WHEEL_PRIMES = (3, 5, 7, 11)  # struck out of every segment by one copied pattern


@functools.cache
def _wheel() -> np.ndarray:
    """Whether each odd number 1, 3, ..., 2309 is prime to 3·5·7·11: the
    pattern of a segment's odd slots, repeating every 1155 slots.  With 13
    too it would hold 15015 slots, sieve about 3 % faster, and keep 15 KB
    in the heap of every process, which moved ``pair``'s peak RSS up by
    about 0.2 MB."""
    wheel = np.ones(prod(_WHEEL_PRIMES), dtype=bool)
    for p in _WHEEL_PRIMES:
        wheel[p // 2 :: p] = False  # slot i is 2i + 1
    wheel.flags.writeable = False
    return wheel


def _value_dtype(top: int) -> np.dtype:
    """int32 when every value to store is at most top < 2**31, else int64."""
    return np.dtype(np.int32 if top < 2**31 else np.int64)


def _nth_prime_bound(n: int) -> int:
    """Upper bound for the n-th prime (Rosser: n(log n + log log n) for n >= 6)."""
    if n < 6:
        return 13
    if n.bit_length() > 1000:  # beyond float range: round the factor up
        return n * ceil(log(n) + log(log(n)))
    x = float(n)
    return int(x * (log(x) + log(log(x)))) + 8


def _pi_bound(x: int) -> int:
    """Upper bound for pi(x), the number of primes <= x.

    Dusart (1999): pi(x) <= x/ln x (1 + 1/ln x + 2.51/ln^2 x) for x >= 355991;
    Rosser & Schoenfeld (1962): pi(x) < 1.25506 x/ln x for x > 1.
    """
    if x < 2:
        return 0
    ln = log(x)
    factor = 1 + 1 / ln + 2.51 / ln**2 if x >= 355_991 else 1.25506
    return int(factor * x / ln) + 2


def _rank_ceiling(cap: int) -> int:
    """Least n >= 3 whose n-th prime provably lies past cap.

    Dusart (1999): p_n >= n(ln n + ln ln n - 1) for n >= 2.  Compared in
    logs; the margin keeps float rounding from rejecting a reachable n.  The
    test is monotone in n, so a bisection finds where it starts to hold.
    """
    limit = log(cap) + 1e-9
    lo, hi = 3, max(cap, 16)  # the test holds at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if log(mid) + log(log(mid) + log(log(mid)) - 1) > limit:
            hi = mid
        else:
            lo = mid + 1
    return lo


class PrimeTable:
    """Ascending primes up to a movable limit, with rank lookups.

    After construction or extension the table is effectively immutable and
    safe to share between concurrent readers; extension itself takes an
    internal lock and swaps in fresh arrays.
    """

    def __init__(self, limit: int = 0, cap: int = DEFAULT_CAP):
        if cap < 2:
            raise ValueError("cap must be at least 2")
        if cap > MAX_CAP:
            raise ValueError(f"cap must be at most 2**63 - 1 = {MAX_CAP}")
        self.cap = cap
        self._rank_ceiling = _rank_ceiling(cap)
        self._limit = 1
        self._primes = np.empty(0, dtype=np.int64)
        self._spf: np.ndarray | None = None
        self._lock = threading.Lock()
        if limit > 1:
            self.extend_to(limit)

    # -- growth ------------------------------------------------------------

    @property
    def limit(self) -> int:
        return self._limit

    @property
    def count(self) -> int:
        """Number of primes currently stored."""
        return len(self._primes)

    def extend_to(self, new_limit: int) -> None:
        """Grow the sieved range to at least ``new_limit`` (never shrinks)."""
        if new_limit <= self._limit:
            return
        if new_limit > self.cap:
            raise CapExceeded(new_limit, self.cap)
        with self._lock:
            if new_limit <= self._limit:
                return
            target = min(max(new_limit, 2 * self._limit, 1 << 10), self.cap)
            # one buffer per extension, written in place; the part the bound
            # over-reserves is never touched, so it never becomes resident
            size = _pi_bound(target)
            try:
                buf = np.empty(size, dtype=np.int64)
            except MemoryError:
                raise SieveTooLarge(target, 8 * size) from None
            count = len(self._primes)
            buf[:count] = self._primes
            for found in self._segments(self._limit + 1, target):
                buf[count : count + len(found)] = found
                count += len(found)
            self._primes = buf[:count]
            self._limit = target

    def _segments(self, lo: int, hi: int) -> Iterator[np.ndarray]:
        """The primes in [lo, hi], one sieve segment at a time, ascending.

        The base primes come from the table when it reaches sqrt(hi) and are
        sieved here otherwise.
        """
        root = isqrt(hi)
        if self._limit >= root:
            base = self._primes
        else:
            base = self._sieve_segment(2, root, np.empty(0, dtype=np.int64))
        while lo <= hi:
            top = min(lo + _SEGMENT - 1, hi)
            yield self._sieve_segment(lo, top, base)
            lo = top + 1

    @staticmethod
    def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
        """Primes in [lo, hi], given those up to sqrt(hi) in ``base`` (sieved here if short)."""
        if hi < 2:
            return np.empty(0, dtype=np.int64)
        return _listed(*PrimeTable._sieve_mask(lo, hi, base))

    @staticmethod
    def _sieve_mask(lo: int, hi: int, base: np.ndarray) -> tuple[int, np.ndarray]:
        """(start, mask) for lo <= hi, hi >= 2: mask[i] tells whether the odd
        number start + 2i is prime, except that from lo == 2 the slot of 1
        (start == 1) stands for 2, so the mask holds one entry per prime."""
        lo = max(lo, 2)
        start = 1 if lo == 2 else lo | 1
        # the multiples of 3, 5, 7 and 11 come struck out: one period of the
        # pattern from start's slot, then the mask copied onto itself
        wheel = _wheel()
        mask = np.empty((hi - start) // 2 + 1, dtype=bool)
        at = start // 2 % len(wheel)
        head = wheel[at : at + len(mask)]
        filled = min(len(wheel), len(mask))
        mask[: len(head)] = head
        mask[len(head) : filled] = wheel[: filled - len(head)]
        while filled < len(mask):  # a whole number of periods: copy them on
            step = min(filled, len(mask) - filled)
            mask[filled : filled + step] = mask[:step]
            filled += step
        if start <= _WHEEL_PRIMES[-1]:  # the pattern struck out those primes too
            small = np.array([p for p in _WHEEL_PRIMES if lo <= p <= hi], dtype=np.int64)
            mask[(small - start) // 2] = True
        root = isqrt(hi)
        if len(base) == 0 or base[-1] < root:
            base = PrimeTable._sieve_segment(2, root, np.empty(0, dtype=np.int64))
        odd = base[1 + len(_WHEEL_PRIMES) : np.searchsorted(base, root, side="right")]
        # each prime's first odd multiple >= max(p^2, lo), as a mask index
        first = np.maximum(odd * odd, -(-lo // odd) * odd)
        first += odd * (first % 2 == 0)
        for p, i in zip(odd.tolist(), ((first - start) // 2).tolist()):
            mask[i::p] = False
        return start, mask

    # -- queries -----------------------------------------------------------

    def _rank_error(self, n: int) -> Exception:
        """What ``nth_prime(n)`` raises for an n that is below 1 or past the cap."""
        if n < 1:
            return ValueError(f"prime index must be >= 1, got {n}")
        return CapExceeded(_nth_prime_bound(n), self.cap)

    def nth_prime(self, n: int) -> int:
        """The n-th prime, 1-based (nth_prime(1) == 2)."""
        if n < 1 or n >= self._rank_ceiling:  # the latter fails before sieving
            raise self._rank_error(n)
        if n > len(self._primes):
            self.extend_to(min(_nth_prime_bound(n), self.cap))
            if n > len(self._primes):  # the bound passes p_n: p_n > cap
                raise self._rank_error(n)
        return int(self._primes[n - 1])

    def _past_table(self, top: int) -> tuple[np.ndarray, int, int]:
        """A snapshot (primes, limit) of the table, and a bound on p_top
        clipped at the cap; the table grows only to that bound's base primes."""
        bound = min(_nth_prime_bound(top), self.cap)
        if top > len(self._primes):
            self.extend_to(isqrt(bound))
        with self._lock:
            primes, limit = self._primes, self._limit
        return primes, limit, bound

    def nth_primes(self, ranks: Sequence[int] | np.ndarray) -> np.ndarray:
        """The primes of the given 1-based ranks, in the order given.

        Equal to ``[nth_prime(r) for r in ranks]``, and raises what that loop
        would raise first, but the table grows only to the base primes of
        the largest rank.  Ranks inside the table are read from it; the
        others are visited in ``argsort`` order.  Each is found in its
        aligned segment (j * _SEGMENT, (j + 1) * _SEGMENT], by offset from
        pi(j * _SEGMENT): up to 2**32 the committed checkpoints give that
        count, past them the segments in between are counted, not listed.
        Only the segments that hold a wanted rank are sieved, each from its
        start to about where its last wanted rank lies, and on if short.
        """
        try:
            want = np.asarray(ranks, dtype=np.int64)
        except OverflowError:  # a rank past int64 is past any cap
            ranks = list(ranks)
            i = next(i for i, r in enumerate(ranks) if not -(2**63) <= r < 2**63)
            self.nth_primes(ranks[:i])  # an earlier rank may fail first
            raise self._rank_error(ranks[i]) from None
        bad = np.flatnonzero((want < 1) | (want >= self._rank_ceiling))
        head = want[: bad[0]] if len(bad) else want
        primes, _, bound = self._past_table(int(head.max(initial=0)))
        out = np.empty(len(head), dtype=np.int64)
        inside = head <= len(primes)
        out[inside] = primes[head[inside] - 1]
        order = np.flatnonzero(~inside)
        order = order[np.argsort(head[order], kind="stable")]
        past = head[order]  # ascending; the i-th goes to out[order[i]]
        checkpoints = _checkpoints() if len(past) else None
        lo, count, done = 1, 0, 0  # count is pi(lo - 1)
        while done < len(past):
            k = int(np.searchsorted(checkpoints, past[done])) - 1
            if k * _SEGMENT >= lo:  # skip to the last checkpoint below the rank
                lo, count = k * _SEGMENT + 1, int(checkpoints[k])
            if lo > bound:  # the segments ran up to the cap
                raise self._rank_error(int(head[np.argmax(head >= past[done])]))
            edge = (lo - 1) // _SEGMENT + 1  # lo's segment ends at checkpoint edge
            hi = min(edge * _SEGMENT, bound)
            if edge < len(checkpoints):
                # primes near x lie about ln x - 1 apart, so this reaches the
                # segment's last wanted rank bar a local swing past 5 % and
                # 4096 integers, which costs one more piece
                need = past[bisect_right(past, checkpoints[edge], done) - 1] - count
                hi = min(hi, lo + int(need * log(hi) * 1.05) + 4096)
            start, mask = self._sieve_mask(lo, hi, primes)
            n = int(np.count_nonzero(mask))
            if count + n >= past[done]:
                end = bisect_right(past, count + n, done)
                out[order[done:end]] = _listed(start, mask)[past[done:end] - count - 1]
                done = end
            lo, count = hi + 1, count + n
        if len(bad):
            raise self._rank_error(int(want[bad[0]]))
        return out

    def rank_windows(
        self, first: int, last: int, size: int
    ) -> Iterator[tuple[int, np.ndarray]]:
        """p_first..p_last (1 <= first <= last) as ascending windows
        (lo, primes), primes[i] being p_(lo+i), split at the multiples of
        ``size``.

        The windows equal slices of ``first_n(last)``, and the iteration
        raises what that call raises for a rank past the cap, but ranks past
        the table are read from sieve segments dropped once read, so the
        table grows only to the base primes of p_last.  Windows inside the
        table are read-only views of it.
        """
        if last < 1 or last >= self._rank_ceiling:  # fails before sieving
            raise self._rank_error(last)
        primes, limit, bound = self._past_table(last)
        segments = self._segments(limit + 1, bound)

        def chunks() -> Iterator[np.ndarray]:  # p_first, p_first+1, ... ascending
            head = primes[first - 1 : last]
            head.flags.writeable = False
            yield head
            count = len(primes)
            for found in segments:
                yield found[max(first - count - 1, 0) :]
                count += len(found)

        source, chunk, at = chunks(), primes[:0], 0
        lo = first
        while lo <= last:
            hi = min((lo // size + 1) * size - 1, last)
            parts, want = [], hi - lo + 1
            while want:
                if at == len(chunk):
                    chunk, at = next(source, None), 0
                    if chunk is None:  # the segments ran up to the cap
                        raise self._rank_error(last)
                parts.append(chunk[at : at + want])
                at += len(parts[-1])
                want -= len(parts[-1])
            yield lo, parts[0] if len(parts) == 1 else np.concatenate(parts)
            lo = hi + 1

    def first_n(self, n: int) -> np.ndarray:
        """Read-only array of the first n primes (for vectorised scans)."""
        self.nth_prime(n)
        view = self._primes[:n]
        view.flags.writeable = False
        return view

    def primes_up_to(self, x: int) -> np.ndarray:
        """Read-only array of all primes <= x."""
        if x > self._limit:
            self.extend_to(x)
        view = self._primes[: int(np.searchsorted(self._primes, x, side="right"))]
        view.flags.writeable = False
        return view

    def is_prime(self, k: int) -> bool:
        if k < 2:
            return False
        if k > self._limit:
            self.extend_to(k)
        i = self._primes.searchsorted(k)
        return i < len(self._primes) and int(self._primes[i]) == k

    def prime_rank(self, q: int) -> int:
        """Rank n such that nth_prime(n) == q; raises NotPrime otherwise."""
        if q > self._limit:
            self.extend_to(q)
        i = int(self._primes.searchsorted(q))
        if i >= len(self._primes) or int(self._primes[i]) != q:
            raise NotPrime(q)
        return i + 1

    # -- factorization -----------------------------------------------------

    def ensure_factor_sieve(self, limit: int) -> None:
        """Build (or grow) the smallest-prime-factor sieve to cover at least ``limit``.

        Its length is the smallest power of two above ``limit``, from
        ``_MIN_FACTOR_SIEVE`` (2**16) up to the automatic ceiling plus one.
        Doubling keeps growth to O(log k) rebuilds, and the request sets the
        size: a table whose ranks stay below 2**16 builds 256 KB in under
        1 ms, where 2**20 entries take 4 MB and about 11 ms.  The cap does
        not bound it (it stores factors, not primes past the table); an
        allocation the machine refuses raises ``SieveTooLarge``.
        """
        if self._spf is not None and len(self._spf) > limit:
            return
        with self._lock:
            if self._spf is not None and len(self._spf) > limit:
                return
            doubled = min(max(1 << limit.bit_length(), _MIN_FACTOR_SIEVE), _AUTO_FACTOR_SIEVE + 1)
            self._spf = self._factor_sieve(max(limit + 1, doubled))

    def _factor_sieve(self, size: int) -> np.ndarray:
        """A new array of the smallest prime factor of each of 0..size-1."""
        dtype = _value_dtype(size - 1)  # a prime is its own entry
        try:
            spf = np.zeros(size, dtype=dtype)
        except MemoryError:
            raise SieveTooLarge(size - 1, dtype.itemsize * size) from None
        # largest prime first, so each composite keeps its smallest factor
        for p in reversed(self._sieve_segment(2, isqrt(size - 1), self._primes)):
            spf[p * p :: p] = p
        left = spf == 0  # 0, 1 and the primes: each is its own entry
        spf[left] = np.flatnonzero(left)
        return spf

    def _spf_through(self, limit: int) -> np.ndarray:
        """A smallest-factor array covering 0..limit.

        Up to the automatic ceiling it is the table's own sieve, grown as
        needed.  Past it, a longer sieve the table already holds is reused;
        otherwise one is built for the caller alone and not kept, so one
        large call does not pin its sieve for the table's lifetime.
        """
        if limit <= _AUTO_FACTOR_SIEVE:
            self.ensure_factor_sieve(limit)
        spf = self._spf
        if spf is not None and len(spf) > limit:
            return spf
        return self._factor_sieve(limit + 1)

    def factorize(self, k: int) -> list[tuple[int, int]]:
        """Prime factorization of k >= 1 as ascending (prime, multiplicity)."""
        if k < 1:
            raise ValueError(f"factorize expects k >= 1, got {k}")
        if k == 1:
            return []
        if k <= _AUTO_FACTOR_SIEVE:
            self.ensure_factor_sieve(k)
        spf = self._spf
        if spf is not None and k < len(spf):
            out: list[tuple[int, int]] = []
            while k > 1:
                p = int(spf[k])
                e = 0
                while k % p == 0:
                    k //= p
                    e += 1
                out.append((p, e))
            return out
        return self._factorize_trial(k)

    def omega_parity(self, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(odd, square) for an array of k >= 1: whether k has an odd number
        of prime factors counted with multiplicity, and whether it has a
        square factor above 1.

        Walks a smallest-factor sieve through the largest k, one prime
        factor of every entry per step, ``_PARITY_PIECE`` entries at a time
        and in the sieve's dtype; a k's primes come ascending, so a square is
        a prime met twice in a row.
        """
        spf = self._spf_through(int(ks.max(initial=1)))
        odd, square = np.zeros((2, len(ks)), dtype=bool)
        for start in range(0, len(ks), _PARITY_PIECE):
            piece = slice(start, start + _PARITY_PIECE)
            rest = ks[piece].astype(spf.dtype)
            last = np.zeros_like(rest)
            while (live := rest > 1).any():
                p = spf[rest]
                square[piece] |= live & (p == last)
                odd[piece] ^= live
                last, rest = p, rest // p
        return odd, square

    def _factorize_trial(self, k: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for p in map(int, self.primes_up_to(isqrt(k))):
            if p * p > k:
                break
            if k % p == 0:
                e = 0
                while k % p == 0:
                    k //= p
                    e += 1
                out.append((p, e))
        if k > 1:
            out.append((k, 1))
        return out

    def prime_factors(self, k: int) -> list[int]:
        """Distinct prime factors of k, ascending."""
        return [p for p, _ in self.factorize(k)]

    def factor_blocks(
        self, lo: int, hi: int, size: int
    ) -> Iterator[tuple[int, np.ndarray, list[tuple[int, int, slice]]]]:
        """Factor lo..hi (lo >= 1) in blocks aligned to multiples of size.

        Per block, yields (start, rest, powers): (p, e, hit) in ``powers``, e
        ascending per p, for each prime power p**e <= end (p <= sqrt(end)),
        where slice ``hit`` picks the block's multiples of p**e; p is divided
        out of each.  That leaves in ``rest`` 1 or the one prime above
        sqrt(end); ``rest`` is int32 when end < 2**31, else int64.
        """
        while lo <= hi:
            end = min((lo // size + 1) * size - 1, hi)
            rest = np.arange(lo, end + 1, dtype=_value_dtype(end))
            powers = []
            for p in self.primes_up_to(isqrt(end)).tolist():
                power, e = p, 1
                while power <= end:
                    hit = slice((-lo) % power, None, power)
                    rest[hit] //= p
                    powers.append((p, e, hit))
                    power, e = power * p, e + 1
            yield lo, rest, powers
            lo = end + 1

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Write the prime list as little-endian 64-bit ints after a 12-byte
        header: their count and the CRC-32 of their bytes.  ``load`` refuses
        a file whose checksum does not match, so a cache written before the
        checksum existed (count only) now loads as corrupt."""
        data = self._primes.astype("<i8").tobytes()
        with open(path, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(len(self._primes), zlib.crc32(data)))
            fh.write(data)

    @classmethod
    def load(cls, path: str | os.PathLike, cap: int = DEFAULT_CAP) -> "PrimeTable":
        """Restore a table from ``save``; a missing file yields an empty table."""
        table = cls(cap=cap)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return table
        with fh:
            header = fh.read(_CACHE_HEADER.size)
            data = fh.read()
        if len(header) < _CACHE_HEADER.size:
            raise ValueError(f"corrupt prime cache: {path}")
        n, crc = _CACHE_HEADER.unpack(header)
        if len(data) != 8 * n or zlib.crc32(data) != crc:
            raise ValueError(f"corrupt prime cache: {path}")
        primes = np.frombuffer(data, dtype="<i8").astype(np.int64)
        if n and (primes[0] != 2 or np.any(np.diff(primes) <= 0)):
            raise ValueError(f"corrupt prime cache: {path}")
        if n:
            if int(primes[-1]) > cap:
                raise CapExceeded(int(primes[-1]), cap)
            table._primes = primes
            table._limit = int(primes[-1])
        return table


def _listed(start: int, mask: np.ndarray) -> np.ndarray:
    """The primes of a ``PrimeTable._sieve_mask`` result, ascending."""
    found = np.flatnonzero(mask)
    found *= 2
    found += start
    if start == 1:  # the slot of 1 stands for 2
        found[0] = 2
    return found


@functools.cache
def _checkpoints() -> np.ndarray:
    """pi(j * _SEGMENT) for j = 0..2048, read-only: the exact prime counts
    at the segment edges up to 2**32, from ``prime_counts``."""
    from .prime_counts import COUNTS

    counts = np.frombuffer(COUNTS, dtype="<u4").astype(np.int64)
    counts.flags.writeable = False
    return counts


def _spans(
    first: np.ndarray, count: np.ndarray, step: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(owner, index): index runs over first[i], first[i] + step[i], ...,
    count[i] terms (step 1 if not given), for each i in turn, and owner
    repeats that i alongside.  Both are int32 when every index and the
    total fit, else int64."""
    before = np.cumsum(count) - count  # the terms of the runs before run i
    total = int(count.sum())
    last = first + (count - 1) * (1 if step is None else step)  # each run's last index
    dtype = np.int32 if max(total, int(last.max(initial=0))) < 2**31 else np.int64
    owner = np.repeat(np.arange(len(count), dtype=dtype), count)
    index = np.arange(total, dtype=dtype)
    index -= before.astype(dtype)[owner]
    if step is not None:
        index *= step.astype(dtype)[owner]
    index += first.astype(dtype)[owner]
    return owner, index


def _block_factors(rest: np.ndarray, powers: list) -> tuple[np.ndarray, np.ndarray]:
    """(row, p) for a ``PrimeTable.factor_blocks`` block: one pair for each
    multiple of each prime power p**e in ``powers``, power by power, then one
    for each remainder above 1.  Given every power of the block, each row's
    primes come with their multiplicities."""
    hits = [(p, hit.start, hit.step) for p, _e, hit in powers]
    p, start, step = np.array(hits, dtype=np.int64).reshape(-1, 3).T
    owner, row = _spans(start, (len(rest) - start + step - 1) // step, step)
    big = np.flatnonzero(rest > 1)  # the one prime above sqrt(end), the largest
    return np.concatenate([row, big]), np.concatenate([p[owner], rest[big]])


def _distinct_factors(
    lo: int, hi: int, table: PrimeTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, prime, square) for every distinct prime factor of every n in
    lo..hi, row being n - lo, sorted by row and then by prime; square marks
    the primes whose square divides n."""
    _, rest, powers = next(table.factor_blocks(lo, hi, hi + 1))
    row, prime = _block_factors(rest, [(p, e, hit) for p, e, hit in powers if e == 1])
    order = np.argsort(row, kind="stable")  # the primes came ascending
    row, prime = row[order], prime[order]
    return row, prime, (row + lo) // prime % prime == 0


_default: PrimeTable | None = None
_default_lock = threading.Lock()


def default_table() -> PrimeTable:
    """Shared process-wide table used when callers do not pass their own."""
    global _default
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = PrimeTable()
    return _default
