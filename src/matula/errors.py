"""Exception types shared across the package."""


class MatulaError(Exception):
    """Base class for all errors raised by this package."""


class CapExceeded(MatulaError):
    """A prime beyond the table's hard cap would be required.

    The computation is not wrong, merely out of the configured range;
    retry with a table built with a larger ``cap``.
    """

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        # a power of two past 2**64: a decimal of thousands of digits is
        # unreadable and may exceed Python's int-to-str digit limit
        shown = needed if needed < 2**64 else f"2**{needed.bit_length()}"
        super().__init__(
            f"operation needs primes up to ~{shown}, beyond the cap {cap}"
        )


class NotPrime(MatulaError):
    """An argument that must be prime is not."""

    def __init__(self, value: int):
        self.value = value
        super().__init__(f"{value} is not prime")


class ParseError(MatulaError):
    """Malformed bracket string; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class SieveTooLarge(MatulaError):
    """The machine refused the memory a sieve extension asked for.

    Like ``CapExceeded`` the computation is not wrong, merely out of reach;
    a smaller ``cap`` turns such requests into ``CapExceeded`` up front.
    """

    def __init__(self, limit: int, nbytes: int):
        self.limit = limit
        self.nbytes = nbytes
        super().__init__(
            f"sieving primes up to {limit} needs {nbytes} bytes, "
            "more than this machine could allocate"
        )
