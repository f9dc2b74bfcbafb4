"""Names shared by the layers and the CLI's argument parser.

This module imports nothing, so building the parser (``matula --help``, a
usage error) loads no numpy.
"""

DEFAULT_CAP = 2**32  # hard cap for sieved primes

MOBIUS = "mobius"
LIOUVILLE = "liouville"
MODES = (MOBIUS, LIOUVILLE)

POLICIES = ("largest", "smallest", "first")
