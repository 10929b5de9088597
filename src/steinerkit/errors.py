"""Exception types shared across the toolkit, and the default enumeration cap."""

# the default cap on every exact enumeration (``--max-subsets``)
DEFAULT_SUBSET_CAP = 10**7


class CapacityError(Exception):
    """An exact enumeration would exceed its configured cap.

    Raised instead of silently sampling or truncating; the message names the
    enumeration and the cap that was hit.
    """


class DataIntegrityError(Exception):
    """A bundled data file failed its recorded integrity check."""


class NotAutomorphismError(Exception):
    """A generator does not map the block set of a design to itself."""

    def __init__(self, message, generator=None, block=None):
        super().__init__(message)
        self.generator = generator
        self.block = block


class MembershipError(ValueError):
    """A permutation claimed as a subgroup element fails the sift test."""
