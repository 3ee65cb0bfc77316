"""Exception types shared across the package."""


class SyzkitError(Exception):
    pass


class ParseError(SyzkitError):
    """Malformed input file or polynomial expression."""


class HomogeneityError(SyzkitError):
    """A polynomial that must be homogeneous is not."""


class DegreeBoundError(SyzkitError):
    """A computation needs internal degrees above the ring's degree bound.

    `needed` is the first internal degree read above the bound or, with
    certify, the bound that would certify a generator found too close to it.
    """

    def __init__(self, needed, bound, context="", certify=False):
        self.needed = needed
        self.bound = bound
        msg = (f"needs degree bound {needed}, have {bound}" if certify
               else f"internal degree {needed} exceeds degree bound {bound}")
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class WindowError(SyzkitError):
    """A homological window is too small for the requested computation."""
