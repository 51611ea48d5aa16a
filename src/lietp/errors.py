"""Exceptions shared by all lietp modules."""


class LietpError(Exception):
    pass


class ParseError(LietpError):
    pass


class CycleInOrder(LietpError):
    """Transitive closure of the input covers violates antisymmetry."""


class NotConnected(LietpError):
    pass


class RedundantCover(LietpError):
    """An input pair is not a cover edge after transitive closure."""


class TooSmall(LietpError):
    """Posets with fewer than 2 elements are rejected."""


class CapExceeded(LietpError):
    """A brute-force enumeration grew past its configured cap."""


class NotExtreme(LietpError):
    pass


class InvalidWalk(LietpError):
    pass


class OwnerMismatch(LietpError):
    """Operands belong to different posets."""


class UnknownElement(LietpError):
    pass


class TooLarge(LietpError):
    """Linear system dimension beyond the configured oracle cap."""


class NotHalfDerivation(LietpError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__("operator fails the half-derivation identity"
                         + (" at basis pair %s, %s" % witness if witness else ""))


class MalformedImage(LietpError):
    """Image of a strict basis pair is not a scalar multiple of that pair.

    Kept for callers that catch it; lietp no longer raises it, because every
    half-derivation maps a strict basis pair to a multiple of itself (the
    argument is in halfder.decompose), and any other operator fails with
    NotHalfDerivation.
    """


class NotCentralInCommutator(LietpError):
    """Element is not supported on the Z([L,L]) basis."""


class MuNotAssociative(LietpError):
    pass


class NotTransposedPoisson(LietpError):
    def __init__(self, report=None):
        self.report = report
        super().__init__("product fails the transposed Poisson axioms"
                         + (": %s" % (report.get("witness"),) if report else ""))


class ReconstructionMismatch(LietpError):
    """Internal contradiction: a verified decomposition failed to rebuild its input."""


class GoldenMismatch(LietpError):
    pass
