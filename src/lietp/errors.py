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


class NotExtreme(LietpError):
    pass


class OwnerMismatch(LietpError):
    """Operands belong to different posets."""


class UnknownElement(LietpError):
    pass


class TooLarge(LietpError):
    """A size past a command-line limit: an oracle system of more
    unknowns than the CLI's ORACLE_CAP, or a result value too long to
    print as a decimal string."""


class NotHalfDerivation(LietpError):
    def __init__(self, witness=None):
        self.witness = witness
        super().__init__("operator fails the half-derivation identity"
                         + (" at basis pair %s, %s" % witness if witness else ""))


class NotCentralInCommutator(LietpError):
    """Element is not supported on the Z([L,L]) basis."""


class NotTransposedPoisson(LietpError):
    def __init__(self, report=None):
        self.report = report
        super().__init__("product fails the transposed Poisson axioms"
                         + (": %s" % (report.get("witness"),) if report else ""))


class ReconstructionMismatch(LietpError):
    """Internal contradiction: a verified decomposition failed to rebuild its input."""


class GoldenMismatch(LietpError):
    pass
