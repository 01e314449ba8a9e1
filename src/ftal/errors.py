"""Error values shared by the checker and the translations."""

from __future__ import annotations


class FtalError(Exception):
    pass


class CheckError(FtalError):
    """A typing failure with a stable code.

    Codes: E-VAL (operand), E-SEQ (instruction sequence), E-WFRET (return
    marker), E-HEAP (heap fragment), E-COMPONENT (component), E-EXPR
    (expression), KindError (type well-formedness).
    """

    def __init__(self, code: str, message: str, where: str = ""):
        super().__init__(message)
        self.code = code
        self.message = message
        self.where = where

    def display(self) -> str:
        at = f" (in {self.where})" if self.where else ""
        return f"{self.code}: {self.message}{at}"

    def __str__(self) -> str:
        return self.display()


class KindError(CheckError):
    def __init__(self, message: str, where: str = ""):
        super().__init__("KindError", message, where)


class JobError(FtalError):
    """A job file that is not a well-formed equivalence job."""


class ProbeError(FtalError):
    """A forked probe process ended without sending back its
    observations: it was killed, or exited early."""


class TranslationError(FtalError):
    """Raised when a boundary translation is applied to the wrong shape.

    kind is "ill-typed" (value does not match the annotation) or
    "dangling-location" (a word points outside the heap).
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message
